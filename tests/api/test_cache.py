"""Tests for the content-addressed artifact cache (repro.api.cache)."""

import json

from repro.api.cache import ArtifactCache

KEY = "ab" + "0" * 62


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.get("result", KEY) is None
        assert cache.misses == 1

        cache.put("result", KEY, {"x": 1})
        assert cache.get("result", KEY) == {"x": 1}
        assert cache.hits == 1

    def test_kinds_are_namespaced(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("result", KEY, {"kind": "result"})
        assert cache.get("design", KEY) is None
        assert cache.get("result", KEY) == {"kind": "result"}

    def test_sharded_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("design", KEY, {})
        assert path == tmp_path / "design" / "ab" / f"{KEY}.json"
        assert path.is_file()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("result", KEY, {"x": 1})
        path.write_text("{truncated")
        assert cache.get("result", KEY) is None

    def test_overwrite_replaces_document(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("result", KEY, {"version": 1})
        cache.put("result", KEY, {"version": 2})
        assert cache.get("result", KEY) == {"version": 2}

    def test_preserves_key_order(self, tmp_path):
        # Design documents encode route insertion order in JSON object
        # order; the cache must not re-sort them.
        cache = ArtifactCache(tmp_path)
        document = {"routes": {"z_flow": 1, "a_flow": 2, "m_flow": 3}}
        path = cache.put("design", KEY, document)
        loaded = json.loads(path.read_text())
        assert list(loaded["routes"]) == ["z_flow", "a_flow", "m_flow"]

    def test_has_does_not_touch_counters(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert not cache.has("result", KEY)
        cache.put("result", KEY, {})
        assert cache.has("result", KEY)
        assert cache.hits == 0 and cache.misses == 0

class TestTempFileSweep:
    """Orphaned ``.tmp`` files from killed workers must not leak forever."""

    @staticmethod
    def _orphan(root, *, age_seconds: float = 0.0) -> "object":
        import os

        entry_dir = root / "result" / KEY[:2]
        entry_dir.mkdir(parents=True, exist_ok=True)
        tmp = entry_dir / f".{KEY[:8]}.deadbeef.tmp"
        tmp.write_text('{"half": ')
        if age_seconds:
            past = tmp.stat().st_mtime - age_seconds
            os.utime(tmp, (past, past))
        return tmp

    def test_construction_sweeps_stale_temp_files(self, tmp_path):
        stale = self._orphan(tmp_path, age_seconds=7200.0)
        cache = ArtifactCache(tmp_path)
        assert not stale.exists()
        # The cache itself is untouched by the sweep.
        cache.put("result", KEY, {"x": 1})
        assert ArtifactCache(tmp_path).get("result", KEY) == {"x": 1}

    def test_construction_sweeps_once_per_process(self, tmp_path):
        # Pool workers build one cache per work item; only the first
        # construction over a root may pay the recursive tree walk.
        ArtifactCache(tmp_path)
        stale = self._orphan(tmp_path, age_seconds=7200.0)
        ArtifactCache(tmp_path)
        assert stale.exists()

    def test_construction_keeps_fresh_temp_files(self, tmp_path):
        # A fresh temp file may belong to a live concurrent writer.
        fresh = self._orphan(tmp_path)
        ArtifactCache(tmp_path)
        assert fresh.exists()

    def test_sweep_temp_files_returns_removed_count(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        self._orphan(tmp_path, age_seconds=7200.0)
        assert cache.sweep_temp_files() == 1
        assert cache.sweep_temp_files() == 0

    def test_missing_root_sweep_is_noop(self, tmp_path):
        cache = ArtifactCache(tmp_path / "never-created")
        assert cache.sweep_temp_files() == 0

    def test_put_survives_concurrent_clear_of_its_temp_file(self, tmp_path, monkeypatch):
        # Something outside the process may remove the temp file (or the
        # entry's directory) between write and rename; the writer must
        # retry instead of crashing mid-put.
        import os as os_module

        cache = ArtifactCache(tmp_path)
        real_replace = os_module.replace
        raised = {"count": 0}

        def flaky_replace(src, dst):
            if raised["count"] == 0:
                raised["count"] += 1
                os_module.unlink(src)  # removed from outside
                raise FileNotFoundError(src)
            return real_replace(src, dst)

        monkeypatch.setattr("repro.api.cache.os.replace", flaky_replace)
        cache.put("result", KEY, {"x": 1})
        assert cache.get("result", KEY) == {"x": 1}
        assert raised["count"] == 1


class TestQuarantine:
    def test_truncated_record_is_quarantined_and_recomputable(self, tmp_path):
        # The regression the quarantine exists for: a worker killed
        # mid-write (or a bad disk) leaves a truncated result record; the
        # next reader must treat it as a miss, move the evidence aside and
        # let the recompute land on a clean path.
        cache = ArtifactCache(tmp_path)
        path = cache.put("result", KEY, {"x": 1})
        path.write_text('{"x": 1')  # truncated JSON
        assert cache.get("result", KEY) is None
        assert cache.misses == 1
        assert cache.quarantined == 1
        assert not path.exists()
        quarantined = tmp_path / "corrupt" / path.name
        assert quarantined.read_text() == '{"x": 1'
        # The recompute writes and reads back normally.
        cache.put("result", KEY, {"x": 2})
        assert cache.get("result", KEY) == {"x": 2}

    def test_corrupt_design_record_is_quarantined_too(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("design", KEY, {"routes": {}})
        path.write_text("not json at all")
        assert cache.get("design", KEY) is None
        assert cache.quarantined == 1
        assert (tmp_path / "corrupt" / path.name).exists()

    def test_plain_miss_is_not_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("result", KEY) is None
        assert cache.quarantined == 0
        assert not (tmp_path / "corrupt").exists()

    def test_unreadable_entry_is_quarantined(self, tmp_path, monkeypatch):
        # An I/O error that is not FileNotFoundError (EIO, permission loss)
        # counts as corrupt, not as absent.
        from pathlib import Path

        cache = ArtifactCache(tmp_path)
        path = cache.put("result", KEY, {"x": 1})
        real_read_text = Path.read_text

        def failing_read_text(self, *args, **kwargs):
            if self == path:
                raise OSError("I/O error")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read_text)
        assert cache.get("result", KEY) is None
        assert cache.misses == 1
        assert cache.quarantined == 1

    def test_failed_quarantine_move_still_misses(self, tmp_path, monkeypatch):
        import os as os_module

        cache = ArtifactCache(tmp_path)
        path = cache.put("result", KEY, {"x": 1})
        path.write_text("{bad")

        def failing_replace(src, dst):
            raise OSError("read-only filesystem")

        monkeypatch.setattr("repro.api.cache.os.replace", failing_replace)
        assert cache.get("result", KEY) is None
        assert cache.quarantined == 0
