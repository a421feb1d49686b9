"""Engine/test cross-referencing: every registered name appears in a test."""

_REGISTERING_SOURCE = """
    class _Registry:
        def register(self, name):
            def decorate(fn):
                return fn
            return decorate

    simulation_engines = _Registry()

    @simulation_engines.register("ghost-engine")
    def ghost(design):
        return design
    """


class TestEngineTestCoverage:
    def test_unreferenced_registration_is_flagged(self, lint_project):
        report = lint_project(
            {"src/engines.py": _REGISTERING_SOURCE},
            tests={"test_other.py": "def test_nothing():\n    assert 'legacy'\n"},
            rules=["engine-test-coverage"],
        )
        (finding,) = report.new_findings
        assert "'ghost-engine'" in finding.message
        assert finding.path == "src/engines.py"

    def test_any_test_string_reference_counts_as_coverage(self, lint_project):
        report = lint_project(
            {"src/engines.py": _REGISTERING_SOURCE},
            tests={
                "test_ghost.py": (
                    "def test_ghost():\n"
                    "    assert resolve('ghost-engine') is not None\n"
                )
            },
            rules=["engine-test-coverage"],
        )
        assert report.ok

    def test_name_via_module_constant_is_resolved(self, lint_project):
        source = _REGISTERING_SOURCE.replace(
            '@simulation_engines.register("ghost-engine")',
            'ENGINE_NAME = "phantom-engine"\n\n'
            "    @simulation_engines.register(ENGINE_NAME)",
        )
        report = lint_project(
            {"src/engines.py": source},
            tests={"test_other.py": "def test_nothing():\n    assert True\n"},
            rules=["engine-test-coverage"],
        )
        (finding,) = report.new_findings
        assert "'phantom-engine'" in finding.message

    def test_rule_is_quiet_without_a_test_tree(self, lint_project):
        report = lint_project(
            {"src/engines.py": _REGISTERING_SOURCE},
            rules=["engine-test-coverage"],
        )
        assert report.ok

    def test_unreferenced_report_type_is_flagged(self, lint_project):
        source = _REGISTERING_SOURCE.replace("simulation_engines", "report_types")
        report = lint_project(
            {"src/reports.py": source},
            tests={"test_other.py": "def test_nothing():\n    assert 'figure8'\n"},
            rules=["engine-test-coverage"],
        )
        (finding,) = report.new_findings
        assert "report_types entry 'ghost-engine'" in finding.message

    def test_unrelated_registries_are_ignored(self, lint_project):
        source = _REGISTERING_SOURCE.replace("simulation_engines", "plugin_hooks")
        report = lint_project(
            {"src/engines.py": source},
            tests={"test_other.py": "def test_nothing():\n    assert True\n"},
            rules=["engine-test-coverage"],
        )
        assert report.ok
