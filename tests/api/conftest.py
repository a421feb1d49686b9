"""Shared fixtures of the experiment-API tests."""

import pytest

from repro.synthesis import builder


@pytest.fixture
def counting_synthesis(monkeypatch):
    """Record ``(benchmark, switch count)`` per call of the one synthesis entry."""
    real = builder.synthesize_design
    calls = []

    def wrapper(traffic, config, **kwargs):
        calls.append((traffic.name, config.n_switches))
        return real(traffic, config, **kwargs)

    monkeypatch.setattr(builder, "synthesize_design", wrapper)
    return calls
