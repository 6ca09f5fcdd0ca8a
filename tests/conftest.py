"""Shared fixtures."""
import pytest

from symmpoly import ensembles


@pytest.fixture
def dispatch_every_run(monkeypatch):
    # list runs of at most ensembles._IN_PROCESS_EDGES drawn edges stay
    # in-process at any worker count; a cut of 0 sends every multi-chunk
    # run at workers > 1 to the pool, so small tests exercise it
    monkeypatch.setattr(ensembles, "_IN_PROCESS_EDGES", 0)
