"""Shared fixtures."""
import multiprocessing
import os
from pathlib import Path

import pytest

from symmpoly import ensembles


@pytest.fixture(autouse=True)
def no_worker_left_running():
    # every pool a test opens, directly or through a chunk run, must be
    # ended by the time the test returns; a leaked Pool raises no
    # ResourceWarning, so its processes are counted here
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def dispatch_every_run(monkeypatch):
    # chunk runs of at most ensembles._IN_PROCESS_EDGES drawn edges stay
    # in-process at any worker count; a cut of 0 sends every multi-chunk
    # run at workers > 1 to the pool, so small tests exercise it
    monkeypatch.setattr(ensembles, "_IN_PROCESS_EDGES", 0)


@pytest.fixture
def src_env():
    """The environment for a subprocess that imports symmpoly: this one's,
    with the checkout's src first on PYTHONPATH, as pytest puts it first on
    its own sys.path, so that the subprocess needs no install."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
