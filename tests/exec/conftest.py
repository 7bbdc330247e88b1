"""Shared fixtures: isolate the executor counters and the store dir."""

import pytest

from repro.exec import exec_stats


@pytest.fixture(autouse=True)
def _fresh_exec_stats():
    exec_stats.reset()
    yield
    exec_stats.reset()


@pytest.fixture
def store_dir(tmp_path, monkeypatch):
    root = tmp_path / "repro-store"
    monkeypatch.setenv("REPRO_STORE_DIR", str(root))
    return root
