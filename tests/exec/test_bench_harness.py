"""The figure benches never serve a stale result.

The Fig. 2 bench runs through the shared result store, salted by the
code version.  A salt change stands in for a model-constant edit: it
must re-simulate, while a same-salt re-run answers from the store.
"""

import sys
from pathlib import Path

import pytest

from repro.exec import exec_stats
from repro.units import MB

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import _harness  # noqa: E402
import bench_fig2_baseline as fig2  # noqa: E402


@pytest.fixture
def tiny_fig2(tmp_path, monkeypatch):
    """A tiny Fig. 2 sweep whose store and artifacts stay in tmp."""
    monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.setattr(fig2, "N_TASKS", 8)
    monkeypatch.setattr(fig2, "FILE_SIZE", 16 * MB)

    def run(salt: str) -> tuple[dict, int]:
        monkeypatch.setattr("repro.exec.store.code_version", lambda: salt)
        exec_stats.reset()
        data = fig2.run_sweep()
        return data, exec_stats.scenarios_run

    return run


def test_salt_change_resimulates_and_same_salt_does_not(tiny_fig2,
                                                        tmp_path):
    cold, ran = tiny_fig2("v1")
    assert ran == len(cold["rows"]) == 5
    assert (tmp_path / "results" / "fig2-baseline.json").is_file()

    warm, ran = tiny_fig2("v1")
    assert ran == 0
    assert warm == cold

    edited, ran = tiny_fig2("v2")
    assert ran > 0, "a stale result was served after a code change"
    assert exec_stats.store_invalidations == 5
    assert edited == cold  # the stand-in edit changed no model bit
