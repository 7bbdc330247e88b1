"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.exec import exec_stats


@pytest.fixture(autouse=True)
def _hermetic_store(tmp_path, monkeypatch):
    """The CLI's result store defaults to on; keep entries out of the
    repo."""
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "repro-store"))
    exec_stats.reset()


class TestCli:
    def test_table1_prints_survey(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Google Traces" in out
        assert "Mesos" in out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--tasks", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "100%" in out

    def test_fig2_warm_rerun_hits_the_cache(self, capsys):
        assert main(["fig2", "--tasks", "8"]) == 0
        first = capsys.readouterr().out
        assert exec_stats.scenarios_run == 5
        assert main(["fig2", "--tasks", "8"]) == 0
        second = capsys.readouterr().out
        assert second == first
        assert exec_stats.scenarios_run == 5  # zero new simulations
        assert exec_stats.store_hits == 5

    def test_fig2_no_cache_resimulates(self, capsys):
        assert main(["fig2", "--tasks", "8", "--no-cache"]) == 0
        assert main(["fig2", "--tasks", "8", "--no-cache"]) == 0
        assert exec_stats.scenarios_run == 10
        assert exec_stats.store_hits == 0

    def test_fig2_parallel_matches_serial(self, capsys):
        assert main(["fig2", "--tasks", "8", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig2", "--tasks", "8", "--no-cache",
                     "-j", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_plan_jobs_fan_out_over_stealing(self, capsys, monkeypatch):
        # Four CPUs, so the single-CPU serial fallback cannot mask a
        # runner that ignores -j.
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 4)
        assert main(["plan", "--hpcc", "1", "--own", "2", "--victims", "4",
                     "--grid", "1.0", "--workload", "blast",
                     "-j", "2"]) == 0
        assert "capacity plan" in capsys.readouterr().out
        assert exec_stats.sweeps_stealing == 1
        assert exec_stats.sweeps_serial == 0
        assert exec_stats.sched_workers_spawned == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--workload", "nonesuch"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(Exception):
            main(["fig2", "--tasks", "8", "-j", "0"])
