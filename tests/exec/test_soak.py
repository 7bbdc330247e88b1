"""Chaos soak: randomized faults + capacity pressure never escape the
degradation taxonomy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.degraded import DegradedReason
from repro.exec import run_scenario
from repro.exec.soak import (build_soak_schedule, run_soak, run_soak_suite,
                             soak_spec)

#: The acceptance bar: this many seeds, zero uncaught exceptions.
N_SEEDS = 20


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert build_soak_schedule(5).events == build_soak_schedule(5).events

    def test_different_seeds_differ(self):
        assert build_soak_schedule(0).events != build_soak_schedule(1).events

    def test_event_count_and_bounds(self):
        sched = build_soak_schedule(3, horizon=12.0, n_events=6)
        assert len(sched) == 6
        assert all(0.0 <= ev.at <= 12.0 for ev in sched)


class TestSoakRun:
    def test_registered_as_scenario(self):
        payload = run_scenario(soak_spec(0, n_tasks=4, n_events=2))
        assert payload["seed"] == 0
        assert "pressure" in payload and "faults" in payload

    def test_run_is_deterministic_and_json_safe(self):
        a = run_soak(soak_spec(3))
        b = run_soak(soak_spec(3))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_soak_20_seeds_zero_uncaught_exceptions(self):
        # Any exception outside DEGRADABLE_ERRORS propagates out of
        # run_soak_suite and fails this test — that IS the assertion.
        report = run_soak_suite(range(N_SEEDS))
        assert len(report["runs"]) == N_SEEDS
        assert report["completed"] + report["degraded"] == N_SEEDS
        valid = {r.value for r in DegradedReason}
        for run in report["runs"]:
            if run["completed"]:
                assert run["makespan_s"] > 0.0
                assert run["degraded"] is None
            else:
                assert run["degraded"]["reason"] in valid
        # The soak must actually exercise pressure: faults were injected
        # and the spill/degradation counters surface in the report.
        assert any(run["injected"] for run in report["runs"])
        totals = report["pressure_totals"]
        assert totals["writes_checked"] > 0
        assert totals["spilled_writes"] > 0
        json.dumps(report, sort_keys=True)   # artifact-safe

    def test_main_writes_artifact(self, tmp_path, capsys):
        from repro.exec.soak import main
        out = tmp_path / "pressure-metrics.json"
        assert main(["--seeds", "2", "--tasks", "6", "--out",
                     str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["seeds"]) == 2
        assert "pressure_totals" in report
        assert "soak:" in capsys.readouterr().out

    def test_module_runs_once_as_main(self):
        # `python -m repro.exec.soak` (the CI chaos-soak step) must not
        # find the module already imported by its package: runpy would
        # execute it twice and warn.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.exec.soak", "--seeds", "0"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
