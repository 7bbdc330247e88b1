"""Capacity planner: cell math, binary search, warm-store replanning.

The real slowdown cells are multi-second simulations, so these tests
swap the ``slowdown-suite`` executor for an analytic fake whose tenant
slowdown decreases linearly in α — the monotone shape the planner's
binary search assumes — and exercise the search, the report contract
and the store integration against it.  The fake runs in-process (serial
backend), so ``monkeypatch.setitem`` on the registry is enough.
"""

import json

import pytest

from repro.exec import (DEFAULT_ALPHA_GRID, ResultStore, SweepRunner,
                        cell_specs, evaluate_mix, exec_stats, plan_capacity)
from repro.exec.scenarios import EXECUTORS

#: Per-class baseline seconds and slowdown slope: tenant slowdown is
#: ``slope * (1 - α)`` percent — 20% at α=0 for HPCC, 0% at α=1.
FAKE_SHAPE = {"hpcc": (100.0, 20.0), "hibench-hadoop": (200.0, 10.0),
              "hibench-spark": (150.0, 30.0)}


def fake_suite_executor(spec):
    p = spec.param_dict()
    base_s, slope = FAKE_SHAPE[p["suite"]]
    times = {"bench-a": base_s, "bench-b": 2 * base_s}
    if p.get("workload") is None:
        return {"runtimes_s": times}
    alpha = spec.deployment_config().policy.alpha
    factor = 1.0 + slope * (1.0 - alpha) / 100.0
    return {"runtimes_s": {k: v * factor for k, v in times.items()}}


@pytest.fixture
def fake_cells(monkeypatch):
    monkeypatch.setitem(EXECUTORS, "slowdown-suite", fake_suite_executor)


class TestCells:
    def test_cell_specs_share_figure_fingerprints(self):
        specs = cell_specs("hpcc", 0.5, "dd")
        assert len(specs) == 2
        assert specs[0].param("workload") is None
        assert specs[1].param("workload") == "dd"
        assert specs[0].param("suite") == "hpcc"
        assert specs[0].param("suite_scale") == 0.5  # HPCC half-scale
        assert specs[0].config.policy.alpha == 0.5
        # The same cell built twice addresses the same cache entries.
        again = cell_specs("hpcc", 0.5, "dd")
        assert [s.spec_key() for s in specs] == \
            [s.spec_key() for s in again]

    def test_unknown_tenant_class_rejected(self):
        with pytest.raises(LookupError, match="unknown tenant class"):
            cell_specs("mapreduce", 0.5, "dd")

    def test_evaluate_mix_weights_by_tenant_count(self, fake_cells):
        ev = evaluate_mix(SweepRunner(), {"hpcc": 1, "hibench-hadoop": 3},
                          alpha=0.0, workload="dd")
        # hpcc 20% and hadoop 10%, counts 1:3 → (20 + 3*10)/4 = 12.5.
        assert ev["weighted_mean_pct"] == pytest.approx(12.5)
        assert ev["max_class_pct"] == pytest.approx(20.0)
        assert [c["tenant_class"] for c in ev["cells"]] == \
            ["hibench-hadoop", "hpcc"]
        assert ev["cells"][1]["per_benchmark_pct"]["bench-a"] == \
            pytest.approx(20.0)


class TestBinarySearch:
    def test_finds_leftmost_feasible_grid_point(self, fake_cells):
        # 20·(1-α) ≤ 6 ⇔ α ≥ 0.7: the leftmost feasible default-grid
        # point is 0.75 (the bound sits strictly between grid points so
        # float rounding in the cell math cannot flip the verdict).
        report = plan_capacity({"hpcc": 2}, bound_pct=6.0)
        assert report["feasible"] is True
        assert report["alpha_min"] == 0.75
        assert report["victim_share"] == 0.25
        # Binary search, not a sweep: ⌈log₂ 8⌉ probes + both endpoints.
        assert len(report["evaluations"]) == 5
        assert len(report["evaluations"]) < len(DEFAULT_ALPHA_GRID)
        probed = [ev["alpha"] for ev in report["evaluations"]]
        assert probed[0] == 1.0 and probed[1] == 0.0
        feasibles = {ev["alpha"]: ev["feasible"]
                     for ev in report["evaluations"]}
        assert feasibles[0.75] is True and feasibles[0.625] is False
        assert report["bound_pct"] == 6.0

    def test_infeasible_mix_short_circuits(self, fake_cells):
        report = plan_capacity({"hibench-spark": 1}, bound_pct=-1.0)
        assert report["feasible"] is False
        assert report["alpha_min"] is None
        assert report["victim_share"] is None
        # Only the most conservative α was probed before giving up.
        assert [ev["alpha"] for ev in report["evaluations"]] == [1.0]

    def test_everywhere_feasible_answers_leftmost(self, fake_cells):
        report = plan_capacity({"hpcc": 1}, bound_pct=50.0)
        assert report["alpha_min"] == 0.0
        assert report["victim_share"] == 1.0
        assert len(report["evaluations"]) == 2  # hi probe, then lo

    def test_custom_grid_is_sorted_and_deduped(self, fake_cells):
        report = plan_capacity({"hpcc": 1}, bound_pct=5.0,
                               alpha_grid=(1.0, 0.5, 0.5, 0.0))
        assert report["alpha_grid"] == [0.0, 0.5, 1.0]
        assert report["alpha_min"] == 1.0  # 0.5 gives 10% > 5%

    def test_input_validation(self):
        with pytest.raises(ValueError, match="job mix is empty"):
            plan_capacity({"hpcc": 0}, bound_pct=5.0)
        with pytest.raises(LookupError, match="unknown tenant class"):
            plan_capacity({"slurm": 1}, bound_pct=5.0)
        with pytest.raises(ValueError, match="negative tenant count"):
            plan_capacity({"hpcc": 1, "hibench-hadoop": -2}, bound_pct=5.0)
        with pytest.raises(ValueError, match="alpha_grid is empty"):
            plan_capacity({"hpcc": 1}, bound_pct=5.0, alpha_grid=())


class TestReport:
    def test_report_is_deterministic_json(self, fake_cells):
        kwargs = dict(mix={"hpcc": 1, "hibench-hadoop": 2}, bound_pct=8.0)
        first = plan_capacity(**kwargs)
        second = plan_capacity(**kwargs)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert first["version"] == 1
        assert first["mix"] == {"hpcc": 1, "hibench-hadoop": 2}
        assert first["workload"] == "dd"

    def test_zero_count_classes_dropped_from_report(self, fake_cells):
        report = plan_capacity({"hpcc": 1, "hibench-spark": 0},
                               bound_pct=50.0)
        assert report["mix"] == {"hpcc": 1}
        assert all(len(ev["cells"]) == 1 for ev in report["evaluations"])


class TestWarmStore:
    def test_warm_store_answers_with_zero_simulations(self, store_dir,
                                                      fake_cells):
        store = ResultStore(salt="v1")
        cold = plan_capacity({"hpcc": 1}, bound_pct=6.0,
                             runner=SweepRunner(cache=store))
        assert cold["simulations_run"] == 2 * len(cold["evaluations"])
        warm = plan_capacity({"hpcc": 1}, bound_pct=6.0,
                             runner=SweepRunner(cache=store))
        assert warm["simulations_run"] == 0
        assert all(ev["simulated"] == 0 for ev in warm["evaluations"])
        assert warm["alpha_min"] == cold["alpha_min"]
        # Identical reports modulo the simulation accounting (which
        # lives on both the evaluations and their per-class cells).
        def strip(evaluations):
            return [dict(ev, simulated=None,
                         cells=[dict(c, simulated=None)
                                for c in ev["cells"]])
                    for ev in evaluations]
        assert strip(cold["evaluations"]) == strip(warm["evaluations"])

    def test_report_insensitive_to_payload_key_order(self, store_dir,
                                                     monkeypatch):
        # A fresh payload's runtimes dict is in suite run order; a
        # stored blob comes back in sorted-key order (canonical JSON).
        # Float sums are order-sensitive, so the report math must fix
        # its own order or cold and warm reports drift in the last ulp.
        # These pcts sum to 40.47 in run order (c, b, a) but
        # 40.470000000000006 sorted — a real last-ulp divergence.
        def tricky(spec):
            if spec.param_dict().get("workload") is None:
                return {"runtimes_s": {"c": 100.0, "b": 100.0, "a": 100.0}}
            return {"runtimes_s": {"c": 116.89, "b": 115.16, "a": 108.42}}

        monkeypatch.setitem(EXECUTORS, "slowdown-suite", tricky)
        store = ResultStore(salt="v1")
        cold = plan_capacity({"hpcc": 1}, bound_pct=41.0,
                             runner=SweepRunner(cache=store))
        warm = plan_capacity({"hpcc": 1}, bound_pct=41.0,
                             runner=SweepRunner(cache=store))
        assert [ev["weighted_mean_pct"] for ev in cold["evaluations"]] == \
            [ev["weighted_mean_pct"] for ev in warm["evaluations"]]
        assert cold["alpha_min"] == warm["alpha_min"]

    def test_eviction_recomputes_only_the_missing_cells(self, store_dir,
                                                        fake_cells):
        store = ResultStore(salt="v1")
        plan_capacity({"hpcc": 1}, bound_pct=6.0,
                      runner=SweepRunner(cache=store))
        # Evict one scenario (what a byte-budget eviction does to a
        # warm corpus) and replan: exactly that cell re-simulates.
        victim = cell_specs("hpcc", 0.75, "dd")[1]
        store.blob_path(victim.fingerprint(store.salt)).unlink()
        store.gc()
        exec_stats.reset()
        replan = plan_capacity({"hpcc": 1}, bound_pct=6.0,
                               runner=SweepRunner(cache=store))
        assert replan["simulations_run"] == 1
        assert exec_stats.scenarios_run == 1
        assert replan["alpha_min"] == 0.75
