"""Tests for deployment wiring and the Fig. 2 baseline runner."""

import pytest

from repro.core import (DeploymentConfig, MemFSSDeployment, baseline_run)
from repro.units import GB, MB
from repro.workflows import dd_bag


def small_config(**kw):
    base = dict(n_own=2, n_victim=4, victim_memory=2 * GB,
                own_store_capacity=8 * GB, stripe_size=8 * MB)
    base.update(kw)
    alpha = base.pop("alpha", 0.25)
    return DeploymentConfig(**base).with_alpha(alpha)


class TestDeploymentConfig:
    def test_defaults_match_paper_setup(self):
        cfg = DeploymentConfig()
        assert cfg.n_own == 8
        assert cfg.n_victim == 32
        assert cfg.victim_memory == 10 * GB

    def test_validation(self):
        with pytest.raises(ValueError):
            DeploymentConfig(n_own=0)
        with pytest.raises(ValueError):
            DeploymentConfig(alpha=1.5)
        with pytest.raises(ValueError):
            DeploymentConfig(n_victim=-1)
        for solver in ("auto", "sharded", "bogus"):
            with pytest.raises(ValueError, match="incremental"):
                DeploymentConfig(solver=solver)
        for solver in (None, "incremental", "reference"):
            assert DeploymentConfig(solver=solver).solver == solver


class TestMemFSSDeployment:
    def test_wiring(self):
        dep = MemFSSDeployment(small_config())
        assert len(dep.own) == 2
        assert len(dep.victims) == 4
        assert set(dep.fs.policy.class_names) == {"own", "victim"}
        assert len(dep.fs.servers) == 6

    def test_victims_offered_and_leased(self):
        dep = MemFSSDeployment(small_config())
        assert len(dep.cluster.reservations.active_leases()) == 4
        assert len(dep.manager.leases) == 4

    def test_victim_stores_containerized(self):
        dep = MemFSSDeployment(small_config())
        for v in dep.victims:
            server = dep.fs.servers[v.name]
            assert server.container is not None
            assert server.kv.capacity <= 2 * GB

    def test_auth_blocks_victim_clients(self):
        from repro.store import AuthError
        dep = MemFSSDeployment(small_config())
        victim = dep.victims[0]
        with pytest.raises(AuthError):
            dep.auth.check(dep.config.password, victim.name)

    def test_workflow_runs_end_to_end(self):
        dep = MemFSSDeployment(small_config())
        result = dep.engine.execute(dd_bag(n_tasks=8, file_size=16 * MB))
        assert result.makespan > 0
        assert len(result.tasks) == 8

    def test_no_victims_allowed(self):
        dep = MemFSSDeployment(small_config(n_victim=0, alpha=1.0))
        result = dep.engine.execute(dd_bag(n_tasks=4, file_size=8 * MB))
        assert len(result.tasks) == 4

    def test_deterministic(self):
        def go():
            dep = MemFSSDeployment(small_config())
            return dep.engine.execute(
                dd_bag(n_tasks=8, file_size=16 * MB)).makespan

        assert go() == go()


class TestBaselineRun:
    def test_metrics_shape(self):
        m = baseline_run(alpha=0.25, n_tasks=16, file_size=32 * MB,
                         config=small_config())
        assert m.alpha == 0.25
        assert m.runtime_s > 0
        assert 0 <= m.victim_cpu <= 1
        assert 0 <= m.victim_rx <= 1

    def test_alpha_one_sends_nothing_to_victims(self):
        m = baseline_run(alpha=1.0, n_tasks=16, file_size=32 * MB,
                         config=small_config())
        assert m.victim_rx == pytest.approx(0.0, abs=1e-6)

    def test_alpha_zero_loads_victims(self):
        m0 = baseline_run(alpha=0.0, n_tasks=16, file_size=32 * MB,
                          config=small_config())
        m1 = baseline_run(alpha=0.75, n_tasks=16, file_size=32 * MB,
                          config=small_config())
        assert m0.victim_rx > m1.victim_rx

    def test_victim_cpu_stays_small(self):
        m = baseline_run(alpha=0.0, n_tasks=32, file_size=64 * MB,
                         config=small_config())
        assert m.victim_cpu < 0.05  # the paper's < 5 % bound
