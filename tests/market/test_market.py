"""Tests for the lease marketplace: risk pricing, notice semantics, the
epoch controller, and the plan-diff rebalance."""

import pytest

from repro.core import (ClassTarget, DeploymentConfig, MemFSSDeployment,
                        PlacementPolicy)
from repro.fs import pressure_stats
from repro.market import (MarketBook, MarketController, lease_discount,
                          market_spec, market_stats, run_market)
from repro.store import StoreError, StoreErrorCode
from repro.units import MB


def small_deployment(seed=0, n_victim=4):
    return MemFSSDeployment(DeploymentConfig(
        n_own=2, n_victim=n_victim, victim_memory=64 * MB,
        own_store_capacity=256 * MB, stripe_size=4 * MB,
        seed=seed).with_alpha(0.25))


def make_controller(dep, **kwargs):
    return MarketController(dep.env, dep.fs, dep.manager,
                            dep.cluster.reservations,
                            dep.placement_policy, **kwargs)


class TestRiskPricing:
    def test_legacy_open_ended_full_value(self):
        dep = small_deployment()
        lease = dep.manager.leases[dep.victims[0].name]
        assert lease.expires_at is None and lease.notice == 0.0
        assert lease_discount(lease, dep.env.now) == 1.0

    def test_noticed_lease_worth_nothing(self):
        dep = small_deployment()
        lease = dep.manager.leases[dep.victims[0].name]
        lease.revoke_with_notice("pressure", notice=5.0)
        assert lease_discount(lease, dep.env.now) == 0.0

    def test_termed_lease_decays_with_remaining(self):
        dep = small_deployment()
        res = dep.cluster.reservations
        node = dep.victims[0]
        lease = dep.manager.leases[node.name]
        lease.revoke("make room")
        dep.manager.leases.pop(node.name)
        res.register_offer(node, 32 * MB, duration=15.0, notice=4.0)
        termed = res.lease(node, 32 * MB, holder="test")
        # remaining=15 < horizon=30 → remaining/horizon; notice 4 >= 2
        # caps the notice factor at 1.
        assert lease_discount(termed, dep.env.now, horizon=30.0,
                              short_notice=2.0) \
            == pytest.approx(15.0 / 30.0)

    def test_short_notice_scales_down(self):
        dep = small_deployment()
        res = dep.cluster.reservations
        node = dep.victims[1]
        dep.manager.leases[node.name].revoke("make room")
        dep.manager.leases.pop(node.name)
        res.register_offer(node, 32 * MB, duration=60.0, notice=1.0)
        termed = res.lease(node, 32 * MB, holder="test")
        assert lease_discount(termed, dep.env.now, horizon=30.0,
                              short_notice=2.0) == pytest.approx(0.5)

    def test_open_ended_notice_never_priced_below_legacy(self):
        # Monotonicity: some notice is strictly safer than none, so an
        # open-ended lease with a short notice term must keep the legacy
        # full-value pricing, not drop below the zero-notice kind.
        dep = small_deployment()
        res = dep.cluster.reservations
        node = dep.victims[2]
        dep.manager.leases[node.name].revoke("make room")
        dep.manager.leases.pop(node.name)
        res.register_offer(node, 32 * MB, notice=1.0)   # open-ended
        noticed = res.lease(node, 32 * MB, holder="test")
        assert lease_discount(noticed, dep.env.now,
                              short_notice=2.0) == 1.0


class TestNoticeSemantics:
    def test_notice_fires_then_revokes_after_period(self):
        dep = small_deployment()
        env = dep.env
        lease = dep.manager.leases[dep.victims[0].name]
        lease.revoke_with_notice("pressure", notice=3.0)
        assert lease.notified.triggered
        assert not lease.revoked.triggered
        env.run(until=2.9)
        assert not lease.revoked.triggered
        env.run(until=3.1)
        assert lease.revoked.triggered

    def test_repeat_notice_keeps_earliest_deadline(self):
        dep = small_deployment()
        env = dep.env
        lease = dep.manager.leases[dep.victims[0].name]
        lease.revoke_with_notice("first", notice=2.0)
        lease.revoke_with_notice("second", notice=10.0)
        env.run(until=2.5)
        assert lease.revoked.triggered

    def test_termed_lease_auto_expires_with_notice(self):
        dep = small_deployment()
        env = dep.env
        res = dep.cluster.reservations
        node = dep.victims[0]
        dep.manager.leases[node.name].revoke("make room")
        dep.manager.leases.pop(node.name)
        res.register_offer(node, 32 * MB, duration=10.0, notice=3.0)
        lease = res.lease(node, 32 * MB, holder="test")
        env.run(until=6.9)          # notice due at duration - notice = 7
        assert not lease.notified.triggered
        env.run(until=7.1)
        assert lease.notified.triggered
        assert not lease.revoked.triggered
        env.run(until=10.1)         # revocation lands at the full term
        assert lease.revoked.triggered


class TestMarketBook:
    def test_publish_replaces_and_orders(self):
        book = MarketBook()

        class N:
            def __init__(self, name):
                self.name = name

        book.publish(N("b"), 10.0)
        book.publish(N("a"), 10.0)
        book.publish(N("b"), 20.0)      # repost replaces
        pending = book.pending_offers()
        assert [o.node.name for o in pending] == ["a", "b"]
        assert pending[1].memory == 20.0

    def test_validation(self):
        book = MarketBook()
        with pytest.raises(ValueError):
            book.submit("t", 0)


class TestController:
    def test_idle_market_is_byte_identical(self):
        """A controller with an empty book must not perturb placement,
        stored bytes, or file contents — the static path exactly."""
        def drive(dep, with_controller):
            env = dep.env
            ctl = None
            if with_controller:
                ctl = make_controller(dep, epoch=1.0)
                ctl.start()
            agent = dep.own[0]

            def writer():
                for i in range(6):
                    payload = bytes([i + 1]) * (3 * MB)
                    yield from dep.fs.write_file(agent, f"/f{i}",
                                                 payload=payload)
                    yield env.timeout(1.5)
            env.process(writer())
            env.run(until=12.0)
            if ctl is not None:
                ctl.stop()
            state = {name: s.kv.used_bytes
                     for name, s in dep.fs.servers.items()}
            payloads = {}

            def reader():
                for i in range(6):
                    _, data = yield from dep.fs.read_file(agent, f"/f{i}")
                    payloads[i] = data
            env.process(reader())
            env.run()
            return dep.fs.policy.snapshot(), state, payloads, ctl

        base_snap, base_state, base_payloads, _ = \
            drive(small_deployment(seed=3), False)
        market_stats.reset()
        ctl_snap, ctl_state, ctl_payloads, ctl = \
            drive(small_deployment(seed=3), True)
        assert ctl_snap == base_snap
        assert ctl_state == base_state
        assert ctl_payloads == base_payloads
        assert market_stats.idle_epochs == market_stats.epochs > 0
        assert market_stats.bytes_migrated == 0

    def test_target_alpha_law(self):
        dep = small_deployment()
        ctl = make_controller(dep, supply_target=1.0)
        ctl.submit_demand("t", 512 * MB)     # supply 256 MB, demand 512
        assert ctl.target_alpha() == pytest.approx(0.5)
        ctl2 = make_controller(dep, supply_target=0.85)
        ctl2.submit_demand("t", 512 * MB)
        assert ctl2.target_alpha() == pytest.approx(
            round(1.0 - 0.85 * 256 / 512, 3))

    def test_alpha_clamped_to_floor_and_ceiling(self):
        dep = small_deployment()
        ctl = make_controller(dep, alpha_floor=0.25, alpha_ceil=0.9)
        ctl.submit_demand("t", 1 * MB)       # plentiful supply → floor
        assert ctl.target_alpha() == 0.25

    def test_grant_creates_termed_lease_and_grows_class(self):
        dep = small_deployment(n_victim=3)
        env = dep.env
        # Tear one victim out of the initial deployment, then re-admit
        # it through the market with terms.
        node = dep.victims[0]
        lease = dep.manager.leases[node.name]
        lease.revoke("make room")
        env.run(until=1.0)                  # let the drain finish
        assert node.name not in dep.fs.servers
        ctl = make_controller(dep, epoch=1.0)
        ctl.start()
        ctl.publish(node, 32 * MB, duration=30.0, notice=3.0)
        env.run(until=2.5)                  # next epoch grants
        ctl.stop()
        granted = dep.manager.leases[node.name]
        assert granted.active
        assert granted.notice == 3.0
        assert granted.expires_at is not None
        assert node.name in dep.fs.policy.classes["victim"].nodes
        assert market_stats.leases_granted >= 1

    def test_retune_requires_fraction_policy_with_own(self):
        # with_fraction("own", α) on the retune path would crash on the
        # first non-idle epoch for weight-targeted policies (or fraction
        # policies without an "own" class) — rejected at construction.
        dep = small_deployment()
        weighted = PlacementPolicy.make(
            {"own": ClassTarget(weight=0.0),
             "victim": ClassTarget(weight=5.0)})
        with pytest.raises(ValueError, match="retune"):
            MarketController(dep.env, dep.fs, dep.manager,
                             dep.cluster.reservations, weighted)
        no_own = PlacementPolicy.make({"hot": 0.5, "cold": 0.5})
        with pytest.raises(ValueError, match="retune"):
            MarketController(dep.env, dep.fs, dep.manager,
                             dep.cluster.reservations, no_own)
        # retune=False runs any policy (α pinned to the floor).
        ctl = MarketController(dep.env, dep.fs, dep.manager,
                               dep.cluster.reservations, weighted,
                               retune=False)
        assert ctl.alpha == ctl.alpha_floor
        assert ctl.target_alpha() == ctl.alpha

    def test_offer_for_draining_node_stays_pending(self):
        dep = small_deployment(n_victim=3)
        env = dep.env
        node = dep.victims[0]
        dep.manager.leases[node.name].revoke_with_notice(
            "pressure", notice=5.0)
        ctl = make_controller(dep, epoch=1.0)
        ctl.start()
        ctl.publish(node, 32 * MB, duration=30.0, notice=2.0)
        env.run(until=1.5)                  # node still draining
        assert ctl.book.pending_offers()    # not dropped
        env.run(until=8.0)                  # drained, then re-granted
        ctl.stop()
        assert not ctl.book.pending_offers()
        assert dep.manager.leases[node.name].active


class TestRebalance:
    def write_files(self, dep, n=6, size=12 * MB):
        agent = dep.own[0]
        payloads = {}

        def writer():
            for i in range(n):
                payload = bytes([(i % 250) + 1]) * int(size)
                payloads[f"/f{i}"] = payload
                yield from dep.fs.write_file(agent, f"/f{i}",
                                             payload=payload)
        dep.env.process(writer())
        dep.env.run()
        return payloads

    def test_plan_diff_exactness_and_byte_identity(self):
        dep = small_deployment(seed=11)
        env = dep.env
        payloads = self.write_files(dep)
        agent = dep.own[0]

        # Predict the diff with the same plans the rebalance will use.
        old_map = dep.fs.policy
        new_map = old_map.reweighted(
            dep.placement_policy.with_fraction("own", 0.75).weights())
        want = max(dep.fs.replication, 1)
        expected_moves = 0
        metas = {}

        def stat_all():
            for path in sorted(payloads):
                metas[path] = yield from dep.fs.stat(agent, path)
        env.process(stat_all())
        env.run()
        for path, meta in metas.items():
            old_plan = old_map.plan_file(meta.inode, meta.n_stripes)
            new_plan = new_map.plan_file(meta.inode, meta.n_stripes)
            for idx in range(len(old_plan.keys)):
                oc, nc = (old_plan.chain(idx, k=want),
                          new_plan.chain(idx, k=want))
                expected_moves += len([t for t in nc if t not in oc])

        summaries = []

        def retune():
            s = yield from dep.manager.rebalance(new_map)
            summaries.append(s)
        env.process(retune())
        env.run()
        summary = summaries[0]
        assert summary["moved_stripes"] == expected_moves
        assert summary["moved_bytes"] == expected_moves * 4 * MB
        assert summary["freed_bytes"] == summary["moved_bytes"]
        assert summary["deferred_files"] == 0

        # Byte identity: every file reads back exactly as written.
        got = {}

        def reader():
            for path in sorted(payloads):
                _, data = yield from dep.fs.read_file(agent, path)
                got[path] = data
        env.process(reader())
        env.run()
        assert got == payloads

    def test_rebalance_respects_budget(self):
        dep = small_deployment(seed=12)
        env = dep.env
        self.write_files(dep)
        new_map = dep.fs.policy.reweighted(
            dep.placement_policy.with_fraction("own", 0.75).weights())
        summaries = []

        def retune():
            s = yield from dep.manager.rebalance(new_map,
                                                 budget_bytes=8 * MB)
            summaries.append(s)
        env.process(retune())
        env.run()
        assert summaries[0]["deferred_files"] > 0
        # The budget is checked per file, so the worst overshoot is one
        # whole file (12 MB) past the 8 MB allowance.
        assert summaries[0]["moved_bytes"] <= 20 * MB

    def test_dropped_copies_never_orphan_the_last_replica(self):
        """A retune whose copies cannot land anywhere (cluster at
        capacity) must keep the old-chain holders — deleting them after
        a failed copy loses the only replica (REVIEW high finding)."""
        dep = MemFSSDeployment(DeploymentConfig(
            n_own=2, n_victim=4, victim_memory=64 * MB,
            own_store_capacity=40 * MB, stripe_size=4 * MB,
            seed=21).with_alpha(0.25))
        env = dep.env
        agent = dep.own[0]
        payloads = {}

        def writer():
            # Fill until a stripe no longer fits anywhere: every store
            # is then below the admission threshold for one stripe.
            for i in range(200):
                payload = bytes([(i % 250) + 1]) * (4 * MB)
                try:
                    yield from dep.fs.write_file(agent, f"/f{i}",
                                                 payload=payload)
                except StoreError as exc:
                    assert exc.code is StoreErrorCode.FULL
                    break
                payloads[f"/f{i}"] = payload
        env.process(writer())
        env.run()
        assert payloads

        pressure_stats.reset()
        new_map = dep.fs.policy.reweighted(
            dep.placement_policy.with_fraction("own", 0.99).weights())
        summaries = []

        def retune():
            summaries.append((yield from dep.manager.rebalance(new_map)))
        env.process(retune())
        env.run()
        assert pressure_stats.evac_drops > 0     # the failure path ran

        # Every fully written file still reads back byte-identical
        # through the flipped metadata (full rank-chain walk).
        got = {}

        def reader():
            for path in sorted(payloads):
                _, data = yield from dep.fs.read_file(agent, path)
                got[path] = data
        env.process(reader())
        env.run()
        assert got == payloads

    def test_noop_rebalance_moves_nothing(self):
        dep = small_deployment(seed=13)
        env = dep.env
        self.write_files(dep, n=3)
        summaries = []

        def retune():
            s = yield from dep.manager.rebalance(dep.fs.policy)
            summaries.append(s)
        env.process(retune())
        env.run()
        assert summaries[0]["moved_stripes"] == 0
        assert summaries[0]["freed_bytes"] == 0


class TestScenario:
    def test_deterministic_payload(self):
        spec = market_spec(5, "controller", n_tasks=24, file_size=8 * MB,
                           compute_seconds=0.5, horizon=6.0, n_events=3)
        a = run_market(spec)
        b = run_market(spec)
        assert a == b

    def test_no_data_loss_and_trace(self):
        # epoch shorter than the makespan so the controller actually
        # clears a few rounds inside this scaled-down run.
        out = run_market(market_spec(5, "controller", n_tasks=24,
                                     file_size=8 * MB,
                                     compute_seconds=0.5, horizon=6.0,
                                     n_events=3, epoch=0.25))
        assert out["lost_files"] == []
        assert out["market"]["epochs"] > 0

    def test_calm_mode_has_no_market_activity(self):
        out = run_market(market_spec(5, "calm", n_tasks=12,
                                     file_size=8 * MB,
                                     compute_seconds=0.5))
        assert out["alpha_trace"] == []
        assert out["market"]["offers_published"] == 0
        assert out["lost_files"] == []


class TestMetricsRegistry:
    def test_groups_reset_independently(self):
        from repro.exec.stats import exec_stats
        from repro.metrics import metrics_registry
        market_stats.epochs = 7
        exec_stats.scenarios_run = 3
        metrics_registry.reset()            # scenario group only
        assert market_stats.epochs == 0
        assert exec_stats.scenarios_run == 3
        metrics_registry.reset(group="executor")
        assert exec_stats.scenarios_run == 0

    def test_snapshot_covers_market(self):
        from repro.metrics import metrics_registry
        snap = metrics_registry.snapshot()
        assert "market" in snap
        assert "pressure" in snap
        assert "exec" in snap
