"""Victim-class lifecycle: claiming leases, eviction, lazy migration, repair.

This module implements the dynamic side of §III: MemFSS "extends its
storage space by scavenging for memory in victim cluster reservations".
The :class:`ScavengingManager`

- claims :class:`~repro.cluster.reservation.ScavengeLease`\\ s from the
  reservation system's secondary queue,
- spins up a containerized store server per victim node (§III-F),
- registers the victim class in the placement policy with the weight that
  realizes the requested own-data fraction α (§III-B),
- watches every lease and, on revocation (tenant memory pressure, §III-A),
  **evacuates** the node: every stripe the store actually holds — found
  in its own key index, so copies a capacity spill pushed below the
  planned ranks move too — is copied to the node its replica chain
  gained, each file's recorded membership is updated, and the store is
  shut down.  Reads that race with an eviction still succeed because the
  read path already walks the rank chain (lazy movement, §V-C).

Evacuations are serialized through a FIFO lock: two concurrent
revocations that planned migrations independently could copy stripes onto
each other's dying node, or migrate the same stripe twice.  Each
revocation still leaves the placement policy *immediately* (new writes
stop landing on any dying node at revocation time); only the data drain
queues.

Drains, plan-diff retunes (:meth:`ScavengingManager.rebalance`) and
repairs are *planners* over one stripe mover (:class:`_StripeMover`):
they decide what moves where, and the mover walks the registry, reads
each stripe off the holders its source walk finds, puts the copies
under the capacity ledger (spilling down the chain for migrations,
through the repair budget for repairs), flips the file's metadata and
only then retires stale holders.  Landed-before-retire is enforced in
one place, :meth:`_StripeMover._retire`: it deletes the holders the
source walk actually found, and only for stripes whose every wanted copy
landed.

The :class:`RepairDaemon` closes the remaining gap — crashes, where the
data is simply gone: it periodically sweeps the registry, re-replicates
under-replicated stripes from surviving replicas (or reconstructs them
from parity), and rewrites stale membership snapshots.  Sweeps are
SLO-driven (DESIGN.md §15): the scan phase builds a repair queue ordered
most-critical-first (fewest surviving fragments per erasure group), the
drain phase restores copies through an optional repair-bandwidth budget
modeled as real contending flows, repair reads take a bounded
:class:`~repro.store.protocol.RetryPolicy`, and every degraded stripe
gets an MTTR window in :data:`~repro.faults.availability.avail_stats`.
Stripes whose every repair source is gone are recorded loudly as
:class:`~repro.faults.availability.DegradedStripe` in
:attr:`RepairDaemon.lost` instead of being skipped silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..cluster.container import Container, ResourceCaps
from ..cluster.node import Node
from ..cluster.reservation import ReservationSystem, ScavengeLease
from ..faults.availability import DegradedStripe, avail_stats
from ..faults.stats import fault_stats
from ..sim import Environment, FluidResource, Interrupt
from ..store import (NO_RETRY, AuthPolicy, RetryPolicy, StoreCostModel,
                     StoreError, StoreErrorCode, StoreServer)
from .capacity import pressure_stats, select_targets
from .erasure import group_layout, parity_key, xor_parity
from .memfss import FileNotFound, MemFSS
from .metadata import FileMeta, file_meta_key
from .placement import PlacementMap
from .striping import stripe_spans

__all__ = ["ScavengingManager", "RepairDaemon"]


class _FifoLock:
    """Event-based FIFO mutex for simulation processes."""

    def __init__(self, env: Environment):
        self.env = env
        self.locked = False
        self._waiters: list = []

    def acquire(self):
        """Generator: returns holding the lock, in arrival order."""
        if self.locked:
            gate = self.env.event()
            self._waiters.append(gate)
            yield gate
        else:
            self.locked = True

    def release(self) -> None:
        if self._waiters:
            # Hand the lock to the next waiter; it stays locked.
            self._waiters.pop(0).succeed()
        else:
            self.locked = False

    def hold(self, gen):
        """Generator: run *gen* holding the lock; returns its value."""
        yield from self.acquire()
        try:
            return (yield from gen)
        finally:
            self.release()


@dataclass(slots=True)
class _Stripe:
    """One stripe on the move: its bytes, the holders the source walk
    found (the first one served the read; none when rebuilt), where the
    mover landed the *wanted* copies, and the *stale* found holders
    :meth:`_StripeMover._retire` deletes once all of them landed."""

    key: object
    nbytes: float
    piece: bytes | None
    holders: list[str]
    wanted: int = 0
    landed: list[str] = field(default_factory=list)
    stale: list[str] = field(default_factory=list)


class _StripeMover:
    """The one copy → flip → retire path under every planner.

    Evacuation drains, plan-diff retunes and repair sweeps differ only in
    *what* moves *where*; walking the registry, reading a stripe, putting
    its copies, flipping metadata and deleting stale holders live here
    once.  Subclasses count a landed copy (``_landed(stripe, dest)``) and
    a dropped one (``_dropped()``), and may set a repair-bandwidth
    :attr:`pipe` and a source-read :attr:`retry`.
    """

    fs: MemFSS
    env: Environment
    pipe: FluidResource | None = None
    retry: RetryPolicy = NO_RETRY

    def _each_file(self, agent: Node, visit, skip=FileNotFound):
        """Generator: the registry walk — ``visit(path, meta)`` (a
        generator) for every file whose stat does not raise *skip*."""
        paths = yield from self.fs.list_all_files(agent)
        for path in paths:
            try:
                meta = yield from self.fs.stat(agent, path)
            except skip:
                continue
            yield from visit(path, meta)

    def _live_policy(self, policy: PlacementMap,
                     leaving=()) -> PlacementMap:
        """*policy* restricted to nodes that can receive data: up, and
        not in *leaving*."""
        servers = self.fs.servers
        return policy.without_nodes(
            {n for n in policy.all_nodes
             if n in leaving or n not in servers})

    def _rewrite_meta(self, client, path: str, meta: FileMeta,
                      members=None, weights=None, drop: str | None = None):
        """Generator: store *path*'s metadata with a new membership
        snapshot — *members*, or else the recorded one without *drop*
        and without dead nodes."""
        if members is None:
            members = {c: [m for m in ms if m != drop and m in self.fs.servers]
                       for c, ms in meta.class_members.items()}
        if weights is not None:
            meta.class_weights = dict(weights)
        meta.class_members = members
        key = file_meta_key(path)
        yield from client.put(self.fs._meta_server(key), key,
                              payload=meta.to_bytes())

    def _fetch(self, client, key, chain, *, skip=()):
        """Generator: the source walk — read *key* off the first live
        holder down *chain* (misses and dead stores fall through);
        returns a :class:`_Stripe`, or None."""
        for name in chain:
            server = self.fs.servers.get(name)
            if server is None or name in skip:
                continue
            try:
                nbytes, piece = yield from client.get(server, key,
                                                      retry=self.retry)
            except StoreError as exc:
                if not exc.code.fallthrough:
                    raise
                continue
            return _Stripe(key, nbytes, piece, [name])
        return None

    def _probe(self, client, key, chain, limit: int | None = None):
        """Generator: ask the live nodes down *chain* whether they hold
        *key* until *limit* holders are found; returns ``(holders,
        lacking)`` (an unreachable store counts as lacking)."""
        held: list[str] = []
        lacking: list[str] = []
        for name in chain:
            if limit is not None and len(held) >= limit:
                break
            server = self.fs.servers.get(name)
            if server is None:
                continue
            try:
                has = yield from client.exists(server, key, retry=self.retry)
            except StoreError as exc:
                if not exc.code.fallthrough:
                    raise
                has = False
            (held if has else lacking).append(name)
        return held, lacking

    def _budgeted(self, nbytes, gen):
        """Generator: run *gen* while *nbytes* drain through :attr:`pipe`,
        raced like the FUSE pipe so repair traffic contends for real."""
        if self.pipe is None or not nbytes or nbytes <= 0:
            return (yield from gen)
        inner = self.env.process(gen)
        flow = self.pipe.submit(float(nbytes), label="repair")
        try:
            yield self.env.all_of([flow.done, inner])
        except BaseException:
            self.pipe.remove(flow)
            if inner.is_alive:
                inner.interrupt()
            raise
        return inner.value

    def _move(self, client, stripe: _Stripe, targets, *, spill=None,
              exclude=()):
        """Generator: put *stripe* on every node of *targets* through the
        capacity ledger, recording the outcome on it; returns *stripe*.

        A target that cannot admit the copy spills to the first admitting
        node of the chain ``spill()`` returns (§III-E) that holds no copy
        yet — not a found holder, in *exclude*, a target or landed on.
        Without *spill* (repair) or an admitting node the copy is
        dropped, as is one a store rejects with ``FULL``.
        """
        fs, nbytes, piece = self.fs, stripe.nbytes, stripe.piece
        stripe.wanted = len(targets)
        taken = {*stripe.holders, *exclude, *targets}
        for dest in targets:
            if spill is None and dest not in fs.servers:
                continue        # died since the scan; next sweep re-plans
            if not fs.ledger.admits(dest, nbytes):
                picked, distance, _short = select_targets(
                    spill(), nbytes, 1, fs.ledger.usable, exclude=taken) \
                    if spill is not None else ([], 0, 1)
                if not picked:
                    self._dropped()
                    continue
                pressure_stats.evac_spills += 1
                pressure_stats.spill_distance += distance
                dest = picked[0]
            try:
                yield from self._budgeted(nbytes, client.put(
                    fs.servers[dest], stripe.key,
                    nbytes=None if piece is not None else nbytes,
                    payload=piece))
            except StoreError as exc:
                if exc.code is not StoreErrorCode.FULL:
                    raise
                self._dropped()
                continue
            stripe.landed.append(dest)
            taken.add(dest)
            self._landed(stripe, dest)
        return stripe

    def _retire(self, client, moved):
        """Generator: delete the stale holders of every *moved* stripe
        whose wanted copies **all** landed; returns the bytes released.
        A dropped copy keeps the old holders: reads still find the data."""
        freed = 0.0
        for stripe in moved:
            if len(stripe.landed) < stripe.wanted:
                continue
            for holder in stripe.stale:
                server = self.fs.servers.get(holder)
                if server is None:
                    continue
                try:
                    freed += yield from client.delete(server, stripe.key,
                                                      retry=NO_RETRY)
                except StoreError as exc:
                    if not exc.code.fallthrough:
                        raise
        return freed


class ScavengingManager(_StripeMover):
    """Manages victim classes of one MemFSS deployment."""

    def __init__(self, env: Environment, fs: MemFSS,
                 reservations: ReservationSystem, *,
                 auth: AuthPolicy | None = None,
                 costs: StoreCostModel | None = None,
                 caps: ResourceCaps | None = None):
        self.env = env
        self.fs = fs
        self.reservations = reservations
        self.auth = auth
        # Per-instance default: a shared StoreCostModel instance would
        # alias mutable tuning across every manager in the process.
        self.costs = costs if costs is not None else StoreCostModel()
        self.caps = caps
        self.leases: dict[str, ScavengeLease] = {}
        self.evictions = 0
        self.migrated_bytes = 0.0
        #: ``(key, source, target)`` of every migrated stripe, in order.
        self.moved_keys: list[tuple] = []
        self._evacuating: set[str] = set()
        self._evac_lock = _FifoLock(env)

    def _landed(self, stripe: _Stripe, dest: str) -> None:
        self.moved_keys.append((stripe.key, stripe.holders[0], dest))
        self.migrated_bytes += stripe.nbytes

    def _dropped(self) -> None:
        # No live store could take the copy.  A retune keeps the old
        # holder; a drain leaves the copy behind for the repair daemon
        # to restore once pressure eases, rather than failing.
        pressure_stats.evac_drops += 1

    # -- acquiring victims ----------------------------------------------------------
    def scavenge(self, nodes: list[Node], memory_per_node: float,
                 weight: float, class_name: str = "victim",
                 watch: bool = True) -> list[StoreServer]:
        """Claim leases on *nodes* and add them as a placement class.

        *weight* is the HRW class weight (see
        :func:`repro.hashing.weights.own_victim_weights`).  With *watch*
        true a watcher process evacuates each node when its lease is
        revoked.
        """
        if not nodes:
            raise ValueError("need at least one victim node")
        servers = [self._claim(node, memory_per_node,
                               self._watch if watch else None)
                   for node in nodes]
        self.fs.policy = PlacementMap.intern(self.fs.policy.with_class(
            class_name, weight, tuple(n.name for n in nodes)))
        return servers

    def scavenge_node(self, node: Node, memory: float,
                      class_name: str = "victim",
                      weight: float | None = None,
                      watch: bool = True,
                      drain_on_notice: bool = False) -> StoreServer:
        """Claim a lease on a *single* node and grow *class_name* by it.

        The market admission path: leases clear one at a time, so the
        class accretes node by node instead of being rebuilt wholesale.
        *weight* defaults to the class's current weight (required when the
        class does not exist yet); reweighting after growth is the
        controller's job (:meth:`rebalance`).
        """
        if weight is None:
            spec = self.fs.policy.classes.get(class_name)
            if spec is None:
                raise ValueError(f"class {class_name!r} not in the policy "
                                 f"yet; pass an explicit weight")
            weight = spec.weight
        watcher = None
        if watch:
            watcher = self._watch_notice if drain_on_notice else self._watch
        server = self._claim(node, memory, watcher)
        current = self.fs.policy.classes.get(class_name)
        members = (current.nodes if current is not None else ()) \
            + (node.name,)
        self.fs.policy = PlacementMap.intern(self.fs.policy.with_class(
            class_name, weight, members))
        return server

    def _claim(self, node: Node, memory: float, watcher) -> StoreServer:
        """Lease *node*, start its containerized store and, with a
        *watcher*, the process that drains it on revocation."""
        lease = self.reservations.lease(node, memory, holder="memfss")
        caps = self.caps or ResourceCaps(memory=memory)
        container = Container(node, f"memfss@{node.name}", caps)
        server = StoreServer(self.env, node, self.fs.fabric,
                             capacity=memory, name=f"scv@{node.name}",
                             auth=self.auth, container=container,
                             costs=self.costs)
        self.fs.servers[node.name] = server
        self.leases[node.name] = lease
        if lease.offer.owner:
            self.fs.domains[node.name] = lease.offer.owner
        if watcher is not None:
            self.env.process(watcher(lease, node),
                             name=f"scavenge-watch@{node.name}")
        return server

    def _watch(self, lease: ScavengeLease, node: Node):
        yield lease.revoked
        yield from self.evacuate(node)

    def _watch_notice(self, lease: ScavengeLease, node: Node):
        """Market watcher: start draining at the revocation *notice*, so
        the drain window is actually used (waiting for the revocation
        itself would waste the notice period)."""
        yield self.env.any_of([lease.notified, lease.revoked])
        yield from self.evacuate(node)

    # -- eviction --------------------------------------------------------------------
    def evacuate(self, node: Node):
        """Generator: move this node's stripes away, then leave the node.

        New files immediately stop using the node (policy update first);
        existing stripes are copied to the next live node in their
        *recorded* rank chain and each file's membership snapshot is
        rewritten so later reads go straight to the right place.
        Concurrent evacuations queue on a FIFO lock, but all of them
        leave the policy before the first one starts copying.
        """
        name = node.name
        server = self.fs.servers.get(name)
        if server is None or name in self._evacuating:
            return 0.0
        self._evacuating.add(name)
        self.evictions += 1
        fault_stats.evacuations += 1
        # 1. Stop placing new data on the node (before queueing).
        if name in self.fs.policy.all_nodes:
            self.fs.policy = self.fs.policy.without_nodes((name,))
        try:
            moved = yield from self._evac_lock.hold(self._drain(node, server))
        finally:
            self._evacuating.discard(name)
        fault_stats.record_recovery(name, self.env.now)
        return moved

    def _drain(self, node: Node, server: StoreServer):
        """Generator: plan where every stripe *node* holds goes, move it,
        rewrite the membership snapshots, then shut the store down."""
        name = node.name
        agent = self.fs.own_nodes[0]
        client = self.fs.client(agent)
        before = self.migrated_bytes

        def visit(path, meta):
            if not any(name in members
                       for members in meta.class_members.values()):
                return
            # Both policies are interned, so every file written under the
            # same snapshot shares one vectorized plan for the old and the
            # post-eviction placement instead of re-ranking per stripe.
            old_plan = self.fs._plan_for(meta)
            new_plan = self._live_policy(
                old_plan.policy, self._evacuating).plan_file(
                    meta.inode, meta.n_stripes, erasure=meta.erasure)
            new_asg = self.fs._coded_for(meta, new_plan)
            want = max(meta.replication, 1)
            for idx in range(len(old_plan.keys)):
                key = old_plan.keys[idx]
                # What the node holds is its own key index (a local
                # lookup, like the free-space peek), not the plan: a
                # capacity spill may have put a copy anywhere on the chain.
                # A crash mid-drain empties it; the repair daemon
                # re-replicates what a dead store took down.
                if not server.kv.contains(key):
                    continue
                stripe = yield from self._fetch(client, key, [name])
                if stripe is None:
                    continue
                old_chain = old_plan.chain(idx, k=want)
                new_chain = new_plan.chain(idx, k=want)
                exclude: list[str] = []
                if new_asg is not None:
                    # A coded fragment relocates to its *new* CodingSets
                    # target, so the anti-affinity survives the eviction.
                    targets = [new_asg.targets[idx]]
                elif name in old_chain:
                    # The copy goes to the node the top ranks gained; the
                    # other ranks keep theirs.
                    targets = [t for t in new_chain
                               if t not in old_chain][:1]
                    exclude = old_chain
                else:
                    # A spilled copy stands in for a top rank lacking it.
                    exclude, lacking = yield from self._probe(
                        client, key, new_chain)
                    targets = lacking[:1]
                yield from self._move(client, stripe, targets,
                                      spill=partial(new_plan.chain, idx),
                                      exclude=exclude)
            # Drop this node and any node that died since the file was
            # written from the membership snapshot.
            yield from self._rewrite_meta(client, path, meta, drop=name)

        yield from self._each_file(agent, visit, skip=Exception)
        # Free the node's memory and deregister the server.
        server.shutdown()
        self.fs.servers.pop(name, None)
        self.fs.domains.pop(name, None)
        self.leases.pop(name, None)
        return self.migrated_bytes - before

    # -- live retuning ----------------------------------------------------------------
    def rebalance(self, new_map: PlacementMap,
                  budget_bytes: float | None = None):
        """Generator: move the system onto *new_map*, migrating **only**
        the stripes whose placement changed between the old and new
        :class:`~repro.fs.placement.StripePlan` (the market controller's
        epoch step).

        Per file, three phases keep concurrent reads safe:

        1. copy every stripe whose replica chain gained a node to its new
           location (spilling down the new chain under the capacity
           guard),
        2. rewrite the file's membership snapshot to the new placement,
        3. only then delete the copies stranded on nodes the chain left,
           and only for stripes whose new copies **all landed** — a
           dropped copy (capacity pressure) keeps the old holder, so a
           read always finds data wherever its metadata (old or new)
           points it.

        *budget_bytes* is the per-call migration allowance (the repair
        bandwidth the epoch may spend): files beyond the budget keep
        their old placement and are reported as deferred, to be picked up
        by the next epoch.  New writes follow *new_map* immediately —
        the policy flips before the drain queues on the evacuation lock.
        """
        target_map = PlacementMap.intern(new_map)
        self.fs.policy = target_map
        return (yield from self._evac_lock.hold(
            self._rebalance_locked(target_map, budget_bytes)))

    def _rebalance_locked(self, target_map: PlacementMap,
                          budget_bytes: float | None):
        agent = self.fs.own_nodes[0]
        client = self.fs.client(agent)
        live_new = self._live_policy(target_map, self._evacuating)
        new_weights, new_members = live_new.snapshot()
        summary = {"moved_bytes": 0.0, "moved_stripes": 0,
                   "freed_bytes": 0.0, "files_touched": 0,
                   "deferred_files": 0, "unsourced": 0}

        def visit(path, meta):
            old_policy = PlacementMap.from_meta(meta)
            if old_policy.snapshot() == live_new.snapshot():
                return
            if budget_bytes is not None and \
                    summary["moved_bytes"] >= budget_bytes:
                summary["deferred_files"] += 1
                return
            old_plan = old_policy.plan_file(meta.inode, meta.n_stripes,
                                            erasure=meta.erasure)
            new_plan = live_new.plan_file(meta.inode, meta.n_stripes,
                                          erasure=meta.erasure)
            want = max(meta.replication, 1)
            moved: list[_Stripe] = []
            for idx in range(len(old_plan.keys)):
                key = old_plan.keys[idx]
                new_chain = new_plan.chain(idx, k=want)
                if set(old_plan.chain(idx, k=want)) == set(new_chain):
                    continue
                # Source walk down the *recorded* rank chain: read the
                # first holder, then locate the rest, so copies an earlier
                # spill left below the top ranks move and retire too.
                chain = old_plan.chain(idx)
                stripe = yield from self._fetch(client, key, chain)
                if stripe is None:
                    # Nothing to copy from (crash ate every replica); the
                    # repair daemon owns reconstruction, not the retune.
                    summary["unsourced"] += 1
                    continue
                rest = chain[chain.index(stripe.holders[0]) + 1:]
                stripe.holders += (yield from self._probe(
                    client, key, rest, want - 1))[0]
                stripe.stale = [h for h in stripe.holders
                                if h not in new_chain]
                yield from self._move(
                    client, stripe,
                    [t for t in new_chain if t not in stripe.holders],
                    spill=partial(new_plan.chain, idx))
                summary["moved_bytes"] += stripe.nbytes * len(stripe.landed)
                summary["moved_stripes"] += len(stripe.landed)
                moved.append(stripe)
            # The snapshot flips to the new placement, and only then do
            # the stranded copies go away.
            yield from self._rewrite_meta(
                client, path, meta,
                {c: list(m) for c, m in new_members.items()},
                weights=new_weights)
            summary["freed_bytes"] += yield from self._retire(client, moved)
            summary["files_touched"] += 1

        yield from self._each_file(agent, visit, skip=Exception)
        return summary

    def withdraw(self, node: Node):
        """Generator: voluntarily leave a node (same path as eviction)."""
        lease = self.leases.get(node.name)
        if lease is not None and lease.active:
            lease.revoke("withdrawn")
            # The watcher (if any) will also wake; evacuation is idempotent
            # because the server disappears from fs.servers.
        return (yield from self.evacuate(node))

    # -- crashes ---------------------------------------------------------------------
    def handle_crash(self, name: str) -> None:
        """A store node died without warning.

        Unlike a revocation there is nothing to drain — the bytes are
        gone.  Drop the node from the policy and the server map so reads
        fall through its rank chain, and leave re-replication to the
        :class:`RepairDaemon`.
        """
        self.fs.servers.pop(name, None)
        self.fs.domains.pop(name, None)
        if name in self.fs.policy.all_nodes:
            self.fs.policy = self.fs.policy.without_nodes((name,))
        lease = self.leases.pop(name, None)
        if lease is not None and lease.active:
            # Wakes the watcher; its evacuate() no-ops (no server left).
            lease.revoke("crashed")


@dataclass(slots=True)
class _RepairTask:
    """One under-replicated fragment queued for repair."""

    path: str
    meta: FileMeta
    plan: object
    idx: int
    key: object
    missing: list[str]
    survivors: int
    nbytes_hint: float
    parity: tuple | None  # (first, count, plen) for parity indices


class RepairDaemon(_StripeMover):
    """SLO-driven re-replication restoring stripe redundancy.

    Each sweep runs two phases under the manager's evacuation lock (so
    repair never races a drain over the same metadata):

    **Scan** walks the file registry and probes every stripe (and parity
    block) against its wanted location under the *live* membership — the
    CodingSets-assigned target for coded files, the replica chain
    otherwise.  Every missing copy becomes a :class:`_RepairTask` tagged
    with how many fragments of its erasure group still survive, and opens
    (or extends) an MTTR window in
    :data:`~repro.faults.availability.avail_stats`.

    **Drain** repairs the queue most-critical-first (fewest survivors —
    the stripes one more loss would destroy).  Restored bytes optionally
    contend through a repair-bandwidth budget (*bandwidth*, a
    :class:`~repro.sim.FluidResource` pipe raced against the store
    transfer exactly like the FUSE pipe in
    :meth:`~repro.fs.memfss.MemFSS._through_fuse`), repair reads use a
    bounded *retry* policy, and a stripe restored to full strength closes
    its MTTR window.  A stripe with **no** surviving source anywhere is
    recorded loudly in :attr:`lost` as a
    :class:`~repro.faults.availability.DegradedStripe`.

    With ``bandwidth=None`` and ``retry=None`` (the defaults) the sweep
    is event-for-event identical to the historical best-effort daemon —
    the same probes, reads and puts in the same order when nothing is
    degraded — so existing recovery benchmarks are unperturbed.
    """

    def __init__(self, env: Environment, fs: MemFSS, *,
                 manager: ScavengingManager | None = None,
                 interval: float = 0.25, agent: Node | None = None,
                 bandwidth: float | None = None,
                 retry: RetryPolicy | None = None):
        self.env = env
        self.fs = fs
        self.manager = manager
        self.interval = float(interval)
        self.agent = agent if agent is not None else fs.own_nodes[0]
        #: Unrepairable losses seen by the last sweep (second losses).
        self.deficits = 0
        #: Bounded retry for repair reads; NO_RETRY keeps the historical
        #: single-shot probe behaviour.
        self.retry = retry if retry is not None else NO_RETRY
        #: Repair-bandwidth budget: restored bytes flow through this pipe
        #: and contend with each other (None = unmetered).
        self.pipe = (FluidResource(env, float(bandwidth),
                                   name="repair-budget")
                     if bandwidth else None)
        #: Loud record of stripes whose every repair source is gone.
        self.lost: list[DegradedStripe] = []
        self._lost_keys: set = set()
        #: Per-repair event log: dicts with time/path/key/action.
        self.timeline: list[dict] = []
        self._proc = None

    def _landed(self, stripe: _Stripe, dest: str) -> None:
        fault_stats.stripes_repaired += 1
        fault_stats.repaired_bytes += float(stripe.nbytes)

    def _dropped(self) -> None:
        # The rank that should hold the copy is full; the deficit keeps
        # the fault open and a later sweep retries once pressure eases.
        pressure_stats.repair_skips += 1
        avail_stats.repair_skips += 1

    # -- lifecycle -------------------------------------------------------------------
    def start(self):
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(), name="repair-daemon")
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("repair daemon stopped")

    def _run(self):
        try:
            while True:
                yield self.env.timeout(self.interval)
                yield from self.sweep()
        except Interrupt:
            return

    # -- one pass --------------------------------------------------------------------
    def sweep(self):
        """Generator: one full repair pass; returns copies restored."""
        fault_stats.repair_scans += 1
        locked = self._sweep_locked()
        if self.manager is not None:
            locked = self.manager._evac_lock.hold(locked)
        repaired = yield from locked
        if self.deficits == 0:
            # Full redundancy everywhere: whatever faults were open are
            # recovered as of now.
            fault_stats.resolve_open(self.env.now)
        return repaired

    def _sweep_locked(self):
        client = self.fs.client(self.agent)
        self.deficits = 0
        tasks: list[_RepairTask] = []
        stale: list[tuple[str, FileMeta]] = []
        yield from self._each_file(
            self.agent,
            lambda path, meta: self._scan_file(client, meta, path, tasks,
                                               stale))
        # The SLO queue: most-critical-first.  A stripe whose erasure
        # group has the fewest surviving fragments is the one a further
        # loss would destroy, so it repairs before healthier peers.
        tasks.sort(key=lambda t: (t.survivors, t.path, t.idx))
        now = self.env.now
        backlog = 0.0
        for t in tasks:
            if avail_stats.open_window((t.path, tuple(t.key)), now):
                avail_stats.fragments_lost += len(t.missing)
            backlog += t.nbytes_hint * len(t.missing)
        avail_stats.repair_backlog_bytes = backlog
        repaired = 0
        for t in tasks:
            fixed = yield from self._repair_task(client, t)
            repaired += fixed
            backlog = max(0.0, backlog - t.nbytes_hint * fixed)
            avail_stats.repair_backlog_bytes = backlog
        # Files whose recorded membership references dead nodes get their
        # snapshot rewritten so later reads place directly onto live nodes.
        for path, meta in stale:
            yield from self._rewrite_meta(client, path, meta)
        return repaired

    # -- scan phase ------------------------------------------------------------------
    def _scan_file(self, client, meta: FileMeta, path: str,
                   tasks: list, stale: list):
        """Generator: probe one file's fragments, queueing repair tasks."""
        old_policy = PlacementMap.from_meta(meta)
        dead = any(n not in self.fs.servers for n in old_policy.all_nodes)
        plan = self._live_policy(old_policy).plan_file(
            meta.inode, meta.n_stripes, erasure=meta.erasure)
        asg = self.fs._coded_for(meta, plan)
        want = max(meta.replication, 1)
        spans = stripe_spans(meta.size, meta.stripe_size)
        # Parity blocks cannot be copied from a replica when lost, but
        # they can be recomputed from their group's surviving data.
        parity_info: dict[int, tuple[int, int, int]] = {}
        group_of: dict[int, list[int]] = {}
        if meta.erasure is not None:
            k, m = meta.erasure
            for gi, (first, count) in enumerate(
                    group_layout(meta.n_stripes, k)):
                plen = max((spans[i].length
                            for i in range(first, first + count)),
                           default=0)
                pidxs = [plan.index_of(parity_key(meta.inode, gi, j))
                         for j in range(m)]
                idxs = list(range(first, first + count)) + pidxs
                for i in idxs:
                    group_of[i] = idxs
                    if i in pidxs:
                        parity_info[i] = (first, count, plen)
        whole: dict[int, bool] = {}
        missing_map: dict[int, list[str]] = {}
        for idx in range(len(plan.keys)):
            targets = [asg.targets[idx]] if asg is not None \
                else plan.chain(idx, k=want)
            held, missing = yield from self._probe(client, plan.keys[idx],
                                                   targets)
            whole[idx] = bool(held) and not missing
            if missing:
                missing_map[idx] = missing
        for idx, missing in missing_map.items():
            if idx in parity_info:
                hint = float(parity_info[idx][2])
            else:
                hint = float(spans[idx].length) if idx < len(spans) else 0.0
            if meta.erasure is not None:
                survivors = sum(1 for i in group_of[idx] if whole.get(i))
            else:
                survivors = want - len(missing)
            tasks.append(_RepairTask(path, meta, plan, idx,
                                     plan.keys[idx], missing, survivors,
                                     hint, parity_info.get(idx)))
        if dead:
            stale.append((path, meta))

    # -- drain phase -----------------------------------------------------------------
    def _record_lost(self, t: _RepairTask) -> None:
        lk = (t.path, tuple(t.key))
        if lk in self._lost_keys:
            return
        self._lost_keys.add(lk)
        avail_stats.stripes_lost += 1
        self.lost.append(DegradedStripe(
            path=t.path, key=tuple(t.key), reason="all-sources-lost",
            detail=(f"{len(t.missing)} wanted copies missing; no live "
                    f"holder and reconstruction failed "
                    f"({t.survivors} group fragments survived the scan)"),
            at=self.env.now))
        self.timeline.append({"t": self.env.now, "path": t.path,
                              "key": list(t.key), "action": "lost",
                              "survivors": t.survivors})

    def _repair_task(self, client, t: _RepairTask):
        """Generator: restore one fragment's missing copies; returns how
        many landed."""
        retries_before = fault_stats.retries
        # Source: any live holder anywhere in the full rank chain (finds
        # copies left behind by earlier spills too).
        stripe = yield from self._fetch(client, t.key, t.plan.chain(t.idx),
                                        skip=t.missing)
        if stripe is None and t.meta.erasure is not None \
                and t.idx < t.meta.n_stripes:
            try:
                nbytes, piece = yield from self.fs._reconstruct_stripe(
                    client, t.plan, t.meta, t.idx)
                stripe = _Stripe(t.key, nbytes, piece, [])
            except FileNotFound:
                pass
        if stripe is None and t.parity is not None:
            first, count, plen = t.parity
            group: list | None = []
            for sib in range(first, first + count):
                try:
                    _nb, p = yield from self.fs._fetch_any(
                        client, t.plan, sib, meta=t.meta)
                except FileNotFound:
                    group = None
                    break
                group.append(p)
            if group is not None:
                piece = (xor_parity(group)
                         if all(p is not None for p in group) else None)
                stripe = _Stripe(t.key, float(plen), piece, [])
        avail_stats.repair_retries += fault_stats.retries - retries_before
        if stripe is None:
            self.deficits += 1
            self._record_lost(t)
            return 0
        fixed = len((yield from self._move(client, stripe, t.missing)).landed)
        self.deficits += len(t.missing) - fixed
        if fixed and fixed == len(t.missing):
            avail_stats.repairs_completed += 1
            avail_stats.close_window((t.path, tuple(t.key)), self.env.now)
            self.timeline.append({"t": self.env.now, "path": t.path,
                                  "key": list(t.key), "action": "repaired",
                                  "survivors": t.survivors,
                                  "copies": fixed,
                                  "bytes": float(stripe.nbytes) * fixed})
        return fixed
