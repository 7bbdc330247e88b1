"""Network-wide max-min fair flow model.

The DAS-5 fabric the paper runs on is FDR InfiniBand with (approximately)
full bisection bandwidth, so the only constrained elements are the node
NICs.  We model the network as a set of directed :class:`Link` capacities
(per node: NIC egress and ingress, an IPoIB pair and a loopback, created
by the cluster layer); a :class:`NetFlow` crosses its source's egress
link and its destination's ingress link, and the classic **progressive-filling** algorithm computes the
global max-min fair rate vector every time the flow set changes.

Progressive filling: raise all unfixed flow rates at the same speed; when a
link saturates (or a flow reaches its own rate cap) freeze the flows on it;
repeat with the survivors.  The result is the unique max-min fair
allocation, which is the standard fluid approximation for TCP/IB fabric
sharing and the mechanism behind every bandwidth-contention number in the
paper (victim NIC load in Fig. 2, TeraSort shuffle slowdown in Fig. 4, ...).

Solver architecture (DESIGN.md §8 and §11)
------------------------------------------
Max-min fairness is *separable* across connected components of the
flow–link graph: a stripe write to one victim NIC cannot change rates on a
node pair it shares no link with.  :class:`FlowNetwork` exploits that two
ways:

- **Component-aware incremental solving** — an adjacency map (link → flows
  crossing it) lets a change mark only the links it touches *dirty*; the
  solve walks the dirty links' connected components and re-runs progressive
  filling on those components only, while untouched components keep their
  rates.  The full recompute is retained as the ``"reference"`` solver mode
  (and :func:`progressive_fill` stays available as a standalone oracle).
- **Batched rebalancing** — mutations (``transfer`` / ``remove`` /
  ``set_capacity``) do not solve synchronously.  They mark dirty state and
  the solve is *coalesced*: once per simulated instant via a zero-delay
  guard callback, or per explicit :meth:`FlowNetwork.batch` block.  Reading
  any rate (``flow.rate``, ``link.used_rate``, ``net.flows``) flushes
  first, so results are indistinguishable from solving eagerly — the m
  per-stripe transfers a MemFSS write fan-out issues at one timestamp cost
  one solve instead of m.

Flows carry their own state (DESIGN.md §11): a :class:`NetFlow` holds
its ``remaining``, rate and cap as Python floats on the flow base it
shares with :class:`~repro.sim.fluid.Flow`, and :class:`FlowNetwork`
shares :class:`~repro.sim.fluid.FluidResource`'s completion loop
(finish drained flows, solve, take the horizon, arm one wakeup).  The
network's attached flows sit in ``_live`` in creation order, so settle
and flush cost scales with the live population.  Per-link numbers
(capacity, used rate, busy integral) are Python floats in lists owned by
the network and indexed by link slot; a link's class-byte row is created
when the first labelled flow crosses it.  Every link is one
:class:`Link` handle over its slot, made by :meth:`FlowNetwork.add_link`
and bound to that network (DESIGN.md §13); a flow keeps the Link tuple
it was given and walks its slots.  Settle advances busy integrals only on
*loaded* links, the ones some attached flow crosses: every other link's
used rate is 0.0.  Every order-sensitive float reduction (class-byte
accumulation, per-link used-rate sums) runs in *creation order*,
keeping trajectories bit-identical (see the summation invariant in
DESIGN.md §11).

A dirty link no flow crosses is its own component: the solve zeroes its
used rate without walking or filling.  ``_fill_vec`` fills a one-flow
component on distinct links in closed form (the single round of the
loop: the minimum capacity, then the cap), and a component of at most
``_SCALAR_MAX`` flows as Python loops over dicts keyed by link slot:
most fills cover two flows or fewer, where numpy's per-call overhead
would be most of the cost.  Larger components run as numpy array ops.
All branches apply the same IEEE-754 operations to the same operands
(min-reductions are exact in any order, used-rate sums run in creation
order), so they agree bit for bit.

Process-wide :data:`flownet_stats` counters expose solves, rounds and
flows/links touched; ``tests/sim/test_solver_budgets.py`` gates them.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from itertools import chain
from operator import attrgetter
from typing import Iterable

import numpy as np

from ..counters import Counters
from .fluid import _EPS, _FlowBase, _FlowOwner
from .kernel import Environment, SimulationError

__all__ = ["Link", "NetFlow", "FlowNetwork", "progressive_fill",
           "FlowNetStats", "flownet_stats"]

#: At or below this many flows in a component, _fill_vec runs Python
#: scalar loops; above it, numpy array ops.
_SCALAR_MAX = 32


class FlowNetStats(Counters):
    """Process-wide solver counters (one :class:`~repro.counters.Counters`).

    Cumulative; reset per experiment run.  ``solves`` counts coalesced
    flush/solve passes, ``full_solves`` the ones done in ``"reference"``
    mode, ``rounds`` progressive-filling iterations, ``flows_touched`` /
    ``links_touched`` the component sizes actually re-solved, and
    ``batch_coalesced`` the mutations that shared a solve with an earlier
    one instead of paying their own.  ``stalemates`` counts the
    numerical-stalemate exits of progressive filling (also warned once
    per process — a stalemate means rates are only near-fair).
    """

    _COUNTERS = ("solves", "full_solves", "rounds", "flows_touched",
                 "links_touched", "batch_coalesced", "stalemates")
    __slots__ = _COUNTERS + ("_stalemate_warned",)
    _CAST = int

    def reset(self) -> None:
        super().reset()
        self._stalemate_warned = False

    def record_stalemate(self) -> None:
        self.stalemates += 1
        if not self._stalemate_warned:
            self._stalemate_warned = True
            warnings.warn(
                "progressive_fill hit a numerical stalemate: no flow fixed "
                "this round; accepting near-fair rates (counted in "
                "flownet_stats.stalemates)", RuntimeWarning, stacklevel=3)


#: Shared instance imported by the registry (as ``solver``) and benchmarks.
flownet_stats = FlowNetStats()


class Link:
    """A directed capacity (one NIC direction, or any shared pipe).

    A handle bound to the :class:`FlowNetwork` that made it
    (:meth:`FlowNetwork.add_link` is the only constructor): it holds its
    name, network and slot, and reads everything else from the network's
    per-link lists.

    ``class_bytes`` accumulates, per label prefix (the part of a flow's
    label before the first ``:``), the bytes that traffic class has moved
    through the link — how the tenant models measure the scavenging
    store's average pressure over a window without burst aliasing.
    """

    __slots__ = ("name", "_net", "_slot")

    def __init__(self, name: str, net: "FlowNetwork", slot: int):
        self.name = name
        self._net = net
        self._slot = slot

    @property
    def capacity(self) -> float:
        return self._net._l_cap[self._slot]

    @property
    def _used_rate(self) -> float:
        return self._net._l_used[self._slot]

    @_used_rate.setter
    def _used_rate(self, value: float) -> None:
        self._net._l_used[self._slot] = float(value)

    @property
    def class_bytes(self) -> dict[str, float]:
        """Per-class byte totals (materialized from the accumulator)."""
        net = self._net
        row = net._class_acc[self._slot]
        if row is None:
            return {}
        return {p: v for p, v in zip(net._prefixes, row) if v != 0.0}

    def class_bytes_of(self, prefix: str) -> float:
        """``class_bytes.get(prefix, 0.0)`` without building the dict."""
        net = self._net
        row = net._class_acc[self._slot]
        idx = net._prefix_idx.get(prefix)
        if row is None or idx is None or idx >= len(row):
            return 0.0
        return row[idx]

    @property
    def used_rate(self) -> float:
        """Instantaneous allocated rate (flushes a pending batched solve)."""
        net = self._net
        if net._pending:
            net._flush()
        return self._used_rate

    @used_rate.setter
    def used_rate(self, value: float) -> None:
        self._used_rate = value

    @property
    def utilization(self) -> float:
        return self.used_rate / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self._used_rate:.3g}/{self.capacity:.3g}>"


class NetFlow(_FlowBase):
    """A transfer crossing one or more links.

    ``links`` is the :class:`Link` tuple the flow was given; ``_lslots``
    holds the same path as link slots, the form the solve and settle
    loops walk.  A flow made outside a network (the equivalence suite's
    oracle clones) crosses links of a second network and is filled by
    :func:`progressive_fill` alone.
    """

    __slots__ = ("class_prefix", "links", "_net", "_seq", "_lslots",
                 "_pidx")

    def __init__(self, env: Environment, links: tuple[Link, ...],
                 work: float | None, cap: float, label: str,
                 net: "FlowNetwork | None" = None):
        super().__init__(env, work, cap, label)
        self.links = links
        self._lslots = tuple([l._slot for l in links])
        # Interned once here instead of a str.partition per flow per
        # settle (the class prefix feeds Link.class_bytes accounting).
        prefix, sep, _rest = label.partition(":")
        self.class_prefix: str | None = prefix if sep else None
        self._net = net
        self._seq = 0  # creation order within a FlowNetwork (see _solve)
        self._pidx = -1  # interned class_prefix index while attached

    @property
    def rate(self) -> float:
        """Current max-min fair rate (flushes a pending batched solve)."""
        net = self._net
        if net is not None and net._pending:
            net._flush()
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        self._rate = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "->".join(l.name for l in self.links)
        return f"<NetFlow {self.label or path} remaining={self.remaining:.3g}>"


def progressive_fill(flows: list[NetFlow], links: Iterable[Link]) -> None:
    """Set ``flow.rate`` for every flow to the max-min fair allocation.

    The standalone oracle: one coupled fill over everything it is given,
    exactly the classic dict-based algorithm, deliberately left
    unvectorized — it is both the equivalence-suite ground truth and the
    full-recompute path of the ``"reference"`` solver mode, which the
    Fig. 2 golden test and the equivalence tests compare against.
    :class:`FlowNetwork` instead fills each connected component
    separately (identical allocation — max-min fairness is separable
    across components) so that incremental and full solves agree bit for
    bit on the tracked scenarios.
    """
    for f in flows:
        f.rate = 0.0
    if not flows:
        for l in links:
            l.used_rate = 0.0
        return
    avail = {l: l.capacity for l in links}
    unfixed = set(flows)
    # Count unfixed flows per link once per round.
    guard = len(flows) + len(avail) + 2
    while unfixed and guard > 0:
        guard -= 1
        flownet_stats.rounds += 1
        counts: dict[Link, int] = {}
        for f in unfixed:
            for l in f.links:
                counts[l] = counts.get(l, 0) + 1
        delta = math.inf
        for l, n in counts.items():
            delta = min(delta, avail[l] / n)
        for f in unfixed:
            delta = min(delta, f.cap - f._rate)
        if delta < 0:
            delta = 0.0
        for f in unfixed:
            f._rate += delta
        for l, n in counts.items():
            avail[l] -= delta * n
        newly_fixed = set()
        saturated = {l for l, n in counts.items()
                     if avail[l] <= _EPS * max(l.capacity, 1.0)}
        for f in unfixed:
            if f._rate >= f.cap - _EPS or any(l in saturated for l in f.links):
                newly_fixed.add(f)
        if not newly_fixed:
            flownet_stats.record_stalemate()
            break  # numerical stalemate; rates are already near-fair
        unfixed -= newly_fixed
    for l in links:
        l._used_rate = 0.0
    for f in flows:
        for l in f.links:
            l._used_rate += f._rate


class FlowNetwork(_FlowOwner):
    """Event-driven fluid network: owns links and active flows.

    *solver* selects the solve strategy: ``"incremental"`` (default, the
    only production mode) re-fills only the connected components touched
    since the last solve; ``"reference"`` re-fills everything from
    scratch with :func:`progressive_fill`, synchronously, on every
    mutation — the fixed baseline the Fig. 2 golden test and the
    trace-equivalence suite compare against.  Both produce
    bit-identical trajectories on the tracked scenarios.
    """

    SOLVERS = ("incremental", "reference")

    def __init__(self, env: Environment, solver: str | None = None):
        if solver is None:
            solver = "incremental"
        if solver not in self.SOLVERS:
            raise SimulationError(f"unknown solver {solver!r}; "
                                  f"choose one of {self.SOLVERS}")
        super().__init__(env)
        self.solver = solver
        self._link_slot: dict[str, int] = {}
        self._link_objs: list[Link] = []
        # -- per-link state, Python floats indexed by link slot (slots are
        # never freed: topology is add-only)
        self._nl = 0
        self._l_cap: list[float] = []
        self._l_used: list[float] = []
        self._l_busy: list[float] = []
        #: link slots some attached flow crosses; every other link has
        #: used rate 0.0, so settle skips it
        self._loaded: set[int] = set()
        #: link slot -> capacity-normalized busy time accrued before the
        #: link's last capacity change (``_l_busy`` restarts there)
        self._busy_fold: dict[int, float] = {}
        #: class-byte accumulator: link slot -> row of floats indexed by
        #: interned prefix, or None until a labelled flow crosses the link
        self._class_acc: list[list[float] | None] = []
        self._prefixes: list[str] = []
        self._prefix_idx: dict[str, int] = {}
        #: adjacency: link slot -> set of attached flows crossing it
        self._flows_of: list[set[NetFlow]] = []
        #: link slots whose component must be re-solved at the next flush
        self._dirty: set[int] = set()
        self._pending = False
        self._batch_depth = 0
        self._ops_since_flush = 0
        self._flow_seq = 0

    # -- topology -------------------------------------------------------------
    def add_link(self, name: str, capacity: float) -> Link:
        """Create a link and return its handle (the only way to make one)."""
        if name in self._link_slot:
            raise SimulationError(f"duplicate link {name!r}")
        if capacity <= 0:
            raise SimulationError(f"link {name!r}: capacity must be positive")
        s = self._nl
        link = Link(name, self, s)
        self._l_cap.append(float(capacity))
        self._l_used.append(0.0)
        self._l_busy.append(0.0)
        self._class_acc.append(None)
        self._nl += 1
        self._link_slot[name] = s
        self._link_objs.append(link)
        self._flows_of.append(set())
        return link

    def link(self, name: str) -> Link:
        return self._link_objs[self._link_slot[name]]

    def set_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity and re-fair-share every flow that can
        feel it (the link's connected component).

        This is the fabric-fault primitive: a degraded NIC (or a
        partition, capacity ≈ 0) immediately slows every flow crossing the
        link, which is what makes client deadlines fire.
        """
        s = self._resolve_slot(link)
        if capacity <= 0:
            raise SimulationError(
                f"link {link.name!r}: capacity must be positive")
        self._settle()
        capacity = float(capacity)
        old = self._l_cap[s]
        if capacity != old:
            self._busy_fold[s] = (self._busy_fold.get(s, 0.0)
                                  + self._l_busy[s] / old)
            self._l_busy[s] = 0.0
        self._l_cap[s] = capacity
        self._mark((s,))

    def _resolve_slot(self, link: Link) -> int:
        """*link*'s slot, after checking it is a Link of this network."""
        if getattr(link, "_net", None) is not self:
            raise SimulationError(f"{link!r} is not a link of this network")
        return link._slot

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._link_objs)

    @property
    def flows(self) -> tuple[NetFlow, ...]:
        if self._pending:
            self._flush()
        return tuple(self._live)

    # -- batching -------------------------------------------------------------
    @contextmanager
    def batch(self):
        """Coalesce every mutation inside the block into one solve.

        Use around synchronous bursts of ``transfer`` / ``remove`` /
        ``set_capacity`` calls (a stripe fan-out, a multi-link degrade).
        Blocks must not span a ``yield``: the zero-delay guard flushes at
        the current instant anyway, so holding a batch across simulated
        time buys nothing and reads inside the block still see solved
        state (reads flush).  Re-entrant.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._pending:
                self._flush()

    # -- flows ----------------------------------------------------------------
    def transfer(self, links: Iterable[Link], nbytes: float | None,
                 cap: float = math.inf, label: str = "") -> NetFlow:
        """Start a transfer across *links*; wait on ``flow.done``."""
        links = tuple(links)
        if not links:
            raise SimulationError("a flow needs at least one link")
        for l in links:
            if getattr(l, "_net", None) is not self:
                raise SimulationError(
                    f"{l!r} is not a link of this network")
        flow = NetFlow(self.env, links, nbytes, cap, label, net=self)
        lslots = flow._lslots
        self._settle()
        flow._seq = self._flow_seq
        self._flow_seq += 1
        if self._admit(flow):
            flows_of = self._flows_of
            for ls in lslots:
                flows_of[ls].add(flow)
            self._loaded.update(lslots)
            if flow.class_prefix is not None:
                p = flow._pidx = self._intern_prefix(flow.class_prefix)
                # A row covers every prefix up to the highest one that
                # has crossed its link.
                acc = self._class_acc
                for ls in lslots:
                    row = acc[ls]
                    if row is None:
                        acc[ls] = [0.0] * (p + 1)
                    elif len(row) <= p:
                        row.extend([0.0] * (p + 1 - len(row)))
            self._mark(lslots)
        return flow

    def remove(self, flow: NetFlow) -> float:
        """Withdraw a flow; returns remaining work."""
        self._settle()
        if flow._net is not self or not flow._attached:
            return 0.0
        self._withdraw(flow)
        self._mark(flow._lslots)
        return flow.remaining

    def consume(self, links: Iterable[Link], nbytes: float,
                cap: float = math.inf, label: str = ""):
        """``yield from``-able: transfer and wait, withdrawing on interrupt."""
        flow = self.transfer(links, nbytes, cap, label)
        try:
            yield flow.done
        except BaseException:
            # Route through remove() so the interrupted flow's byte
            # integrals and class_bytes are settled before it vanishes
            # (popping it raw silently lost everything accrued since the
            # last update).
            self.remove(flow)
            raise
        return flow

    def busy_time(self, link: Link) -> float:
        """Capacity-normalized busy integral of *link*, each span
        normalized by the capacity in force during it."""
        s = self._resolve_slot(link)
        self._settle()
        return (self._busy_fold.get(s, 0.0)
                + self._l_busy[s] / self._l_cap[s])

    def settle(self) -> None:
        """Bring byte integrals up to the current time (for probes)."""
        self._settle()

    # -- internals --------------------------------------------------------------
    def _intern_prefix(self, prefix: str) -> int:
        idx = self._prefix_idx.get(prefix)
        if idx is None:
            idx = len(self._prefixes)
            self._prefix_idx[prefix] = idx
            self._prefixes.append(prefix)
        return idx

    def _unlink(self, flow: NetFlow) -> None:
        # A link left without flows leaves _loaded with its used rate
        # still stale.  Every detach is followed, at this same instant,
        # by the solve that writes 0.0 there, so no settle that advances
        # time runs in between.
        flows_of = self._flows_of
        loaded = self._loaded
        dirty = self._dirty
        for ls in flow._lslots:
            on = flows_of[ls]
            on.discard(flow)
            if not on:
                loaded.discard(ls)
            dirty.add(ls)

    def _mark(self, link_slots: Iterable[int]) -> None:
        """Mark link slots dirty and arrange for a coalesced solve."""
        self._dirty.update(link_slots)
        self._ops_since_flush += 1
        if self.solver == "reference":
            # The baseline the golden and equivalence tests compare
            # against: solve synchronously on every mutation, no
            # coalescing (batch() blocks are deliberately ignored).
            self._pending = True
            self._flush()
            return
        if not self._pending:
            self._pending = True
            # Zero-delay guard: the solve happens at this same simulated
            # instant, after every other mutation queued at it — the
            # automatic same-timestamp batching that makes a stripe
            # fan-out cost one solve.  Scheduled even under batch() as a
            # safety net (a no-op if the batch already flushed).
            self.env.call_later(0.0, self._guard)

    def _guard(self) -> None:
        if self._pending:
            self._flush()

    def _settle(self) -> None:
        now = self.env.now
        dt = now - self._last_update
        if dt <= 0:
            return
        # Work drain (remaining -= rate*dt, clamp at zero) and class-byte
        # accounting over the live flows only, in creation order: float
        # addition order is observable.  Persistent flows drain nothing
        # (their remaining stays inf).  A flow that moved exactly 0.0
        # bytes is skipped: x - 0.0 == x and, on the >= +0.0
        # accumulators, x + 0.0 == x bitwise.
        acc = self._class_acc
        for f in self._live:
            m = f._rate * dt
            if m == 0.0:
                continue
            if f.work is not None:
                r = f.remaining - m
                f.remaining = 0.0 if r < 0.0 else r
            p = f._pidx
            if p >= 0:
                for ls in f._lslots:
                    acc[ls][p] += m
        # Busy integrals advance on loaded links only: every other link's
        # used rate is 0.0, and x + 0.0*dt == x bitwise.
        busy = self._l_busy
        used = self._l_used
        for ls in self._loaded:
            busy[ls] += used[ls] * dt
        self._last_update = now

    def _fill_vec(self, fs: list[NetFlow], ls: list[int],
                  stats: FlowNetStats) -> None:
        """Progressive filling over one closed flow–link set.

        *fs* must be in creation (seq) order; the order of *ls*, the
        link slots, is free (only min-reductions and elementwise updates
        touch links, and the per-link used-rate writeback accumulates in
        flow order).  One flow whose path's links are distinct and are
        exactly *ls* fills in closed form, as the loop's one round.  Up
        to ``_SCALAR_MAX`` flows the fill runs as Python loops over dicts
        keyed by link slot, above that as numpy array ops; all compute
        the identical float sequence as the classic per-object
        algorithm — see DESIGN.md §11.  The e2ebench tracer times the
        fill by this method's name, so every branch stays inline here.
        """
        nf = len(fs)
        nl = len(ls)
        stats.flows_touched += nf
        stats.links_touched += nl
        l_used = self._l_used
        l_cap = self._l_cap
        if nf == 1:
            f = fs[0]
            path = f._lslots
            if len(path) == nl and len(set(path)) == nl:
                # A lone flow on distinct links: the scalar loop's single
                # round in closed form.  Each link counts one flow, so
                # avail/1 is the capacity and the round's delta is the
                # minimum capacity, then the cap headroom (cap - 0.0),
                # compared in the loop's order.  Capacities and caps are
                # positive, so the loop's clamp at 0 never applies.
                stats.rounds += 1
                delta = math.inf
                for l in path:
                    c = l_cap[l]
                    if c < delta:
                        delta = c
                cap = f._cap
                if cap < delta:
                    delta = cap
                if not delta >= cap - _EPS:
                    for l in path:
                        c = l_cap[l]
                        if c - delta <= _EPS * (c if c > 1.0 else 1.0):
                            break
                    else:
                        stats.record_stalemate()
                f._rate = delta
                for l in path:
                    l_used[l] = delta
                return
        paths = [f._lslots for f in fs]
        caps = [f._cap for f in fs]
        if nf <= _SCALAR_MAX:
            avail = {}
            sat_eps = {}
            for l in ls:
                c = l_cap[l]
                avail[l] = c
                sat_eps[l] = _EPS * (c if c > 1.0 else 1.0)
            rates = [0.0] * nf
            unf = range(nf)
            guard = nf + nl + 2
            while unf and guard > 0:
                guard -= 1
                stats.rounds += 1
                counts: dict[int, int] = {}
                for i in unf:
                    for l in paths[i]:
                        counts[l] = counts.get(l, 0) + 1
                delta = math.inf
                for l, n in counts.items():
                    q = avail[l] / n
                    if q < delta:
                        delta = q
                # A NaN headroom fails the comparison and is skipped,
                # exactly as np.fmin skips it below.
                for i in unf:
                    h = caps[i] - rates[i]
                    if h < delta:
                        delta = h
                if delta < 0:
                    delta = 0.0
                for i in unf:
                    rates[i] += delta
                saturated = set()
                for l, n in counts.items():
                    a = avail[l] - delta * n
                    avail[l] = a
                    if a <= sat_eps[l]:
                        saturated.add(l)
                still = []
                for i in unf:
                    if rates[i] >= caps[i] - _EPS:
                        continue
                    for l in paths[i]:
                        if l in saturated:
                            break
                    else:
                        still.append(i)
                if len(still) == len(unf):
                    stats.record_stalemate()
                    break  # numerical stalemate; rates are already near-fair
                unf = still
            used = dict.fromkeys(ls, 0.0)
            for f, path, r in zip(fs, paths, rates):
                f._rate = r
                for l in path:
                    used[l] += r
            for l, u in used.items():
                l_used[l] = u
            return
        # nf × width component-local link ids: a link's id is its rank
        # in the sorted *ls*.  Shorter paths are padded with a slot past
        # every link's, which ranks as the sentinel id nl; no link reads
        # its column.
        ls = np.sort(np.asarray(ls, dtype=np.intp))
        pad = (self._nl,) * max(map(len, paths))
        rows = np.searchsorted(ls, np.fromiter(
            chain.from_iterable(p + pad[len(p):] for p in paths),
            dtype=np.intp, count=nf * len(pad))).reshape(nf, len(pad))
        caps = np.array(caps)
        avail = np.array([l_cap[l] for l in ls.tolist()])
        rates = np.zeros(nf)
        sat_eps = _EPS * np.maximum(avail, 1.0)
        unf = np.ones(nf, dtype=bool)
        guard = nf + nl + 2
        while unf.any() and guard > 0:
            guard -= 1
            stats.rounds += 1
            counts = np.bincount(rows[unf].ravel(), minlength=nl + 1)[:nl]
            lm = counts > 0
            delta = np.inf
            if lm.any():
                delta = (avail[lm] / counts[lm]).min()
            # fmin skips NaN headrooms exactly like the scalar `if d <
            # delta` comparison does.
            delta = float(np.fmin.reduce(caps[unf] - rates[unf],
                                         initial=delta))
            if delta < 0:
                delta = 0.0
            rates[unf] += delta
            avail[lm] -= delta * counts[lm]
            saturated = np.zeros(nl + 1, dtype=bool)
            saturated[:nl] = lm & (avail <= sat_eps)
            newly = unf & ((rates >= caps - _EPS)
                           | saturated[rows].any(axis=1))
            if not newly.any():
                stats.record_stalemate()
                break  # numerical stalemate; rates are already near-fair
            unf &= ~newly
        for f, r in zip(fs, rates.tolist()):
            f._rate = r
        # Per-link used-rate: bincount accumulates weights sequentially in
        # input order == flow creation order, matching the scalar loop.
        for l, u in zip(ls.tolist(), np.bincount(
                rows.ravel(), weights=np.repeat(rates, rows.shape[1]),
                minlength=nl + 1)[:nl].tolist()):
            l_used[l] = u

    def _solve(self) -> None:
        """Re-fill the dirty components (or everything, per solver mode)."""
        stats = flownet_stats
        if self.solver == "reference":
            # The original solver: one coupled dict-based fill over every
            # flow and every link.  (Bit-equal to the per-component fill
            # below whenever the round-delta schedule coincides — the
            # golden and equivalence tests assert trajectory identity on
            # the tracked scenarios.)
            live = self._live
            stats.full_solves += 1
            stats.flows_touched += len(live)
            stats.links_touched += self._nl
            self._dirty.clear()
            progressive_fill(list(live), self._link_objs)
            return
        if not self._dirty:
            return
        todo = list(self._dirty)
        self._dirty.clear()
        flows_of = self._flows_of
        l_used = self._l_used
        seen: set[int] = set()
        for seed in todo:
            if seed in seen:
                continue
            if not flows_of[seed]:
                # A link no flow crosses is a component of its own: what
                # the fill would do with it, without walking or filling.
                l_used[seed] = 0.0
                stats.links_touched += 1
                continue
            # Walk this connected component of the flow–link graph.
            comp_links = [seed]
            comp_flows: list[NetFlow] = []
            seen_flows: set[NetFlow] = set()
            seen.add(seed)
            stack = [seed]
            while stack:
                li = stack.pop()
                for flow in flows_of[li]:
                    if flow not in seen_flows:
                        seen_flows.add(flow)
                        comp_flows.append(flow)
                        for lj in flow._lslots:
                            if lj not in seen:
                                seen.add(lj)
                                comp_links.append(lj)
                                stack.append(lj)
            # Canonical creation order: BFS discovery order depends on set
            # iteration, and the float sum behind each link's used_rate
            # must be run-to-run and mode-to-mode deterministic.
            comp_flows.sort(key=attrgetter("_seq"))
            self._fill_vec(comp_flows, comp_links, stats)

    def _flush(self) -> None:
        """Coalesced solve + completion drain + wakeup."""
        self._pending = False
        stats = flownet_stats
        stats.solves += 1
        if self._ops_since_flush > 1:
            stats.batch_coalesced += self._ops_since_flush - 1
        self._ops_since_flush = 0
        self._complete()

    # The shared wakeup settles and rebalances; for a network the
    # rebalance is a flush.
    _rebalance = _flush
