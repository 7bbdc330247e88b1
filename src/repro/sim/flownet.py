"""Network-wide max-min fair flow model.

The DAS-5 fabric the paper runs on is FDR InfiniBand with (approximately)
full bisection bandwidth, so the only constrained elements are the node
NICs.  We model the network as a set of directed :class:`Link` capacities
(one egress and one ingress link per node, created by the cluster layer);
a :class:`NetFlow` crosses its source's egress link and its destination's
ingress link, and the classic **progressive-filling** algorithm computes the
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

Since the struct-of-arrays refactor (DESIGN.md §11) the mutable per-flow
and per-link numbers live in slot-indexed numpy arrays owned by the
network; :class:`NetFlow` / :class:`Link` objects are handles whose
properties read the arrays while attached and scalar fallbacks once
detached (which also keeps the dict-based reference oracle working
unmodified on standalone objects).  The settle step and the per-component
fill are vectorized, with every order-sensitive float reduction
(class-byte accumulation, per-link used-rate sums) routed through
``np.add.at`` / ``np.bincount`` so it accumulates in *creation order* —
the same float sequence the per-object loops produced, keeping
trajectories bit-identical (see the summation invariant in DESIGN.md §11).

Process-wide :data:`flownet_stats` counters expose solves, rounds and
flows/links touched for the perf suite (``benchmarks/bench_perf_suite.py``).
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from .kernel import Environment, Event, SimulationError

__all__ = ["Link", "NetFlow", "FlowNetwork", "progressive_fill",
           "FlowNetStats", "flownet_stats"]

_EPS = 1e-9
_PAD = -1            # padding value in per-flow link-slot rows
_INIT_FLOW_SLOTS = 32
_INIT_LINK_SLOTS = 16
_INIT_PREFIXES = 4


class FlowNetStats:
    """Process-wide solver counters (the ``planner_stats`` pattern).

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

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)
        self._stalemate_warned = False

    def record_stalemate(self) -> None:
        self.stalemates += 1
        if not self._stalemate_warned:
            self._stalemate_warned = True
            warnings.warn(
                "progressive_fill hit a numerical stalemate: no flow fixed "
                "this round; accepting near-fair rates (counted in "
                "flownet_stats.stalemates)", RuntimeWarning, stacklevel=3)

    def snapshot(self) -> dict[str, int]:
        return {name: int(getattr(self, name)) for name in self._COUNTERS}


#: Shared instance imported by ``repro.metrics.solver`` and the benchmarks.
flownet_stats = FlowNetStats()


class Link:
    """A directed capacity (one NIC direction, or any shared pipe).

    ``class_bytes`` accumulates, per label prefix (the part of a flow's
    label before the first ``:``), the bytes that traffic class has moved
    through the link — how the tenant models measure the scavenging
    store's average pressure over a window without burst aliasing.

    While owned by a :class:`FlowNetwork` (``_slot >= 0``) the mutable
    numbers live in the network's link arrays; a standalone link (the
    equivalence suite's detached clones) uses the scalar fallbacks.
    """

    __slots__ = ("name", "_net", "_slot", "_cap_s", "_used_s", "_busy_s",
                 "_cb_s")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise SimulationError(f"link {name!r}: capacity must be positive")
        self.name = name
        self._net: FlowNetwork | None = None
        self._slot = -1
        self._cap_s = float(capacity)
        self._used_s = 0.0
        self._busy_s = 0.0
        self._cb_s: dict[str, float] = {}

    @property
    def capacity(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self._net._l_cap[s])
        return self._cap_s

    @capacity.setter
    def capacity(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            self._net._l_cap[s] = value
        else:
            self._cap_s = float(value)

    @property
    def _used_rate(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self._net._l_used[s])
        return self._used_s

    @_used_rate.setter
    def _used_rate(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            self._net._l_used[s] = value
        else:
            self._used_s = float(value)

    @property
    def _busy_integral(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self._net._l_busy[s])
        return self._busy_s

    @_busy_integral.setter
    def _busy_integral(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            self._net._l_busy[s] = value
        else:
            self._busy_s = float(value)

    @property
    def class_bytes(self) -> dict[str, float]:
        """Per-class byte totals (materialized from the accumulator)."""
        net = self._net
        if net is None:
            return self._cb_s
        row = net._class_acc[self._slot]
        return {p: float(row[i]) for i, p in enumerate(net._prefixes)
                if row[i] != 0.0}

    @property
    def used_rate(self) -> float:
        """Instantaneous allocated rate (flushes a pending batched solve)."""
        net = self._net
        if net is not None and net._pending:
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


class NetFlow:
    """A transfer crossing one or more links.

    A handle over a slot in its network's flow arrays; detached flows
    (standalone oracle clones, completed/removed flows) carry their final
    values in scalar fallbacks.

    Network-owned flows record their path as link *slots* only
    (``_lslots``); the ``links`` tuple of :class:`Link` handles is
    materialized lazily on first access (DESIGN.md §13's memory-lean link
    state — a flow across lean fabric-internal links costs no Link
    objects until someone asks for them).  Standalone flows (the
    equivalence suite's oracle clones) still pass a Link tuple directly.
    """

    __slots__ = ("work", "done", "label", "class_prefix",
                 "started_at", "finished_at", "_net", "_seq", "_slot",
                 "_rate_s", "_rem_s", "_cap_s", "_links_t", "_lslots")

    def __init__(self, env: Environment, links: tuple[Link, ...] | None,
                 work: float | None, cap: float, label: str,
                 net: "FlowNetwork | None" = None,
                 lslots: tuple[int, ...] | None = None):
        if lslots is None:
            lslots = tuple(l._slot for l in links)
        self._links_t = links
        self._lslots = lslots
        self.work = work
        self._slot = -1
        self._rem_s = math.inf if work is None else float(work)
        self._cap_s = float(cap)
        self._rate_s = 0.0
        self.done: Event = env.event()
        self.label = label
        # Interned once here instead of a str.partition per flow per
        # settle (the class prefix feeds Link.class_bytes accounting).
        prefix, sep, _rest = label.partition(":")
        self.class_prefix: str | None = prefix if sep else None
        self.started_at = env.now
        self.finished_at: float | None = None
        self._net = net
        self._seq = 0  # creation order within a FlowNetwork (see _solve)

    @property
    def links(self) -> tuple[Link, ...]:
        """The flow's path as Link handles (materialized on demand)."""
        t = self._links_t
        if t is None:
            net = self._net
            t = tuple(net._materialize(s) for s in self._lslots)
            self._links_t = t
        return t

    @property
    def remaining(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self._net._f_rem[s])
        return self._rem_s

    @remaining.setter
    def remaining(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            self._net._f_rem[s] = value
        else:
            self._rem_s = float(value)

    @property
    def cap(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self._net._f_cap[s])
        return self._cap_s

    @cap.setter
    def cap(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            self._net._f_cap[s] = value
        else:
            self._cap_s = float(value)

    @property
    def _rate(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self._net._f_rate[s])
        return self._rate_s

    @_rate.setter
    def _rate(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            self._net._f_rate[s] = value
        else:
            self._rate_s = float(value)

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

    @property
    def persistent(self) -> bool:
        return self.work is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "->".join(l.name for l in self.links)
        return f"<NetFlow {self.label or path} remaining={self.remaining:.3g}>"


def progressive_fill(flows: list[NetFlow], links: Iterable[Link]) -> None:
    """Set ``flow.rate`` for every flow to the max-min fair allocation.

    The standalone oracle: one coupled fill over everything it is given,
    exactly the classic dict-based algorithm, deliberately left
    unvectorized — it is both the equivalence-suite ground truth and the
    retained pre-optimization path the ``"reference"`` solver mode times
    against.  :class:`FlowNetwork` instead fills each connected component
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


class FlowNetwork:
    """Event-driven fluid network: owns links and active flows.

    *solver* selects the solve strategy: ``"incremental"`` (default, the
    only production mode) re-fills only the connected components touched
    since the last solve; ``"reference"`` re-fills everything from
    scratch with :func:`progressive_fill`, synchronously, on every
    mutation — the fixed baseline the Fig. 2 golden test, the
    trace-equivalence suite and the perf suite compare against.  Both
    produce bit-identical trajectories on the tracked scenarios.
    """

    SOLVERS = ("incremental", "reference")

    def __init__(self, env: Environment, solver: str | None = None):
        if solver is None:
            solver = "incremental"
        if solver not in self.SOLVERS:
            raise SimulationError(f"unknown solver {solver!r}; "
                                  f"choose one of {self.SOLVERS}")
        self.env = env
        self.solver = solver
        self._links: dict[str, Link] = {}
        self._link_slot: dict[str, int] = {}
        self._link_objs: list[Link | None] = []
        self._link_names: list[str] = []
        # -- link slot arrays (slots are never freed: topology is add-only)
        nl = _INIT_LINK_SLOTS
        self._nl = 0
        self._l_cap = np.zeros(nl)
        self._l_used = np.zeros(nl)
        self._l_busy = np.zeros(nl)
        #: class-byte accumulator [link slot, interned prefix]
        self._class_acc = np.zeros((nl, _INIT_PREFIXES))
        self._prefixes: list[str] = []
        self._prefix_idx: dict[str, int] = {}
        #: global-link-slot -> component-local index scratch; the extra
        #: trailing cell is the sentinel the _PAD entries map to.
        self._loc = np.zeros(nl + 1, dtype=np.int32)
        # -- flow slot arrays
        nf = _INIT_FLOW_SLOTS
        self._W = 4  # link-row width (verbs paths use 2, tcp uses 4)
        self._f_cap = np.zeros(nf)
        self._f_rem = np.zeros(nf)
        self._f_rate = np.zeros(nf)
        self._f_pers = np.zeros(nf, dtype=bool)
        self._f_prefix = np.full(nf, -1, dtype=np.int32)
        self._f_links = np.full((nf, self._W), _PAD, dtype=np.int32)
        self._f_deg = np.zeros(nf, dtype=np.int32)
        self._alive = np.zeros(nf, dtype=bool)
        self._objs: list[NetFlow | None] = [None] * nf
        self._seqs: list[int] = [0] * nf
        self._free = list(range(nf - 1, -1, -1))
        self._freeq: list[int] = []
        self._act = np.zeros(nf, dtype=np.int32)
        self._act_n = 0
        self._act_dead = 0
        #: adjacency: link slot -> set of active flow slots crossing it
        self._flows_of: list[set[int]] = []
        #: link slots whose component must be re-solved at the next flush
        self._dirty: set[int] = set()
        self._pending = False
        self._batch_depth = 0
        self._ops_since_flush = 0
        self._flow_seq = 0
        self._last_update = env.now
        self._wakeup_fn = self._wakeup
        self._wakeup_cb = None

    # -- topology -------------------------------------------------------------
    def add_link_lean(self, name: str, capacity: float) -> int:
        """Allocate a link *slot* without creating a :class:`Link` handle.

        The memory-lean path for fabric-internal links at ×64 scale
        (DESIGN.md §13): the mutable state lives in the SoA arrays
        anyway, so the handle object is pure overhead until someone
        needs one — :meth:`_materialize` builds it on demand (``link()``,
        the ``links`` property, ``NetFlow.links``).  Flows accept raw
        slots wherever they accept Links.
        """
        if name in self._link_slot:
            raise SimulationError(f"duplicate link {name!r}")
        if capacity <= 0:
            raise SimulationError(f"link {name!r}: capacity must be positive")
        s = self._nl
        if s == len(self._l_cap):
            new = s * 2
            for attr in ("_l_cap", "_l_used", "_l_busy"):
                arr = np.zeros(new)
                arr[:s] = getattr(self, attr)
                setattr(self, attr, arr)
            acc = np.zeros((new, self._class_acc.shape[1]))
            acc[:s] = self._class_acc
            self._class_acc = acc
            self._loc = np.zeros(new + 1, dtype=np.int32)
        self._l_cap[s] = float(capacity)
        self._l_used[s] = 0.0
        self._l_busy[s] = 0.0
        self._nl += 1
        self._link_slot[name] = s
        self._link_names.append(name)
        self._link_objs.append(None)
        self._flows_of.append(set())
        return s

    def add_link(self, name: str, capacity: float) -> Link:
        return self._materialize(self.add_link_lean(name, capacity))

    def _materialize(self, slot: int) -> Link:
        """The Link handle for *slot*, created on first request."""
        link = self._link_objs[slot]
        if link is None:
            link = Link(self._link_names[slot], float(self._l_cap[slot]))
            link._net = self
            link._slot = slot
            self._link_objs[slot] = link
            self._links[link.name] = link
        return link

    def link(self, name: str) -> Link:
        return self._materialize(self._link_slot[name])

    def set_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity and re-fair-share every flow that can
        feel it (the link's connected component).

        This is the fabric-fault primitive: a degraded NIC (or a
        partition, capacity ≈ 0) immediately slows every flow crossing the
        link, which is what makes client deadlines fire.
        """
        if capacity <= 0:
            raise SimulationError(
                f"link {link.name!r}: capacity must be positive")
        s = self._resolve_slot(link)
        self._settle()
        self._l_cap[s] = float(capacity)
        self._mark((s,))

    def _resolve_slot(self, link: "Link | int") -> int:
        """Validate *link* (a handle or a lean slot) against this network."""
        if isinstance(link, (int, np.integer)):
            s = int(link)
            if not 0 <= s < self._nl:
                raise SimulationError(
                    f"link slot {s} not in this network")
            return s
        if link._net is not self or link._slot < 0:
            raise SimulationError(f"link {link.name!r} not in this network")
        return link._slot

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._materialize(s) for s in range(self._nl))

    @property
    def flows(self) -> tuple[NetFlow, ...]:
        if self._pending:
            self._flush()
        return tuple(self._objs[s] for s in self._active())

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
    def transfer(self, links: "Iterable[Link | int]", nbytes: float | None,
                 cap: float = math.inf, label: str = "") -> NetFlow:
        """Start a transfer across *links*; wait on ``flow.done``.

        *links* may mix :class:`Link` handles and lean link slots (the
        ints :meth:`add_link_lean` returns) — the flow stores slots
        either way and materializes handles only if ``flow.links`` is
        read.
        """
        if cap <= 0:
            raise SimulationError("flow cap must be positive")
        self._settle()
        lslots = tuple(self._resolve_slot(l) for l in links)
        if not lslots:
            raise SimulationError("a flow needs at least one link")
        flow = NetFlow(self.env, None, nbytes, cap, label, net=self,
                       lslots=lslots)
        flow._seq = self._flow_seq
        self._flow_seq += 1
        if flow._rem_s <= _EPS and not flow.persistent:
            flow.finished_at = self.env.now
            flow.done.succeed(flow)
            return flow
        self._attach(flow)
        s = flow._slot
        for ls in lslots:
            self._flows_of[ls].add(s)
        self._mark(lslots)
        return flow

    def remove(self, flow: NetFlow) -> float:
        """Withdraw a flow; returns remaining work."""
        self._settle()
        if flow._net is not self or flow._slot < 0:
            return 0.0
        s = flow._slot
        remaining = float(self._f_rem[s])
        for ls in flow._lslots:
            self._flows_of[ls].discard(s)
        self._detach(flow)
        flow._rem_s = remaining
        if not flow.persistent and not flow.done.triggered:
            flow.done.fail(SimulationError(f"flow {flow.label!r} cancelled"))
        self._mark(flow._lslots)
        return remaining

    def consume(self, links: "Iterable[Link | int]", nbytes: float,
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
        """Capacity-normalized busy integral of *link*."""
        self._settle()
        return float(self._l_busy[link._slot]) / float(self._l_cap[link._slot])

    def settle(self) -> None:
        """Bring byte integrals up to the current time (for probes)."""
        self._settle()

    # -- flow slot machinery ---------------------------------------------------
    def _active(self) -> np.ndarray:
        """Active flow slots in creation order (tombstones filtered)."""
        a = self._act[: self._act_n]
        if self._act_dead:
            a = a[self._alive[a]]
        return a

    def _compact(self) -> None:
        """Drop tombstones from ``_act`` and promote quarantined slots.

        Only after compaction may a freed slot be reused: until then a
        stale ``_act`` entry still references it, and reusing it would
        resurrect the entry as a duplicate of the new flow.
        """
        a = self._active()
        n = len(a)
        self._act[:n] = a
        self._act_n = n
        self._act_dead = 0
        self._free.extend(self._freeq)
        self._freeq.clear()

    def _grow_flows(self) -> None:
        old = len(self._objs)
        new = old * 2
        for name in ("_f_cap", "_f_rem", "_f_rate"):
            arr = np.zeros(new)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        for name in ("_f_pers", "_alive"):
            arr = np.zeros(new, dtype=bool)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        pref = np.full(new, -1, dtype=np.int32)
        pref[:old] = self._f_prefix
        self._f_prefix = pref
        rows = np.full((new, self._W), _PAD, dtype=np.int32)
        rows[:old] = self._f_links
        self._f_links = rows
        deg = np.zeros(new, dtype=np.int32)
        deg[:old] = self._f_deg
        self._f_deg = deg
        self._objs.extend([None] * (new - old))
        self._seqs.extend([0] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _widen_rows(self, width: int) -> None:
        rows = np.full((len(self._objs), width), _PAD, dtype=np.int32)
        rows[:, : self._W] = self._f_links
        self._f_links = rows
        self._W = width

    def _intern_prefix(self, prefix: str) -> int:
        idx = self._prefix_idx.get(prefix)
        if idx is None:
            idx = len(self._prefixes)
            if idx == self._class_acc.shape[1]:
                acc = np.zeros((self._class_acc.shape[0], idx * 2))
                acc[:, :idx] = self._class_acc
                self._class_acc = acc
            self._prefix_idx[prefix] = idx
            self._prefixes.append(prefix)
        return idx

    def _attach(self, flow: NetFlow) -> None:
        if not self._free:
            self._compact()
            if not self._free:
                self._grow_flows()
        s = self._free.pop()
        flow._slot = s
        deg = len(flow._lslots)
        if deg > self._W:
            self._widen_rows(deg)
        self._f_cap[s] = flow._cap_s
        self._f_rem[s] = flow._rem_s
        self._f_rate[s] = 0.0
        self._f_pers[s] = flow.work is None
        self._f_prefix[s] = (-1 if flow.class_prefix is None
                             else self._intern_prefix(flow.class_prefix))
        self._f_links[s, :deg] = flow._lslots
        self._f_links[s, deg:] = _PAD
        self._f_deg[s] = deg
        self._alive[s] = True
        self._objs[s] = flow
        self._seqs[s] = flow._seq
        if self._act_n == len(self._act):
            if self._act_dead > len(self._act) // 2:
                self._compact()
            else:
                act = np.zeros(len(self._act) * 2, dtype=np.int32)
                act[: self._act_n] = self._act[: self._act_n]
                self._act = act
        self._act[self._act_n] = s
        self._act_n += 1

    def _detach(self, flow: NetFlow) -> None:
        """Array-side teardown: copy state to scalars, tombstone the slot.

        Tombstones are inert in the vectorized settle (rate pinned to
        0.0, and ``x - 0.0 == x`` / ``x + 0.0 == x`` bitwise), so the
        ``_act`` buffer is compacted lazily.
        """
        s = flow._slot
        flow._cap_s = float(self._f_cap[s])
        flow._rem_s = float(self._f_rem[s])
        flow._rate_s = 0.0
        flow._slot = -1
        self._alive[s] = False
        self._f_rate[s] = 0.0
        self._objs[s] = None
        self._freeq.append(s)
        self._act_dead += 1

    # -- internals --------------------------------------------------------------
    def _mark(self, link_slots: Iterable[int]) -> None:
        """Mark link slots dirty and arrange for a coalesced solve."""
        self._dirty.update(link_slots)
        self._ops_since_flush += 1
        if self.solver == "reference":
            # Pre-PR behavior, retained for the perf suite: solve
            # synchronously on every mutation, no coalescing (batch()
            # blocks are deliberately ignored).
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
        # Work drain: identical elementwise float sequence as the old
        # per-flow loop (remaining -= rate*dt, clamp at zero); persistent
        # flows subtract exactly 0.0 so their inf remaining is untouched.
        drain = np.where(self._f_pers, 0.0, self._f_rate * dt)
        np.subtract(self._f_rem, drain, out=self._f_rem)
        np.maximum(self._f_rem, 0.0, out=self._f_rem)
        # Class-byte accounting must accumulate in creation order (float
        # addition order is observable); the raw _act buffer is creation
        # ordered and its tombstones contribute exactly 0.0.  np.add.at
        # applies repeated indices sequentially in input order.
        aw = self._act[: self._act_n]
        if len(aw):
            pf = self._f_prefix[aw]
            sel = pf >= 0
            if sel.any():
                fs = aw[sel]
                moved = np.repeat(self._f_rate[fs] * dt, self._W)
                lf = self._f_links[fs].ravel()
                ok = lf >= 0
                np.add.at(self._class_acc,
                          (lf[ok], np.repeat(pf[sel], self._W)[ok]),
                          moved[ok])
        nl = self._nl
        self._l_busy[:nl] += self._l_used[:nl] * dt
        self._last_update = now

    def _fill_vec(self, fs: np.ndarray, ls: np.ndarray,
                  stats: FlowNetStats) -> None:
        """Vectorized progressive filling over one closed flow–link set.

        *fs* must be in creation (seq) order; *ls* order is free (only
        min-reductions and elementwise updates touch links, and the
        per-link used-rate writeback accumulates in flow order via
        bincount).  Computes the identical float sequence as the classic
        per-object algorithm — see DESIGN.md §11.
        """
        nf = len(fs)
        nl = len(ls)
        stats.flows_touched += nf
        stats.links_touched += nl
        if nf == 0:
            self._l_used[ls] = 0.0
            return
        # Component-local link ids: the shared _loc scratch maps global
        # slots to 0..nl-1, and its trailing cell is the sentinel column
        # the _PAD entries resolve to.
        loc = self._loc
        loc[ls] = np.arange(nl, dtype=np.int32)
        loc[len(loc) - 1] = nl
        rows = loc[self._f_links[fs]]          # nf × W local link ids
        caps = self._f_cap[fs]
        avail = self._l_cap[ls].copy()
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
        self._f_rate[fs] = rates
        # Per-link used-rate: bincount accumulates weights sequentially in
        # input order == flow creation order, matching the scalar loop.
        self._l_used[ls] = np.bincount(
            rows.ravel(), weights=np.repeat(rates, rows.shape[1]),
            minlength=nl + 1)[:nl]

    def _solve(self, a: np.ndarray) -> None:
        """Re-fill the dirty components (or everything, per solver mode).

        *a* is the active flow slots in creation order.
        """
        stats = flownet_stats
        if self.solver == "reference":
            # The verbatim pre-PR solver: one coupled dict-based fill over
            # every flow and every link.  (Bit-equal to the per-component
            # fill below whenever the round-delta schedule coincides — the
            # golden tests and the perf suite assert trajectory identity
            # on the tracked scenarios.)
            stats.full_solves += 1
            stats.flows_touched += len(a)
            stats.links_touched += self._nl
            self._dirty.clear()
            progressive_fill([self._objs[s] for s in a],
                             [self._materialize(i)
                              for i in range(self._nl)])
            return
        if not self._dirty:
            return
        todo = list(self._dirty)
        self._dirty.clear()
        flows_of = self._flows_of
        f_links = self._f_links
        f_deg = self._f_deg
        seqs = self._seqs
        seen: set[int] = set()
        for seed in todo:
            if seed in seen:
                continue
            # Walk this connected component of the flow–link graph.
            comp_links = [seed]
            comp_flows: list[int] = []
            seen_flows: set[int] = set()
            seen.add(seed)
            stack = [seed]
            while stack:
                li = stack.pop()
                for fslot in flows_of[li]:
                    if fslot not in seen_flows:
                        seen_flows.add(fslot)
                        comp_flows.append(fslot)
                        row = f_links[fslot]
                        for k in range(f_deg[fslot]):
                            lj = int(row[k])
                            if lj not in seen:
                                seen.add(lj)
                                comp_links.append(lj)
                                stack.append(lj)
            # Canonical creation order: BFS discovery order depends on set
            # iteration, and the float sum behind each link's used_rate
            # must be run-to-run and mode-to-mode deterministic.
            comp_flows.sort(key=seqs.__getitem__)
            self._fill_vec(np.asarray(comp_flows, dtype=np.int32),
                           np.asarray(comp_links, dtype=np.int32), stats)

    def _flush(self) -> None:
        """Coalesced settle + solve + completion drain + wakeup."""
        self._pending = False
        stats = flownet_stats
        stats.solves += 1
        if self._ops_since_flush > 1:
            stats.batch_coalesced += self._ops_since_flush - 1
        self._ops_since_flush = 0
        now = self.env.now
        # Completions below the float clock's resolution at `now` must
        # drain immediately to avoid a zero-advance wakeup spin (see
        # FluidResource._rebalance).
        min_dt = max(math.nextafter(now, math.inf) - now, 1e-12)
        dirty = self._dirty
        flows_of = self._flows_of
        while True:
            a = self._active()
            if len(a):
                fin = ~self._f_pers[a] & (self._f_rem[a] <= _EPS)
                if fin.any():
                    for s in a[fin]:  # creation order, like the old scan
                        flow = self._objs[s]
                        si = int(s)
                        for ls in flow._lslots:
                            flows_of[ls].discard(si)
                            dirty.add(ls)
                        self._detach(flow)
                        flow._rem_s = 0.0
                        flow.finished_at = now
                        flow.done.succeed(flow)
                    a = self._active()
            self._solve(a)
            horizon = math.inf
            if len(a):
                rate_a = self._f_rate[a]
                m = (rate_a > 0) & ~self._f_pers[a]
                if m.any():
                    h = self._f_rem[a[m]] / rate_a[m]
                    horizon = float(h.min())
                    if horizon < min_dt:
                        # Sub-resolution completions: drain them at the
                        # current instant.
                        self._f_rem[a[m][h < min_dt]] = 0.0
                        continue
            break
        cb = self._wakeup_cb
        if cb is not None and cb.fn is self._wakeup_fn:
            # Lazy-cancel the superseded wakeup (identity-checked: a
            # fired slot returns to the pool and may belong to another
            # scheduler by now).
            cb.fn = None
        self._wakeup_cb = (self.env.call_later(horizon, self._wakeup_fn)
                           if horizon != math.inf else None)

    # Kept under its historical name for the sibling FluidResource's sake:
    # a flush *is* the rebalance, now coalesced.
    _rebalance = _flush

    def _wakeup(self) -> None:
        self._settle()
        self._flush()
