"""MemFSS — the scavenging in-memory distributed file system.

This is the paper's core artifact (§III).  A :class:`MemFSS` instance ties
together:

- the **own nodes** (run tasks *and* store data; only they may mount the
  file system and pass the stores' AUTH policy);
- any number of **victim classes** (store data only), managed dynamically
  by the :class:`~repro.fs.scavenger.ScavengingManager`;
- the two-layer weighted HRW :class:`~repro.fs.placement.PlacementMap`;
- per-file :class:`~repro.fs.metadata.FileMeta` records placed on own
  nodes by modulo hashing;
- striping, optional k-replication (2nd/3rd HRW winners, §III-E) and
  optional XOR/parity erasure coding (§III-E's future-work alternative).

All I/O methods are generators driven inside simulation processes; with a
zero-cost fabric they also work as a perfectly ordinary (if synchronous)
in-process file system, which is how the functional tests use them.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..cluster.network import Fabric
from ..cluster.node import Node
from ..faults.availability import avail_stats
from ..hashing import ModuloPlacer
from ..sim import Environment, FluidResource
from ..sim.rng import RngRegistry
from ..store import (RetryPolicy, StoreClient, StoreError, StoreErrorCode,
                     StoreServer)
from ..units import GB
from .capacity import CapacityLedger, pressure_stats, select_targets
from .erasure import group_layout, parity_key, reconstruct_size, xor_parity
from .metadata import (FileMeta, PathError, dir_key, file_meta_key,
                       normalize_path, parent_dir)
from .placement import CodedAssignment, CodingSets, PlacementMap
from .striping import (DEFAULT_STRIPE_SIZE, split_payload, stripe_count,
                       stripe_spans)

__all__ = ["MemFSS", "FsError", "FileNotFound", "FileExists", "NotADir"]

_REGISTRY_KEY = ("allfiles",)


class FsError(RuntimeError):
    """Generic file-system failure."""


class FileNotFound(FsError):
    pass


class FileExists(FsError):
    pass


class NotADir(FsError):
    pass


class MemFSS:
    """One deployed file system over a set of store servers."""

    def __init__(self, env: Environment, fabric: Fabric,
                 own_nodes: list[Node], servers: dict[str, StoreServer],
                 policy: PlacementMap, *,
                 password: str = "",
                 stripe_size: int = DEFAULT_STRIPE_SIZE,
                 replication: int = 1,
                 erasure: tuple[int, int] | None = None,
                 write_window: int = 4,
                 fuse_bandwidth: float = 2 * GB,
                 fuse_stream_cap: float = 1 * GB,
                 io_deadline: float | None = None,
                 io_retry: RetryPolicy | None = None,
                 coding_sets: int | bool | None = None,
                 rng: RngRegistry | None = None):
        if not own_nodes:
            raise ValueError("need at least one own node")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if replication > 1 and erasure is not None:
            raise ValueError("choose replication or erasure, not both")
        if erasure is not None:
            k, m = erasure
            if k < 1 or m < 1:
                raise ValueError("erasure needs k >= 1 data, m >= 1 parity")
        if coding_sets and erasure is None:
            raise ValueError("coding_sets requires erasure coding")
        missing = [n for n in policy.all_nodes if n not in servers]
        if missing:
            raise ValueError(f"no server for placement nodes {missing}")
        if write_window < 1:
            raise ValueError("write_window must be >= 1")
        self.env = env
        self.fabric = fabric
        self.own_nodes = list(own_nodes)
        self.servers = dict(servers)
        # Interned: reads reconstruct the recorded policy via from_meta,
        # which then hits this exact instance (and its cached plans) for
        # files written under the current policy.
        self.policy = PlacementMap.intern(policy)
        self.stripe_size = int(stripe_size)
        self.replication = replication
        self.erasure = erasure
        # Failure-domain-aware erasure placement (Hydra-style CodingSets):
        # True enables pure domain anti-affinity; an int additionally
        # bounds each placement group to that many victim nodes.  The
        # node → failure-domain map is fed by the scavenger from lease
        # offers (the tenant owning each victim); own nodes are their own
        # domains and never appear here.
        self.coding = bool(coding_sets)
        self.coding_set_size = (None if isinstance(coding_sets, bool)
                                or coding_sets is None
                                else int(coding_sets))
        self.domains: dict[str, str] = {}
        self.write_window = write_window
        self.meta_placer = ModuloPlacer([n.name for n in own_nodes])
        # Every mount shares one resilience posture: the request deadline
        # and default retry policy are set once on each client, and
        # backoff jitter draws from per-node streams of the deployment's
        # registry so fault runs stay bit-reproducible.
        self._clients = {
            n.name: StoreClient(
                env, fabric, n, password,
                deadline=io_deadline, retry=io_retry,
                rng=(rng.stream(f"store.client.{n.name}")
                     if rng is not None else None))
            for n in own_nodes}
        # The FUSE data path is a real per-node throughput limit: the
        # userspace daemon copies every byte, sustaining ~2 GB/s per node
        # and ~1 GB/s per stream (MemFS, FGCS 2015).  This cap — not the
        # 3 GB/s NIC — is what holds victim ingress under ~500 MB/s in
        # the paper's Fig. 2.
        if fuse_bandwidth <= 0 or fuse_stream_cap <= 0:
            raise ValueError("fuse bandwidth parameters must be positive")
        self.fuse_stream_cap = float(fuse_stream_cap)
        self._fuse_pipes = {
            n.name: FluidResource(env, fuse_bandwidth, name=f"fuse@{n.name}")
            for n in own_nodes}
        # Capacity-aware writes: stripe puts consult the ledger and spill
        # down the HRW chain instead of bouncing with FULL (§III-E applied
        # to capacity).  The ledger wraps self.servers itself, so victims
        # joining/leaving are visible without re-wiring.
        self.ledger = CapacityLedger(self.servers)
        self._inodes = itertools.count(1)
        # Lifetime I/O counters.
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        self.files_created = 0

    # -- plumbing ---------------------------------------------------------------
    def client(self, node: Node) -> StoreClient:
        try:
            return self._clients[node.name]
        except KeyError:
            raise FsError(f"{node.name} is not an own node; only own nodes "
                          "mount MemFSS (paper §III-C)") from None

    def _meta_server(self, key) -> StoreServer:
        return self.servers[self.meta_placer.place(key)]

    def _registry_server(self) -> StoreServer:
        return self.servers[self.meta_placer.place(_REGISTRY_KEY)]

    def next_inode(self) -> int:
        return next(self._inodes)

    # -- directories ----------------------------------------------------------------
    def mkdir(self, node: Node, path: str):
        """Generator: create a directory (parents must exist)."""
        path = normalize_path(path)
        if path == "/":
            return
        client = self.client(node)
        parent = parent_dir(path)
        if parent != "/":
            entries = yield from client.smembers(
                self._meta_server(dir_key(parent)), dir_key(parent))
            name = parent.rsplit("/", 1)[-1]
            grand = parent_dir(parent)
            pentries = yield from client.smembers(
                self._meta_server(dir_key(grand)), dir_key(grand))
            if name + "/" not in pentries:
                raise NotADir(f"parent {parent!r} does not exist")
            del entries
        name = path.rsplit("/", 1)[-1]
        yield from client.sadd(self._meta_server(dir_key(parent)),
                               dir_key(parent), name + "/")

    def listdir(self, node: Node, path: str):
        """Generator: names in a directory (dirs carry a trailing '/')."""
        path = normalize_path(path)
        client = self.client(node)
        entries = yield from client.smembers(
            self._meta_server(dir_key(path)), dir_key(path))
        return sorted(entries)

    # -- files ------------------------------------------------------------------
    def write_file(self, node: Node, path: str, nbytes: float | None = None,
                   payload: bytes | None = None, batch: int = 1):
        """Generator: create *path* with the given content.

        Returns the :class:`FileMeta`.  Stripes go wherever the current
        placement policy sends them, up to :attr:`write_window` in flight.
        *batch* > 1 marks this logical file as a bundle of that many small
        application files (per-request store costs are charged that many
        times — see :class:`repro.store.protocol.Request`).
        """
        path = normalize_path(path)
        if payload is not None:
            size = len(payload)
            pieces = split_payload(payload, self.stripe_size)
        else:
            if nbytes is None or nbytes < 0:
                raise ValueError("write_file needs payload or nbytes >= 0")
            size = int(nbytes)
            pieces = None
        client = self.client(node)
        inode = self.next_inode()
        n = stripe_count(size, self.stripe_size)
        weights, members = self.policy.snapshot()
        meta = FileMeta(path=path, inode=inode, size=size,
                        stripe_size=self.stripe_size, n_stripes=n,
                        class_weights=weights, class_members=members,
                        replication=self.replication, erasure=self.erasure)

        # One vectorized plan resolves every stripe (and parity) placement
        # up front; the per-stripe jobs below only index into it.
        plan = self.policy.plan_file(inode, n, erasure=self.erasure)
        assignment = None
        if self.coding and self.erasure is not None:
            # Domain-constrained targets: no two fragments of an erasure
            # group on one failure domain.  The snapshot is recorded in
            # the metadata so reads and repair reconstruct it exactly.
            cs = CodingSets.build(self.domains, self.coding_set_size)
            meta.coding = cs.to_doc()
            assignment = self.policy.coded_file(inode, n, self.erasure, cs)
            avail_stats.set_spills += assignment.set_spills
            avail_stats.placement_violations += assignment.domain_violations
        spans = stripe_spans(size, self.stripe_size)
        batch = max(1, int(batch))
        jobs = []
        for span in spans:
            piece = pieces[span.index] if pieces is not None else None
            # Spread the bundle's request count across its stripes.
            share = batch // n + (1 if span.index < batch % n else 0) if n else 0
            jobs.append((span.index, float(span.length), piece,
                         max(1, share)))
        if self.erasure is not None:
            k, m = self.erasure
            for gi, (first, count) in enumerate(group_layout(n, k)):
                group_pieces = (pieces[first:first + count]
                                if pieces is not None else None)
                plen = max((spans[i].length
                            for i in range(first, first + count)),
                           default=0)
                for j in range(m):
                    pidx = plan.index_of(parity_key(inode, gi, j))
                    ppiece = (xor_parity(group_pieces)
                              if group_pieces is not None else None)
                    jobs.append((pidx, float(plen), ppiece, 1))

        yield from self._run_window(
            [self._write_stripe(client, plan, idx, nb, piece, share,
                                assignment=assignment)
             for idx, nb, piece, share in jobs])

        # Metadata: file record, parent directory entry, global registry.
        meta_key = file_meta_key(path)
        yield from client.put(self._meta_server(meta_key),
                              meta_key, payload=meta.to_bytes())
        parent = parent_dir(path)
        name = path.rsplit("/", 1)[-1]
        yield from client.sadd(self._meta_server(dir_key(parent)),
                               dir_key(parent), name)
        yield from client.sadd(self._registry_server(), _REGISTRY_KEY, path)
        self.bytes_written += size
        self.files_created += 1
        return meta

    def _through_fuse(self, node_name: str, nbytes: float, gen):
        """Generator: run *gen* while the payload crosses the FUSE pipe.

        The FUSE copy and the store transfer are pipelined, so the cost is
        the max of the two, modeled by waiting on both concurrently.
        Returns the inner generator's value.
        """
        pipe = self._fuse_pipes[node_name]
        inner = self.env.process(gen)
        if nbytes <= 0:
            return (yield inner)
        flow = pipe.submit(nbytes, cap=self.fuse_stream_cap, label="fuse")
        try:
            yield self.env.all_of([flow.done, inner])
        except BaseException:
            pipe.remove(flow)
            if inner.is_alive:
                inner.interrupt()
            raise
        return inner.value

    def _write_stripe(self, client: StoreClient, plan, idx: int,
                      nbytes: float, piece: bytes | None, batch: int = 1,
                      assignment: CodedAssignment | None = None):
        """Generator: write one planned stripe to its replica set.

        Targets that cannot admit the stripe are skipped in favour of the
        next nodes down the HRW chain (§III-E applied to capacity) instead
        of bouncing the write with ``FULL``.  The admission check is pure
        Python over the ledger, so when every planned target admits — the
        unpressured case — the stripe lands on its top-k chain ranks.  A
        ``FULL`` that still sneaks through (a capacity race with another
        in-flight writer, or tenant pressure landing mid-put) falls
        through *reactively* to the next admitting node.  Only when no
        store in the whole chain can take the stripe does the write raise
        — a structured ``FULL`` :class:`StoreError` the sweep layer turns
        into a degraded row.

        With a domain-constrained *assignment* (CodingSets placement) the
        stripe targets its assigned node instead of the chain head, and
        capacity spills avoid nodes whose failure domain already holds a
        sibling fragment — falling back to the unconstrained spill (and
        counting a violation) only when the constrained chain is out of
        space, so pressure degrades placement quality, never durability.
        """
        key = plan.keys[idx]
        want = self.replication
        exclude: frozenset = frozenset()
        if assignment is not None:
            targets = [assignment.targets[idx]]
            exclude = assignment.excludes[idx]
        else:
            targets = plan.chain(idx, k=want)
        pressure_stats.writes_checked += 1
        chain: list[str] | None = None
        if not all(self.ledger.admits(t, nbytes) for t in targets):
            chain = plan.chain(idx)
            picked, distance, _short = select_targets(
                chain, nbytes, want, self.ledger.usable, exclude=exclude)
            if not picked and exclude:
                # Every domain-safe candidate is full: place the fragment
                # anyway (availability beats placement purity) and count
                # the violation so the frontier can see it.
                avail_stats.placement_violations += 1
                picked, distance, _short = select_targets(
                    chain, nbytes, want, self.ledger.usable)
            if not picked:
                pressure_stats.exhausted_writes += 1
                pressure_stats.replica_shortfall += want
                raise StoreError(
                    StoreErrorCode.FULL,
                    f"stripe {key!r} ({nbytes:.3g} B): no store in the "
                    f"HRW chain can admit it",
                    details={"requested_bytes": float(nbytes),
                             "chain": list(chain)})
            pressure_stats.spilled_writes += 1
            pressure_stats.spill_distance += distance
            targets = picked
        written = 0
        pos = 0                   # reactive-spill resume point in chain
        tried: set[str] = set()
        queue = list(targets)
        while queue:
            target = queue.pop(0)
            tried.add(target)
            reserved = self.ledger.reserve(target, nbytes)
            try:
                yield from self._put_stripe(client, target, key, nbytes,
                                            piece, batch)
            except StoreError as exc:
                if exc.code is not StoreErrorCode.FULL:
                    raise
                pressure_stats.reactive_spills += 1
                if chain is None:
                    chain = plan.chain(idx)
                while pos < len(chain):
                    cand = chain[pos]
                    pos += 1
                    if cand in tried or cand in queue or cand in exclude:
                        continue
                    if self.ledger.admits(cand, nbytes):
                        queue.append(cand)
                        break
                continue
            finally:
                self.ledger.release(target, reserved)
            written += 1
        if written == 0:
            pressure_stats.exhausted_writes += 1
            pressure_stats.replica_shortfall += want
            raise StoreError(
                StoreErrorCode.FULL,
                f"stripe {key!r} ({nbytes:.3g} B): every candidate store "
                f"rejected the write",
                details={"requested_bytes": float(nbytes),
                         "tried": sorted(tried)})
        if written < want:
            pressure_stats.replica_shortfall += want - written

    def _put_stripe(self, client: StoreClient, target: str, key,
                    nbytes: float, piece: bytes | None, batch: int):
        """Generator: one stripe put through the FUSE pipe."""
        yield from self._through_fuse(
            client.node.name, nbytes,
            client.put(self.servers[target], key,
                       nbytes=None if piece is not None else nbytes,
                       payload=piece, batch=batch))

    def _run_window(self, gens: list):
        """Run generators with at most :attr:`write_window` in flight.

        The in-flight stripe puts land their fabric transfers at the same
        simulated instant (client RTTs are equal), so the flow network's
        same-timestamp coalescing solves the fan-out's rate changes once
        per window step instead of once per stripe — no explicit
        ``FlowNetwork.batch()`` needed on this path.
        """
        window = self.write_window
        if window == 1 or len(gens) <= 1:
            for g in gens:
                yield from g
            return
        pending = list(reversed(gens))
        active: list = []
        while pending or active:
            while pending and len(active) < window:
                active.append(self.env.process(pending.pop()))
            try:
                done = yield self.env.any_of(active)
            except BaseException:
                for p in active:
                    if p.is_alive:
                        p.interrupt("write aborted")
                raise
            active = [p for p in active if not p.triggered]
            del done

    def stat(self, node: Node, path: str):
        """Generator: the :class:`FileMeta` of *path*."""
        path = normalize_path(path)
        client = self.client(node)
        meta_key = file_meta_key(path)
        try:
            server = self._meta_server(meta_key)
        except KeyError:
            # The node holding this path's metadata has left the system —
            # exactly the failure mode §III-D's own-only placement avoids.
            raise FileNotFound(f"{path}: metadata server is gone") from None
        try:
            _n, raw = yield from client.get(server, meta_key)
        except StoreError as exc:
            if exc.code is StoreErrorCode.MISSING:
                raise FileNotFound(path) from None
            raise
        return FileMeta.from_bytes(raw)

    def read_file(self, node: Node, path: str, batch: int = 1):
        """Generator: read the whole file.

        Returns ``(size, payload_or_None)``.  Stripes are located with the
        placement recorded in the file's metadata; if a stripe's primary
        node no longer answers, the ranked HRW chain is walked (lazy
        movement, §V-C) and parity reconstruction is attempted for
        erasure-coded files.
        """
        path = normalize_path(path)
        meta = yield from self.stat(node, path)
        client = self.client(node)
        plan = self._plan_for(meta)
        pieces: list[bytes] = []
        have_payload = True
        batch = max(1, int(batch))
        n = meta.n_stripes
        spans = stripe_spans(meta.size, meta.stripe_size)
        for idx in range(meta.n_stripes):
            share = batch // n + (1 if idx < batch % n else 0) if n else 0
            nbytes, piece = yield from self._through_fuse(
                node.name, float(spans[idx].length),
                self._read_stripe(client, plan, meta, idx,
                                  batch=max(1, share)))
            if piece is None:
                have_payload = False
            else:
                pieces.append(piece)
        self.bytes_read += meta.size
        if have_payload and (meta.n_stripes > 0 or meta.size == 0):
            return meta.size, b"".join(pieces)
        return meta.size, None

    def read_range(self, node: Node, path: str, offset: int, length: int,
                   batch: int = 1):
        """Generator: read ``[offset, offset + length)`` of a file.

        Fetches only the stripes covering the range (a stripe is the unit
        of transfer, as in the real FUSE layer).  Returns
        ``(bytes_read, payload_or_None)`` where *bytes_read* counts the
        requested range, clamped to the file size.
        """
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        path = normalize_path(path)
        meta = yield from self.stat(node, path)
        client = self.client(node)
        plan = self._plan_for(meta)
        end = min(offset + length, meta.size)
        if end <= offset:
            return 0, b""
        first = int(offset // meta.stripe_size)
        last = int((end - 1) // meta.stripe_size)
        spans = stripe_spans(meta.size, meta.stripe_size)
        batch = max(1, int(batch))
        n = last - first + 1
        pieces: list[bytes] = []
        have_payload = True
        for k, idx in enumerate(range(first, last + 1)):
            share = batch // n + (1 if k < batch % n else 0)
            _nb, piece = yield from self._through_fuse(
                node.name, float(spans[idx].length),
                self._read_stripe(client, plan, meta, idx,
                                  batch=max(1, share)))
            if piece is None:
                have_payload = False
            else:
                pieces.append(piece)
        nread = end - offset
        self.bytes_read += nread
        if not have_payload:
            return nread, None
        blob = b"".join(pieces)
        lo = offset - first * meta.stripe_size
        return nread, blob[int(lo):int(lo) + int(nread)]

    def _plan_for(self, meta: FileMeta):
        """The stripe plan of *meta* under its recorded (interned) policy."""
        policy = PlacementMap.from_meta(meta, self.policy.family)
        return policy.plan_file(meta.inode, meta.n_stripes,
                                erasure=meta.erasure)

    def _coded_for(self, meta: FileMeta, plan) -> CodedAssignment | None:
        """The domain-constrained assignment *meta* was written under
        (cached on the interned policy), or None for uncoded files."""
        if not meta.coding or meta.erasure is None:
            return None
        cs = CodingSets.from_doc(meta.coding)
        return plan.policy.coded_file(meta.inode, meta.n_stripes,
                                      meta.erasure, cs)

    def _stripe_chain(self, plan, meta: FileMeta, idx: int) -> list[str]:
        """The read/lookup chain of key *idx*: the HRW walk, led by the
        fragment's domain-constrained target when the file was written
        under CodingSets (the assigned node is always *on* the chain —
        the assignment re-ranks, it never teleports)."""
        chain = plan.chain(idx)
        asg = self._coded_for(meta, plan)
        if asg is not None and idx < len(asg.targets):
            pref = asg.targets[idx]
            if chain and chain[0] != pref and pref in chain:
                chain = [pref] + [t for t in chain if t != pref]
        return chain

    def _read_stripe(self, client: StoreClient, plan, meta: FileMeta,
                     idx: int, batch: int = 1):
        """Generator: fetch one stripe, walking the replica chain.

        The chain walk (misses, crashed stores, timeouts falling through
        to the next rank) lives in
        :meth:`~repro.store.client.StoreClient.get_any`; a fully
        exhausted chain falls back to parity reconstruction, which is
        counted and timed as a degraded read (repro.faults.availability).
        """
        key = plan.keys[idx]
        # A write may have spilled arbitrarily deep down the chain, so
        # reads walk it to the end; the walk stops at the first hit, so
        # the unpressured path issues exactly one request to the primary
        # (or, for CodingSets files, to the fragment's domain-constrained
        # target).
        chain = self._stripe_chain(plan, meta, idx)
        started = self.env.now
        try:
            return (yield from client.get_any(
                [self.servers.get(t) for t in chain], key, batch=batch))
        except StoreError as exc:
            if not exc.code.fallthrough:
                raise
            last_error = exc
        if meta.erasure is not None:
            result = yield from self._reconstruct_stripe(
                client, plan, meta, idx)
            avail_stats.record_reconstruction(self.env.now - started,
                                              float(result[0]))
            return result
        raise FileNotFound(
            f"stripe {key!r} of {meta.path!r} lost "
            f"(tried {chain}): {last_error}")

    def _reconstruct_stripe(self, client: StoreClient, plan,
                            meta: FileMeta, idx: int):
        """Generator: rebuild a lost stripe from its parity group."""
        assert meta.erasure is not None
        k, m = meta.erasure
        gi = idx // k
        first = gi * k
        count = min(k, meta.n_stripes - first)
        spans = stripe_spans(meta.size, meta.stripe_size)
        got: list[bytes | None] = []
        sizes: list[float] = []
        # Fetch the surviving siblings.
        for sib in range(first, first + count):
            if sib == idx:
                continue
            try:
                nb, piece = yield from self._fetch_any(client, plan, sib,
                                                       meta=meta)
            except FileNotFound:
                raise FileNotFound(
                    f"stripe {idx} of {meta.path!r}: second loss in parity "
                    f"group {gi}; cannot reconstruct with m={m}") from None
            got.append(piece)
            sizes.append(nb)
        # Fetch one parity stripe (parity keys are part of the plan).
        pidx = plan.index_of(parity_key(meta.inode, gi, 0))
        pnb, ppiece = yield from self._fetch_any(client, plan, pidx,
                                                 meta=meta)
        my_len = spans[idx].length
        if ppiece is not None and all(p is not None for p in got):
            data = xor_parity([ppiece] + [p for p in got])  # type: ignore[list-item]
            return float(my_len), data[:my_len]
        # reconstruct_size already yields the (size, None) pair.
        return reconstruct_size(my_len)

    def _fetch_any(self, client: StoreClient, plan, idx: int,
                   meta: FileMeta):
        """Generator: get the plan's key *idx* from anywhere in its chain."""
        key = plan.keys[idx]
        chain = self._stripe_chain(plan, meta, idx)
        try:
            return (yield from client.get_any(
                [self.servers.get(t) for t in chain], key))
        except StoreError as exc:
            if not exc.code.fallthrough:
                raise
        raise FileNotFound(f"{key!r} unavailable on all replicas")

    def unlink(self, node: Node, path: str):
        """Generator: delete a file, its stripes, and its metadata."""
        path = normalize_path(path)
        meta = yield from self.stat(node, path)
        client = self.client(node)
        # The plan already covers stripes *and* parity keys.
        plan = self._plan_for(meta)
        want = self.replication
        for idx, key in enumerate(plan.keys):
            # Delete from the planned replica set; if copies are missing
            # there (a capacity spill pushed them deeper), keep walking
            # the chain until all expected copies are gone.  Unpressured
            # files find every copy in the first *want* ranks, so the walk
            # stops there.
            deleted = 0
            for target in plan.chain(idx):
                if deleted >= want:
                    break
                server = self.servers.get(target)
                if server is None:
                    continue
                try:
                    yield from client.delete(server, key)
                    deleted += 1
                except StoreError as exc:
                    # A replica that is missing the key — or is down and
                    # losing it anyway — does not fail the unlink.
                    if not exc.code.fallthrough:
                        raise
        yield from client.delete(self._meta_server(file_meta_key(path)),
                                 file_meta_key(path))
        parent = parent_dir(path)
        name = path.rsplit("/", 1)[-1]
        yield from client.srem(self._meta_server(dir_key(parent)),
                               dir_key(parent), name)
        yield from client.srem(self._registry_server(), _REGISTRY_KEY, path)
        return meta.size

    def rename(self, node: Node, old: str, new: str):
        """Generator: move a file.  Stripe keys are inode-based, so only
        metadata moves — no data transfer."""
        old, new = normalize_path(old), normalize_path(new)
        meta = yield from self.stat(node, old)
        client = self.client(node)
        meta.path = new
        yield from client.put(self._meta_server(file_meta_key(new)),
                              file_meta_key(new), payload=meta.to_bytes())
        yield from client.delete(self._meta_server(file_meta_key(old)),
                                 file_meta_key(old))
        yield from client.sadd(self._meta_server(dir_key(parent_dir(new))),
                               dir_key(parent_dir(new)),
                               new.rsplit("/", 1)[-1])
        yield from client.srem(self._meta_server(dir_key(parent_dir(old))),
                               dir_key(parent_dir(old)),
                               old.rsplit("/", 1)[-1])
        yield from client.srem(self._registry_server(), _REGISTRY_KEY, old)
        yield from client.sadd(self._registry_server(), _REGISTRY_KEY, new)
        return meta

    def exists(self, node: Node, path: str):
        """Generator: True if *path* names a file."""
        try:
            yield from self.stat(node, path)
            return True
        except FileNotFound:
            return False

    def list_all_files(self, node: Node):
        """Generator: every file path in the registry (for migration)."""
        client = self.client(node)
        paths = yield from client.smembers(self._registry_server(),
                                           _REGISTRY_KEY)
        return sorted(paths)

    def purge(self, node: Node):
        """Generator: wipe the whole file system (one FLUSH per server).

        The experiment harness re-runs bags of tasks back to back; like a
        remount of the real MemFSS, a purge clears all data and metadata at
        one request per store instead of a full per-file unlink walk.
        Returns the total bytes released.
        """
        client = self.client(node)
        released = 0.0
        for server in set(self.servers.values()):
            released += yield from client.flush(server)
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        return released

    # -- capacity ------------------------------------------------------------------
    def total_capacity(self) -> float:
        return sum(self.servers[n].kv.capacity for n in self.policy.all_nodes)

    def used_bytes(self) -> float:
        return sum(self.servers[n].kv.used_bytes
                   for n in self.policy.all_nodes)
