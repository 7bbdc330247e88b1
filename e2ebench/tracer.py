"""Span tracer for the end-to-end benchmark.

Spans are recorded from the benchmark's side only: :class:`Tracer`
replaces named functions of the program with timing wrappers while it
is installed and puts the originals back when it is removed.  Nothing
under ``src/`` knows it is being traced.

* Every wrap target is resolved **by name** (``"module:Qual.name"``).
  A target that no longer exists is skipped and reported; a layer whose
  targets are all gone is an *unmeasured* layer, not a crash.  Only the
  modules named in :data:`TARGETS` are imported.
* A span covers one call of a plain function.  Generator functions
  (``MemFSS.write_file``, ``StoreServer.serve``, ...) are timed per
  resume: the caller gets a proxy generator whose every ``send`` /
  ``throw`` into the real one is a span, so time spent suspended in the
  simulation is never charged to the layer.
* A layer's self time is its spans' durations minus the time covered
  by spans nested inside them.  The base of the span stack is the
  traced pass itself; whatever no span covers is unattributed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref

__all__ = ["TARGETS", "Tracer"]


def _request_bytes(args, _kwargs) -> float:
    # StoreServer.serve(self, request, client_node)
    req = args[1] if len(args) > 1 else None
    nbytes = getattr(req, "nbytes", None)
    if nbytes is None:
        payload = getattr(req, "payload", None)
        return float(len(payload)) if payload is not None else 0.0
    return float(nbytes)


def _flownet(names):
    return ["repro.sim.flownet:FlowNetwork." + n for n in names]


def _fluid(names):
    return ["repro.sim.fluid:FluidResource." + n for n in names]


#: layer -> wrap targets.  The kernel callbacks into FlowNetwork and
#: FluidResource (``_guard``, ``_wakeup``) are listed like any other
#: entry point: their bound methods are captured after installation.
TARGETS: dict[str, list[str]] = {
    "kernel": ["repro.sim.kernel:Environment.run",
               "repro.sim.kernel:Environment.step"],
    "flownet.walk": _flownet(["_solve"]),
    "flownet.fill": _flownet(["_fill_vec"])
    + ["repro.sim.flownet:progressive_fill"],
    "flownet.settle": _flownet(["_settle"]),
    "flownet.flush": _flownet(["_flush", "_rebalance", "_guard", "_wakeup",
                               "transfer", "remove", "consume",
                               "set_capacity", "settle"]),
    "fluid.settle": _fluid(["_settle"]),
    "fluid.rebalance": _fluid(["_rebalance", "_wakeup", "submit", "remove",
                               "adjust_capacity", "adjust_cap", "consume"]),
    "monitor": ["repro.sim.monitor:Monitor._sampler"],
    "placement": ["repro.fs.placement:PlacementMap." + n for n in (
        "plan", "plan_file", "coded_file", "place", "ranked", "class_of",
        "class_ranking", "intern", "from_meta")]
    + ["repro.fs.placement:StripePlan.chain",
       "repro.fs.placement:StripePlan._ensure_orders"],
    "hashing": ["repro.hashing.hrw:HrwHasher." + n for n in (
        "scores_digest", "place_digest", "ranked_digest", "score_batch",
        "place_batch", "rank_batch")]
    + ["repro.hashing.hrw:WeightedClassHrw." + n for n in (
        "scores_digest", "choose_class", "score_batch", "choose_batch",
        "rank_batch")],
    "store.client": ["repro.store.client:StoreClient.request",
                     "repro.store.client:StoreClient.get_any"],
    "store.server": ["repro.store.server:StoreServer.serve"]
    + ["repro.store.kvstore:KVStore." + n for n in (
        "put", "get", "delete", "flush", "sadd", "srem", "smembers")],
    "fs.write": ["repro.fs.memfss:MemFSS.write_file",
                 "repro.fs.memfss:MemFSS._write_stripe"],
    "fs.read": ["repro.fs.memfss:MemFSS." + n for n in (
        "read_file", "read_range", "_read_stripe", "_reconstruct_stripe")],
    "fs.meta": ["repro.fs.memfss:MemFSS." + n for n in (
        "mkdir", "listdir", "stat", "unlink", "rename", "exists",
        "list_all_files", "purge")],
    "scavenger": ["repro.fs.scavenger:RepairDaemon." + n for n in (
        "sweep", "_scan_file", "_repair_task")]
    + ["repro.fs.scavenger:ScavengingManager." + n for n in (
        "scavenge", "scavenge_node", "evacuate", "_drain", "rebalance",
        "handle_crash", "withdraw")],
    "workflows": ["repro.workflows.engine:WorkflowEngine." + n for n in (
        "execute", "run", "_run_task", "stage_in")],
    "exec.store": ["repro.exec.store:ResultStore." + n for n in (
        "get", "put", "gc")],
    "core.deploy": ["repro.core.deployment:MemFSSDeployment.__init__"],
}

#: The kernel's run loop: each exit also reads how many events it has
#: scheduled (``kernel.events``).
_KERNEL_RUN = "repro.sim.kernel:Environment.run"
#: Per-call tallies beyond the span count: target -> (tally name, fn).
_TALLIES = {
    "repro.store.server:StoreServer.serve": ("store.bytes", _request_bytes),
}


def _resolve(target: str):
    """``(owner, attr, raw)`` for *target*; raises LookupError if gone."""
    module_name, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: {exc}") from None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: no {part!r}")
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        raise LookupError(f"{target}: no {attr!r}") from None
    return owner, attr, raw


def _event_count(env) -> int | None:
    """Events the kernel has scheduled so far (its tie-break counter)."""
    text = repr(getattr(env, "_counter", None))
    if text.startswith("count(") and text.endswith(")"):
        return int(text[6:-1])
    return None


class Tracer:
    """Installs span wrappers over *targets* and accumulates them.

    ``self_s[layer]`` is the layer's self time, ``calls[target]`` the
    number of calls (generator functions: invocations) and
    ``resumes[target]`` the number of resumes of a generator target.
    """

    def __init__(self, targets: dict[str, list[str]] = TARGETS):
        self.targets = targets
        self._stack: list[list[float]] = [[0.0]]
        self._acc = {layer: [0.0] for layer in targets}
        self._calls: dict[str, list[int]] = {}
        self._resumes: dict[str, list[int]] = {}
        self.tallies: dict[str, float] = {"kernel.events": 0.0,
                                          "store.bytes": 0.0}
        self._env_seen: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._installed: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    # -- results ------------------------------------------------------------------
    @property
    def self_s(self) -> dict[str, float]:
        return {layer: acc[0] for layer, acc in self._acc.items()}

    @property
    def attributed_s(self) -> float:
        """Total duration of outermost spans so far."""
        return self._stack[0][0]

    def calls(self, target: str) -> int:
        box = self._calls.get(target)
        return box[0] if box is not None else 0

    def resumes(self, target: str) -> int:
        box = self._resumes.get(target)
        return box[0] if box is not None else 0

    def unmeasured_layers(self) -> list[str]:
        return [layer for layer, targets in self.targets.items()
                if all(t in self.missing for t in targets)]

    # -- installation -------------------------------------------------------------
    def install(self) -> None:
        self.missing = []
        for layer, targets in self.targets.items():
            for target in targets:
                try:
                    owner, attr, raw = _resolve(target)
                except LookupError:
                    self.missing.append(target)
                    continue
                wrapped = self._wrap(raw, layer, target)
                if wrapped is None:
                    self.missing.append(target)
                    continue
                own = attr in getattr(owner, "__dict__", {})
                self._installed.append((owner, attr, raw, own))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, own in reversed(self._installed):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._installed = []

    def _wrap(self, raw, layer: str, target: str):
        if isinstance(raw, (classmethod, staticmethod)):
            inner = self._wrap(raw.__func__, layer, target)
            return type(raw)(inner) if inner is not None else None
        if not inspect.isfunction(raw):
            return None
        calls = self._calls.setdefault(target, [0])
        acc = self._acc[layer]
        tally = _TALLIES.get(target)
        tallies = self.tallies
        if inspect.isgeneratorfunction(raw):
            resumes = self._resumes.setdefault(target, [0])
            drive = self._drive

            @functools.wraps(raw)
            def traced_gen(*args, **kwargs):
                calls[0] += 1
                if tally is not None:
                    tallies[tally[0]] += tally[1](args, kwargs)
                gen = raw(*args, **kwargs)
                proxy = drive(gen, acc, resumes)
                proxy.__name__ = gen.__name__
                proxy.__qualname__ = gen.__qualname__
                return proxy
            return traced_gen

        stack, clock = self._stack, time.perf_counter
        after = self._note_env if target == _KERNEL_RUN else None

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            calls[0] += 1
            if tally is not None:
                tallies[tally[0]] += tally[1](args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return raw(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                acc[0] += d - frame[0]
                stack[-1][0] += d
                if after is not None:
                    after(args[0])
        return traced

    def _drive(self, gen, acc, resumes):
        """Proxy generator: one span per resume of *gen*."""
        stack, clock = self._stack, time.perf_counter
        value, error = None, None
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    err, error = error, None
                    out = gen.throw(err)
            except StopIteration as stop:
                return stop.value
            finally:
                d = clock() - t0
                stack.pop()
                acc[0] += d - frame[0]
                stack[-1][0] += d
                resumes[0] += 1
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into *gen* next
                value, error = None, exc

    def _note_env(self, env) -> None:
        count = _event_count(env)
        if count is not None:
            seen = self._env_seen.get(env, 0)
            self._env_seen[env] = count
            self.tallies["kernel.events"] += count - seen
