"""Self-test of the end-to-end benchmark, at tiny sizes.

Run from the root of a source checkout::

    python3 e2ebench/selftest.py

It checks that

* every metric ``BENCHMARK.json`` names is printed, by name, with its
  unit, and nothing else — end-to-end metrics untraced, per-layer
  metrics traced;
* outputs with tracing on equal outputs with tracing off (the traced
  run is checked against digests recorded by the untraced one);
* a corrupted reference digest is counted as a failed cell, not a crash;
* a wrap target that no longer resolves is reported as an unmeasured
  layer, and removing the tracer restores the program;
* the benchmark fails, printing no result, without the program's
  sources next to it.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _run(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, "--seconds", "0",
                           "--size", "tiny", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def _check(ok: bool, what: str, detail: str = "") -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}\n{detail}")
    print(f"ok: {what}")


def check_metrics(spec: dict, workload: str, result: dict, key: str):
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    _check(got == want, f"{workload}: {key} metrics printed with units")
    _check(all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values()),
           f"{workload}: every {key} value is a number")
    _check(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result has exactly the contract's keys")


def check_workload(spec: dict, workload: str, tmp: str) -> None:
    ref = os.path.join(tmp, f"{workload}.json")
    base = ["--workload", workload, "--seed", "3"]
    proc, untraced = _run(*base, "--trace", "0", "--reference", ref,
                          "--record", ref)
    _check(untraced is not None and untraced["correct"],
           f"{workload}: untraced run correct", proc.stderr)
    check_metrics(spec, workload, untraced, "end_to_end")

    proc, traced = _run(*base, "--trace", "1", "--reference", ref)
    _check(traced is not None and traced["correct"]
           and traced["failed"] == 0,
           f"{workload}: traced outputs equal untraced ones", proc.stderr)
    check_metrics(spec, workload, traced, "per_layer")

    with open(ref) as fh:
        doc = json.load(fh)
    cells = doc[workload]["3"]
    victim = sorted(cells)[0]
    cells[victim] = "0" * len(cells[victim])
    bad = os.path.join(tmp, f"{workload}-corrupt.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    proc, result = _run(*base, "--trace", "0", "--reference", bad)
    _check(result is not None and not result["correct"]
           and result["failed"] >= 1
           and result["failed"] < result["attempted"],
           f"{workload}: corrupted reference counts as failed cells",
           proc.stderr)


def check_tracer() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from tracer import TARGETS, Tracer

    from repro.sim.kernel import Environment
    _check(not any(t.split(":")[0] in ("repro.sim.select", "repro.sim.shard")
                   for targets in TARGETS.values() for t in targets),
           "tracer wraps nothing in sim.select / sim.shard")
    original = Environment.__dict__["run"]
    tr = Tracer({"kernel": ["repro.sim.kernel:Environment.run"],
                 "ghost": ["repro.sim.kernel:Environment.no_such_method",
                           "repro.no_such_module:Thing.call"]})
    tr.install()
    try:
        _check(Environment.__dict__["run"] is not original,
               "tracer wraps a resolvable target")
        _check(tr.unmeasured_layers() == ["ghost"],
               "a layer whose targets are gone is reported unmeasured")
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return 7
        _check(env.run(until=env.process(proc())) == 7
               and tr.calls("repro.sim.kernel:Environment.run") == 1
               and tr.attributed_s > 0.0,
               "traced kernel runs unchanged and records a span")
    finally:
        tr.uninstall()
    _check(Environment.__dict__["run"] is original,
           "removing the tracer restores the program")


def check_standalone(tmp: str) -> None:
    alone = os.path.join(tmp, "alone")
    shutil.copytree(HERE, os.path.join(alone, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "fig2_sweep", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=alone, capture_output=True, text=True,
        timeout=180)
    _check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the program's sources the benchmark fails and prints "
           "no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    from layers import PER_LAYER
    _check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [(n, u, b) for n, u, b, _moves in PER_LAYER],
           "BENCHMARK.json per_layer matches layers.PER_LAYER")
    check_tracer()
    with tempfile.TemporaryDirectory(prefix=".e2ebench-selftest-",
                                     dir=ROOT) as tmp:
        check_standalone(tmp)
        for workload in [w["name"] for w in spec["workloads"]]:
            check_workload(spec, workload, tmp)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
