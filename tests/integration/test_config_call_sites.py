"""Every ``DeploymentConfig(...)`` call in the repo names real fields.

The ablation benches, the full-size pressure-spill bench and Table II
never run in CI, so a keyword that no longer exists on
:class:`~repro.core.deployment.DeploymentConfig` would only fail when
someone regenerates a figure.  This test parses every Python file under
the source, benchmark, example, test and end-to-end benchmark trees and
checks each keyword statically, without running any of them.
"""

import ast
import dataclasses
from pathlib import Path

from repro.core import DeploymentConfig

ROOT = Path(__file__).resolve().parents[2]
TREES = ("src", "benchmarks", "examples", "tests", "e2ebench")


def _config_calls():
    """Yield ``(file, line, keyword)`` for every named keyword passed to
    a call of ``DeploymentConfig`` (``**kwargs`` spreads are skipped)."""
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"),
                               filename=str(path))
            for node in ast.walk(module):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name != "DeploymentConfig":
                    continue
                for kw in node.keywords:
                    if kw.arg is not None:
                        yield path.relative_to(ROOT), node.lineno, kw.arg


def test_every_keyword_is_a_field():
    fields = {f.name for f in dataclasses.fields(DeploymentConfig)}
    calls = list(_config_calls())
    # Guard against a vacuous pass (e.g. the trees moved).
    assert len(calls) > 50
    bad = [f"{path}:{line}: {kw}" for path, line, kw in calls
           if kw not in fields]
    assert not bad, "unknown DeploymentConfig keywords:\n" + "\n".join(bad)
