"""The fast examples run clean, with every warning raised as an error.

``quickstart`` and ``elastic_eviction`` take under a second each, so they
run in-process here; ``tenant_interference`` and ``montage_scavenging``
take minutes and are left to manual runs.
"""

import importlib.util
import warnings
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, expect", [
    ("quickstart", "dd bag: 64 x 128 MB"),
    ("elastic_eviction", "re-read all files: 48/48 intact"),
])
def test_example_runs_without_warnings(name, expect, capsys):
    module = _load(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        module.main()
    assert expect in capsys.readouterr().out
