"""Every function the benchmark tracer wraps still exists.

``e2ebench/tracer.py`` charges each layer with the self time of the
functions named in its ``TARGETS``.  A layer is reported as unmeasured
only when *all* of its targets are gone, so renaming one traced function
silently moves its time into its caller's layer.  This test pins every
name; it reads ``e2ebench/`` and never modifies it.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[2] / "e2ebench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()


@pytest.mark.parametrize("layer", sorted(_tracer.TARGETS))
def test_every_target_resolves(layer):
    targets = _tracer.TARGETS[layer]
    assert targets
    for target in targets:
        owner, attr, raw = _tracer._resolve(target)
        assert callable(getattr(owner, attr)), target
