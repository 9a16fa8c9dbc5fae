"""perfbench's tracer wraps package attributes by name and skips any that
no longer exists, so a rename under ``src/`` would silently drop a
per-layer metric. Every layer must still resolve at least one target."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_resolves_a_target(layer):
    _, targets = LAYERS[layer]
    resolved = [
        (module, attr)
        for module, attr in targets
        # the tracer skips a missing or None attribute alike
        if getattr(importlib.import_module(module), attr, None) is not None
    ]
    assert resolved, f"no target of {layer} exists: {targets}"
