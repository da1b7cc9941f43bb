"""Every seam the per-layer benchmark wraps still exists in ``repro``.

``perfbench/layers.py`` names functions and methods by ``(module,
attribute path)``; a traced benchmark run wraps each one.  Renaming or
deleting one of them breaks ``perfbench/run.py --trace 1`` long after
the change lands, so this test resolves every pinned seam up front.
``layers.py`` is loaded without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _pinned_seams():
    spec = importlib.util.spec_from_file_location("_perfbench_layers",
                                                  LAYERS)
    layers = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while building the class.
    sys.modules[spec.name] = layers
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(layers)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        del sys.modules[spec.name]
    return sorted({(module, path)
                   for _, module, path in layers.SPANS + layers.COUNTS})


@pytest.mark.parametrize("module, path", _pinned_seams(),
                         ids=lambda value: value)
def test_pinned_seam_resolves(module, path):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)
