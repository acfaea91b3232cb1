"""The traced benchmark run imports every layer module the tracer names and
hooks functions by name; each of them must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_and_hook_target_imports():
    tracer = _tracer()
    modules = {layer: importlib.import_module(f"nortonalg.{layer}") for layer in tracer.LAYERS}
    for key in tracer.HOOKS:
        layer, name = key.split(".")
        assert callable(getattr(modules[layer], name)), key
