"""The benchmark's scripts against the package: the traced run imports every
layer module the tracer names and hooks functions by name, and the
`find_identity` operation reads a vector's `coeffs` and `Cyclotomic.to_json`;
each of them must exist."""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_and_hook_target_imports():
    tracer = _script("tracer")
    modules = {layer: importlib.import_module(f"nortonalg.{layer}") for layer in tracer.LAYERS}
    for key in tracer.HOOKS:
        layer, name = key.split(".")
        assert callable(getattr(modules[layer], name)), key


def test_find_identity_script_payloads(capsys):
    script = _script("find_identity")
    assert script.main("--family hamming --n 2 --e 3 --i 0".split()) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"command": "find_identity", "family": "hamming(2,3)", "i": 0,
                       "identity": {"00": {"e": 3, "coeffs": [["1", "1"], ["0", "1"]]}}}
    assert script.main("--family hypercube --n 8 --i 4".split()) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "hypercube(8)" and payload["identity"] is None
