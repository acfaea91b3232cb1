"""The benchmark's scripts against the package: the traced run imports every
layer module the tracer names and hooks functions by name, and the
`find_identity` operation reads a vector's `coeffs` and `Cyclotomic.to_json`;
each of them must exist.  The `field-assoc` and `certify-tables` operations
of `ops.py` must each work in a bounded set."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import sys
import tracemalloc
from pathlib import Path

from nortonalg import cli, families

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _script(name: str, monkeypatch=None):
    """perfbench/<name>.py as a module; with monkeypatch it is registered in
    sys.modules while the test runs, as dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, spec.name, module)
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


def test_field_assoc_operations_work_in_a_bounded_set(monkeypatch, capsys):
    # each CLI operation of the workload, with fresh families so that its
    # bases and tables are built under the trace: the product table, the
    # automorphism check and the tree counters work in 256 KiB steps (the
    # highest reads about 1.1 MiB); with 1 MiB steps and whole-table checks
    # seven of them read 1.31 to 2.08 MiB
    ops = _script("ops", monkeypatch)
    peaks = {}
    for op in ops.WORKLOADS["field-assoc"]:
        if op.api:
            continue
        argv = op.args.split() + (["--seed", "1"] if op.seeded else [])
        families._cached_family.cache_clear()
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peaks[op.args] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0, op.args
    assert len(peaks) == 16
    over = {args: peak for args, peak in peaks.items() if peak > 1.25 * (1 << 20)}
    assert not over, over


def test_certify_tables_operations_work_in_a_bounded_set(monkeypatch):
    # each CLI operation of the workload, with fresh families and its output
    # written to the null device: `table` writes its rows as the lookup gives
    # them, the oracle compares its lookup's blocks with the table, and the
    # eigenvalues reduce only the powers past phi(e) (the highest reads about
    # 0.61 MiB); with the table held whole, the oracle's table beside it and
    # the phi(e) x e reduction matrix, the dim-462 tables read 1.10 to
    # 1.24 MiB and `spectrum` on hamming(1,257) 0.67
    ops = _script("ops", monkeypatch)
    peaks = {}
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", null)
        for op in ops.WORKLOADS["certify-tables"]:
            families._cached_family.cache_clear()
            tracemalloc.start()
            try:
                code = cli.main(op.args.split())
                peaks[op.args] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, op.args
    assert len(peaks) == 17
    over = {args: peak for args, peak in peaks.items() if peak > 0.65 * (1 << 20)}
    assert not over, over
