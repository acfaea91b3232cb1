"""Traced-run bootstrap: runs one benchmark operation in this interpreter with
every public function of the nortonalg layers wrapped, then writes the
aggregated layer statistics as JSON.

    python3 perfbench/tracer.py OUT.json -m nortonalg.cli ARGS...
    python3 perfbench/tracer.py OUT.json perfbench/find_identity.py ARGS...

The wrappers are installed from outside; the package itself is never edited.
Each function is patched on its class, or in every nortonalg module namespace
that holds it, so calls are counted wherever the name is looked up.  Every
call is aggregated into counters (calls, busy time of the outermost call, self
time excluding wrapped callees).  Spans with start, end and parent are kept
only for the first SPAN_LIMIT calls of each function, so hot functions such as
`closed_product` and `Cyclotomic.__mul__` cost a counter update, not a span.
Everything stays in memory until the operation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import runpy
import sys
import threading
import time
import types

LAYERS = ("cli", "families", "groups", "cayley", "norton", "trees", "autos", "cyclotomic")
# arithmetic dunders are Q(w) multiply/add/inverse; other dunders are bookkeeping
TRACED_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                  "__mul__", "__rmul__", "__truediv__", "__eq__"}
SPAN_LIMIT = 50

_clock = time.perf_counter


class Tracer:
    """Per-function counters plus a bounded list of spans.

    Only the thread that installed the tracer is traced; calls made on other
    threads run unwrapped, since the stack of open calls is not shared.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, busy_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list = []  # (key, start_s, end_s, parent span index or -1)
        self.hook_errors = 0
        self.paused = False  # set while a hook runs, so hooks are not counted
        self.span = -1  # innermost open call that records a span
        self._stack: list[float] = []  # time spent in wrapped callees, per open call
        self._thread = threading.get_ident()
        self._epoch = _clock()

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, key: str, fn):
        hook = HOOKS.get(key)
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        depth = [0]  # recursion depth, so busy time counts outermost calls only
        tracer, stack, spans, epoch = self, self._stack, self.spans, self._epoch
        get_ident, thread = threading.get_ident, self._thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused or get_ident() != thread:
                return fn(*args, **kwargs)
            stat[0] += 1
            parent = tracer.span
            span = -1
            if stat[0] <= SPAN_LIMIT:
                span = tracer.span = len(spans)
                spans.append(None)
            stack.append(0.0)
            depth[0] += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                depth[0] -= 1
                stat[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if not depth[0]:
                    stat[1] += elapsed
                tracer.span = parent
                if span >= 0:
                    spans[span] = (key, start - epoch, start - epoch + elapsed, parent)
            if hook is not None:
                tracer.paused = True
                try:
                    hook(tracer, fn, args, kwargs, result)
                except Exception:  # a counter must never change the traced program
                    tracer.hook_errors += 1
                finally:
                    tracer.paused = False
            return result

        return traced

    def dump(self, path: str, wall_s: float) -> None:
        out = {
            "wall_s": wall_s,
            "functions": {k: {"calls": c, "busy_s": b, "self_s": s}
                          for k, (c, b, s) in sorted(self.stats.items()) if c},
            "counters": self.counters,
            "hook_errors": self.hook_errors,
            "spans": [{"name": n, "start_s": a, "end_s": b, "parent": p}
                      for n, a, b, p in filter(None, self.spans)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


# ---------------------------------------------------------------------------
# Work counters derived from arguments and results, outside the program
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _oracle_pairs(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tracer.add("norton.oracle.pairs", len(a["family"].basis(a["i"])) ** 2)


def _auto_pairs(tracer, fn, args, kwargs, result):
    # the check covers every ordered basis pair, and the candidate is defined on the basis
    tracer.add("autos.is_algebra_automorphism.pairs",
               len(_bound(fn, args, kwargs)["candidate"]) ** 2)


def _exact_evals(tracer, fn, args, kwargs, result):
    tracer.add("trees.exact.evals", result.budget_used)


def _witness(tracer, fn, args, kwargs, result):
    tracer.add("trees.witness.attempts", result.budget_used)
    tracer.add("trees.witness.classes", result.class_count)
    tracer.add("trees.witness.trees", math.comb(2 * result.m, result.m) // (result.m + 1))


HOOKS = {
    "norton.verify_oracle_space": _oracle_pairs,
    "autos.is_algebra_automorphism": _auto_pairs,
    "trees.count_classes_exact": _exact_evals,
    "trees.count_classes_witness": _witness,
}


def _is_plain_callable(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    modules = {layer: importlib.import_module(f"nortonalg.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, layer, obj)
            elif _is_plain_callable(obj) and not name.startswith("_"):
                key = f"{layer}.{name}"
                replaced[id(obj)] = tracer.wrap(key, obj)
    # patch each function wherever a module looks it up by name
    for mod in list(sys.modules.values()):
        if mod is None or not (mod.__name__ == "nortonalg"
                               or mod.__name__.startswith("nortonalg.")):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    done: dict[int, object] = {}
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in TRACED_DUNDERS:
            continue
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if not isinstance(fn, types.FunctionType):
            continue
        if id(raw) not in done:
            key = f"{layer}.{fn.__name__.strip('_')}"
            wrapped = tracer.wrap(key, fn)
            done[id(raw)] = kind(wrapped) if kind else wrapped
        setattr(cls, attr, done[id(raw)])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py OUT.json (-m nortonalg.cli | SCRIPT) ARGS...", file=sys.stderr)
        return 2
    out_path, target = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    start = _clock()
    code = 0
    try:
        if target[:2] == ["-m", "nortonalg.cli"]:
            import nortonalg.cli
            code = nortonalg.cli.main(target[2:])
        else:
            sys.argv = target
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(out_path, _clock() - start)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
