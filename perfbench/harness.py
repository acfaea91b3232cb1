"""Running operations in fresh interpreters, checking their outputs, and
turning timings and traces into metrics."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ops import Op
from spawner import OP_TIMEOUT_S
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# per process, so runs in one checkout at the same time do not share files
TMP = ROOT / ".perfbench_tmp" / str(os.getpid())
EXPECTED_PATH = BENCH_DIR / "expected.json"

# One client runs one operation at a time: one CLI pool thread times one BLAS
# thread stays within any machine's CPU count.  At the CLI defaults (a pool
# thread and a BLAS thread per CPU) oracle runs vary far more between runs.
CLI_THREADS = 1
BLAS_THREADS = 1


def op_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "NORTON_SEED", "NORTON_BUDGET")}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS))
    return env


def op_argv(op: Op, seed: int) -> list[str]:
    """Interpreter arguments of one operation (after the interpreter itself)."""
    args = op.args.split()
    if op.api:
        return [str(BENCH_DIR / "find_identity.py")] + args
    args += ["--threads", str(CLI_THREADS)]
    if op.seeded:
        args += ["--seed", str(seed)]
    return ["-m", "nortonalg.cli"] + args


_spawner: subprocess.Popen | None = None


def cleanup() -> None:
    """Stop the spawner (it kills a running operation and waits for it), then
    remove this process's output files, and the shared parent when empty."""
    global _spawner
    if _spawner is not None:
        _spawner.terminate()
        _spawner.wait()
        _spawner = None
    shutil.rmtree(TMP, ignore_errors=True)
    try:
        TMP.parent.rmdir()
    except OSError:
        pass


@dataclass
class Run:
    """One finished process."""

    seconds: float
    exit_code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], tag: str) -> Run:
    """Run the interpreter with argv in the operations' environment, through
    spawner.py, and time it from spawn to exit.  Output goes to files, so
    large payloads never block on a pipe."""
    global _spawner
    TMP.mkdir(parents=True, exist_ok=True)
    if _spawner is None:
        _spawner = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawner.py")],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    env=op_env(), cwd=ROOT, text=True)
    out_path, err_path = TMP / f"{tag}.out", TMP / f"{tag}.err"
    request = {"argv": argv, "out": str(out_path), "err": str(err_path), "cwd": str(ROOT)}
    _spawner.stdin.write(json.dumps(request) + "\n")
    _spawner.stdin.flush()
    line = _spawner.stdout.readline()
    if not line:
        raise RuntimeError(f"spawner.py exited with code {_spawner.wait()}")
    reply = json.loads(line)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    if reply["timed_out"]:
        stderr += f"\nkilled after {OP_TIMEOUT_S} s".encode()
    return Run(reply["seconds"], reply["exit"], reply["rss_mb"], stdout, stderr)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def facts(stdout: bytes) -> dict:
    """The payload fields that do not depend on the seed.

    Large results are reduced to a digest.  Fields a later change may add to a
    payload are ignored, so only a changed answer fails the check.
    """
    text = stdout.decode()
    if text.startswith("*,"):  # table --format csv: the same table digest as JSON
        head, *lines = text.splitlines()
        # labels may contain commas, so split the last dim cells off each row
        rows = [line.rsplit(",", len(lines)) for line in lines]
        return {"table_sha256": _sha([[int(v) for v in row[1:]] for row in rows]),
                "labels_sha256": _sha([head] + [row[0] for row in rows])}
    p = json.loads(text)
    cmd = p["command"]
    if cmd == "table":
        return {"table_sha256": _sha(p["table"]), "basis_sha256": _sha(p["basis"]),
                "oracle_verified": p["oracle_verified"], "status": p["status"]}
    if cmd == "spectrum":
        return {"spectrum": p["spectrum"], "eigenvectors_verified": p["eigenvectors_verified"],
                "status": p["status"]}
    if cmd == "oracle-verify":
        return {"spaces": [[s["i"], s["dim"], s["ok"]] for s in p["spaces"]],
                "all_ok": p["all_ok"]}
    if cmd == "nonassoc":
        # exact-mode counts are certified; witness lower bounds depend on the seed
        return {"exact_counts": [[r["m"], r["class_count"]] for r in p["reports"]
                                 if r["mode"] == "exact"]}
    if cmd == "idempotents":
        return {k: p[k] for k in ("count", "nilpotent_count", "eta_relations",
                                  "primitivity_facts", "status")}
    if cmd == "autocheck":
        return {"samples": len(p["results"]), "all_ok": p["all_ok"]}
    if cmd == "isocheck":
        return {"checks": [[c["name"], c["ok"]] for c in p["checks"]], "all_ok": p["all_ok"]}
    if cmd == "find_identity":
        return {"identity": p["identity"]}
    raise ValueError(f"no output check for command {cmd!r}")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check(op: Op, run: Run, expected: dict) -> tuple[str | None, bool]:
    """(why the run failed or None, whether it gave a wrong answer).

    An operation fails on a wrong exit code, or on an output that differs from
    the recorded facts (a failed verdict differs in its all_ok or status).
    Every failure is a wrong answer, except the known defect of an operation
    that has one: a readable output that differs from the recorded facts only
    in the defect's own facts.
    """
    want = expected.get(op.key)
    if want is None:
        return "no recorded expectation", True
    failure = None
    if run.exit_code != want["exit"]:
        failure = f"exit {run.exit_code}, expected {want['exit']}"
    try:
        got = facts(run.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return failure or f"unreadable output: {exc!r}", True
    differ = [k for k, v in want["facts"].items() if got.get(k) != v]
    if differ and failure is None:
        k = differ[0]
        failure = f"{k} is {str(got.get(k))[:80]}, expected {str(want['facts'][k])[:80]}"
    if failure is None:
        return None, False
    known = set(op.known_defect["facts"]) if op.known_defect else None
    return failure, known is None or not set(differ) <= known


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: every order statistic weighted
    by the Beta((n+1)p, (n+1)(1-p)) mass of its slot.  A pool mixes operations
    of different lengths, so the plain sample quantile jumps from one
    operation's time to its neighbour's when noise reorders them; this
    estimate moves smoothly instead."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = 256  # midpoint rule per slot
    t = (np.arange(grid * n) + 0.5) / (grid * n)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, grid).sum(axis=1)
    return float(w @ x / w.sum())


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (estimate, percentile).  Needs at least 11 samples."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    # the (n-10)th of n order statistics sits at quantile (n-10)/(n+1)
    return quantile(samples, (n - 10) / (n + 1)), 100.0 * (n - 10) / n


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:  # a checkout that is not a git repository has no commit to record
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cli_threads": CLI_THREADS,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "seed": seed,
    }


CALLS = ("families.closed_product", "groups.add", "groups.dot", "autos.is_algebra_automorphism",
         "cyclotomic.mul", "cyclotomic.inv")
BUSY = ("families.closed_product", "families.basis", "families.vertices", "cayley.spectrum",
        "cayley.verify_all_eigenvectors", "norton.verify_oracle_space",
        "norton.classified_idempotents", "norton.primitivity_facts_check",
        "norton.find_identity", "norton.verify_isomorphism", "trees.count_classes_exact",
        "trees.count_classes_witness", "cyclotomic.mul")
COUNTERS = ("norton.oracle.pairs", "trees.exact.evals", "trees.witness.attempts",
            "autos.is_algebra_automorphism.pairs")


def merge_traces(traces: list[dict]) -> dict:
    funcs: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for t in traces:
        for k, s in t["functions"].items():
            acc = funcs.setdefault(k, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for f in acc:
                acc[f] += s[f]
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {"functions": funcs, "counters": counters,
            "hook_errors": sum(t["hook_errors"] for t in traces)}


def layer_metrics(merged: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics, each as {"value", "unit"}."""
    funcs, counters = merged["functions"], merged["counters"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", sum((s["self_s"] for k, s in funcs.items()
                                    if k.split(".")[0] == layer), 0.0), "s")
    for key in CALLS:
        put(f"{key}.calls", funcs.get(key, {}).get("calls", 0), "count")
    for key in BUSY:
        put(f"{key}.busy_s", funcs.get(key, {}).get("busy_s", 0.0), "s")
    for key in COUNTERS:
        put(key, counters.get(key, 0), "count")
    oracle_s = funcs.get("norton.verify_oracle_space", {}).get("busy_s", 0.0)
    put("norton.oracle.pairs_per_s",
        counters.get("norton.oracle.pairs", 0) / oracle_s if oracle_s else 0.0, "1/s")
    trees = counters.get("trees.witness.trees", 0)
    put("trees.witness.separated_frac",
        counters.get("trees.witness.classes", 0) / trees if trees else 0.0, "frac")
    put("trace.overhead_frac", traced_s / untraced_s - 1.0, "frac")
    return out
