"""Benchmark self-test: runs the harness, the output checks, the tracer and
the comparison report end to end on one cheap operation per workload.

    python3 perfbench/selftest.py

Exits 0 when everything works, 1 with a message otherwise.  Takes well under
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness
from ops import SMOKE, WORKLOADS, Op, all_ops

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
OUT = harness.ROOT / ".perfbench_selftest"


def run(workload: str, trace: int, out: str) -> dict:
    cmd = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--smoke", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, names: list[str], workload: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, result)
    assert sorted(result["metrics"]) == sorted(names), (workload, sorted(result["metrics"]))


def _wrong(op: Op, exit_code: int, payload: dict | str, expected: dict) -> bool:
    stdout = (payload if isinstance(payload, str) else json.dumps(payload)).encode()
    failure, wrong = harness.check(op, harness.Run(0, exit_code, 0, stdout, b""), expected)
    assert failure or not wrong, (op.key, failure, wrong)
    return wrong


def check_output_checks() -> None:
    """A changed table, labels or basis, a wrong exit code and a failed
    verdict are wrong answers; only a known defect fails without one."""
    expected = harness.load_expected()
    op = SMOKE["tables"][0]
    good = harness.spawn(harness.op_argv(op, 0), "selftest")
    assert harness.check(op, good, expected) == (None, False)
    lines = good.stdout.decode().splitlines()
    changed_cell = lines[:1] + [lines[1].rsplit(",", 1)[0] + ",99"] + lines[2:]
    changed_label = ["*," + lines[0][2:].replace("1", "3", 1)] + lines[1:]
    for changed in (changed_cell, changed_label):
        assert changed != lines and _wrong(op, 0, "\n".join(changed) + "\n", expected)
    assert _wrong(op, 1, good.stdout.decode(), expected)

    # the basis is part of a JSON table's facts
    json_op = Op(op.args.replace(" --format csv", ""))
    run = harness.spawn(harness.op_argv(json_op, 0), "selftest")
    payload = json.loads(run.stdout)
    local = {json_op.key: {"exit": 0, "facts": harness.facts(run.stdout)}}
    assert not _wrong(json_op, 0, payload, local)
    payload["basis"] = payload["basis"][::-1]
    assert _wrong(json_op, 0, payload, local)

    iso = expected["isocheck"]["facts"]
    verdict = {"command": "isocheck", "checks": [{"name": n, "ok": ok} for n, ok in iso["checks"]],
               "all_ok": False}
    assert not _wrong(Op("isocheck"), 0, {**verdict, "all_ok": True}, expected)
    assert _wrong(Op("isocheck"), 1, verdict, expected)

    # the uint8 defect: exit 1 and a "mismatch" status, but the right spectrum
    defect = next(op for op in all_ops() if op.known_defect)
    spec = expected[defect.key]["facts"]["spectrum"]
    out = {"command": "spectrum", "spectrum": spec, "eigenvectors_verified": False,
           "status": "mismatch"}
    assert harness.check(defect, harness.Run(0, 1, 0, json.dumps(out).encode(), b""),
                         expected)[0]
    assert not _wrong(defect, 1, out, expected)
    assert _wrong(defect, 1, {**out, "spectrum": spec[::-1]}, expected)
    assert _wrong(defect, 1, "Traceback", expected)

    missing = [op.key for op in all_ops() if op.key not in expected]
    assert not missing, f"no recorded expectation for {missing}"


def main() -> int:
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert set(workloads) <= set(WORKLOADS), workloads
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        check_output_checks()
        for side in ("a", "b"):
            (OUT / side).mkdir(parents=True)
            for w in workloads:
                for trace, names in ((0, e2e), (1, layers)):
                    check_result(run(w, trace, str(OUT / side / f"{w}-{trace}.json")), names, w)
        proc = subprocess.run([sys.executable, str(harness.BENCH_DIR / "compare.py"),
                               str(OUT / "a"), str(OUT / "b")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        for w in workloads:
            assert f"{w} " in proc.stdout and "families.closed_product.calls" in proc.stdout
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        harness.cleanup()
    print("selftest ok: harness, output checks, tracer and comparison on "
          f"{', '.join(workloads)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
