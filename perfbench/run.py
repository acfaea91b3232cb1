"""nortonalg benchmark: CLI operations in fresh interpreters, end to end.

    python3 perfbench/run.py --workload certify-tables --seed 1 --seconds 44 --trace 0

Run from the root of a checkout that has `src/nortonalg`.  One client runs a
closed loop: the next operation starts when the previous one has exited.  A
run makes round(seconds / PASS_S) passes (at least enough for a tail of 11
samples) over the workload's pool, in an order the seed shuffles; the seed is
also the `--seed` of seeded operations.  The pool itself never depends on the
seed.  Every operation's exit code and output are checked against
`expected.json`.

--trace 0 prints the end-to-end metrics:
  op_p50_s     median seconds per operation, spawn to exit
  op_tail_s    highest percentile with at least ten samples beyond it
               (both quantiles are Harrell-Davis estimates)
  ops_per_s    operations per second of the timed phase (the operations'
               spawn-to-exit times; the harness's checks between them excluded)
  ok_frac      share of attempted operations that succeeded (1 - failed_frac)
  setup_s      median time of a fresh `import nortonalg.cli`, about 12 probes
               spread over the run
  peak_rss_mb  highest resident memory of any operation's process
--trace 1 runs one pass, each operation once plain and once under tracer.py,
and prints the per-layer metrics plus trace.overhead_frac.

The last stdout line is one JSON object: correct (no operation gave a wrong
answer), attempted, failed, metrics.  --out FILE also writes the full result,
with every sample and the machine record, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import signal
import statistics
import sys

import harness
from ops import PASS_S, SMOKE, WORKLOADS

SETUP_PROBES = 12
SETUP_ARGV = ["-c", "import nortonalg.cli"]
END_TO_END = ("op_p50_s", "op_tail_s", "ops_per_s", "ok_frac", "setup_s", "peak_rss_mb")


def _run_op(op, seed, expected, argv_prefix=()):
    run = harness.spawn(list(argv_prefix) + harness.op_argv(op, seed), "op")
    failure, wrong = harness.check(op, run, expected)
    sample = {"op": op.key, "seconds": run.seconds, "rss_mb": run.rss_mb,
              "exit": run.exit_code, "failure": failure, "wrong": wrong}
    if failure:
        sample["stderr_tail"] = run.stderr.decode(errors="replace")[-400:]
    return run, sample


def timed(pool, passes, seed, expected, rng):
    """Closed loop over `passes` shuffled passes.  Setup probes are spread
    over the run, one every few operations, so setup_s sees the same machine
    as the operations do."""
    order = [op for _ in range(passes) for op in rng.sample(pool, len(pool))]
    every = max(1, len(order) // SETUP_PROBES)
    samples, probes = [], []
    for k, op in enumerate(order):
        if k % every == 0:
            probes.append(harness.spawn(SETUP_ARGV, "setup"))
        samples.append(_run_op(op, seed, expected)[1])
    times = [s["seconds"] for s in samples]
    value, pct = harness.tail(times)
    failed = sum(1 for s in samples if s["failure"])
    metrics = {
        "op_p50_s": (harness.quantile(times, 0.5), "s"),
        "op_tail_s": (value, "s"),
        "op_tail_pct": (pct, "%"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "ok_frac": (1 - failed / len(samples), "frac"),
        "failed_frac": (failed / len(samples), "frac"),
        "peak_rss_mb": (max(s["rss_mb"] for s in samples), "MB"),
        "setup_s": (statistics.median(p.seconds for p in probes), "s"),
    }
    return samples, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(pool, seed, expected, rng):
    samples, traces = [], []
    plain_s = traced_s = 0.0
    trace_path = harness.TMP / "trace.json"
    tracer = [str(harness.BENCH_DIR / "tracer.py"), str(trace_path)]
    for k, op in enumerate(rng.sample(pool, len(pool))):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            trace_path.unlink(missing_ok=True)
            run, sample = _run_op(op, seed, expected, tracer if with_trace else ())
            samples.append(sample)
            if not with_trace:
                plain_s += run.seconds
                continue
            traced_s += run.seconds
            try:
                traces.append(json.loads(trace_path.read_text()))
            except (OSError, ValueError) as exc:
                sample["failure"] = sample["failure"] or f"no trace written: {exc}"
                continue
            sample["spans"] = traces[-1]["spans"]
    merged = harness.merge_traces(traces)
    return samples, merged, harness.layer_metrics(merged, traced_s, plain_s)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="run the one-operation smoke pool instead (selftest.py)")
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so the running operation
    # is killed and waited for and the output files are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (harness.SRC / "nortonalg" / "cli.py").is_file():
        print(f"error: no nortonalg sources under {harness.SRC}", file=sys.stderr)
        return 2
    try:
        expected = harness.load_expected()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {harness.EXPECTED_PATH}: {exc}", file=sys.stderr)
        return 2
    pool = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    try:
        # this probe also compiles the package's bytecode before anything is timed
        probe = harness.spawn(SETUP_ARGV, "setup")
        if probe.exit_code != 0:
            print("error: `import nortonalg.cli` failed:\n" + probe.stderr.decode(errors="replace"),
                  file=sys.stderr)
            return 2
        machine = harness.machine_record(args.seed)
        if args.trace:
            samples, merged, metrics = traced(pool, args.seed, expected, rng)
            result = {"layers": merged}
        else:
            passes = max(round(args.seconds / PASS_S[args.workload]), math.ceil(11 / len(pool)))
            samples, metrics = timed(pool, passes, args.seed, expected, rng)
            result = {"passes": passes}
    finally:
        harness.cleanup()

    failed = [s for s in samples if s["failure"]]
    reported = {k: m for k, m in metrics.items() if args.trace or k in END_TO_END}
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(samples)} pool={len(pool)}")
    print("# machine " + json.dumps(machine, sort_keys=True))
    for name, m in reported.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{metrics['op_tail_pct']['value']:.1f} of {len(samples)} samples)"
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'failed_frac':40s} {len(failed) / len(samples):.6g} frac  "
          f"({len(failed)} of {len(samples)} operations failed)")
    for s in failed:
        print(f"# FAILED {s['op']}: {s['failure']}", file=sys.stderr)
    if args.trace and result["layers"]["hook_errors"]:
        print(f"# {result['layers']['hook_errors']} tracer counter hooks failed; "
              "their counters are incomplete", file=sys.stderr)

    if args.out:
        result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, smoke=args.smoke, machine=machine,
                      metrics=metrics, samples=samples)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not any(s["wrong"] for s in samples),
                      "attempted": len(samples), "failed": len(failed),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
