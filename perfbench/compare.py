"""Compare benchmark results of a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --run PARENT_ROOT CHANGE_ROOT \\
        [--pairs 10] [--trace]

Each directory holds the files `run.py --out` wrote.  Runs of the same
workload, seed and trace setting on both sides form a pair.  With --run the
pairs are made first: for seeds 1..PAIRS each workload of BENCHMARK.json runs
in both checkouts, alternating which side goes first.

For each workload and end-to-end metric of BENCHMARK.json this prints both
sides' medians and quartiles, the share of pairs the change won (ties count
for neither) and a verdict:
  better               the change won at least 9/10 of the pairs and the
                       medians differ by more than the parent's quartile range
  worse beyond bound   the change's median is worse by more than the bound
  worse within bound   worse, but by no more than the bound
  unchanged            neither of the above
  unresolved           the parent's own quartile range is wider than the
                       bound and the runs of the two sides overlap
Per-layer counts of traced runs are compared as exact counts, not as speed-ups.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def load(directory: str) -> dict:
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        out[(r["workload"], r["seed"], r["trace"])] = r
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1 if better == "lower" else -1  # sign * (change - parent) > 0 means worse
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    share = wins / len(parent)
    q1, pmed, q3 = quartiles(parent)
    cmed = statistics.median(change)
    worse = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    separated = (max(change) < min(parent)) if sign > 0 else (min(change) > max(parent))
    if pmed and (q3 - q1) / abs(pmed) > bound and not separated:
        return "unresolved", share
    if share >= 0.9 and sign * (cmed - pmed) < 0 and abs(cmed - pmed) > q3 - q1:
        return "better", share
    if worse > bound:
        return "worse beyond bound", share
    if worse > 0:
        return "worse within bound", share
    return "unchanged", share


def report(parent: dict, change: dict) -> None:
    pairs = sorted(k for k in parent if k in change and k[0] in WORKLOADS)
    if not pairs:
        raise SystemExit("error: no runs of the same workload, seed and trace on both sides")
    fmt = "{:14s} {:12s} {:>26s} {:>26s} {:>5s}  {}"
    print(fmt.format("workload", "metric", "parent q1/median/q3", "change q1/median/q3",
                     "won", "verdict"))
    for w in WORKLOADS:
        keys = [k for k in pairs if k[0] == w and k[2] == 0]
        for m in SPEC["end_to_end"] if keys else []:
            p = [parent[k]["metrics"][m["name"]]["value"] for k in keys]
            c = [change[k]["metrics"][m["name"]]["value"] for k in keys]
            v, share = verdict(p, c, m["better"], m["bound"])
            cols = ["{:.4g}/{:.4g}/{:.4g}".format(*quartiles(xs)) for xs in (p, c)]
            print(fmt.format(w, m["name"], *cols, f"{share:.0%}", f"{v} (n={len(keys)})"))
        traced = [k for k in pairs if k[0] == w and k[2] == 1]
        for m in SPEC["per_layer"] if traced else []:
            if m["unit"] != "count":
                continue
            p = [parent[k]["metrics"][m["name"]]["value"] for k in traced]
            c = [change[k]["metrics"][m["name"]]["value"] for k in traced]
            same = sum(1 for a, b in zip(p, c) if a == b)
            print(f"{w:14s} {m['name']:40s} count {statistics.median(p):.0f} -> "
                  f"{statistics.median(c):.0f}  (equal in {same} of {len(p)} pairs)")


def run_pairs(dirs: list[str], roots: list[str], n: int, trace: bool):
    for d in dirs:
        Path(d).mkdir(parents=True, exist_ok=True)
    for seed in range(1, n + 1):
        for k, w in enumerate(WORKLOADS):
            order = [0, 1] if (seed + k) % 2 else [1, 0]
            for side in order:
                out = Path(dirs[side]).resolve() / f"{w}-{seed}-{int(trace)}.json"
                cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                       "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace)),
                       "--out", str(out)]
                subprocess.run(cmd, cwd=roots[side], check=True, stdout=subprocess.DEVNULL)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--run", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"),
                        help="first make the pairs by running both checkouts")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true", help="make traced pairs (with --run)")
    args = parser.parse_args(argv)
    if args.run:
        run_pairs([args.parent_dir, args.change_dir], args.run, args.pairs, args.trace)
    report(load(args.parent_dir), load(args.change_dir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
