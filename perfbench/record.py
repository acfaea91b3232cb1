"""Record the expected exit code and output facts of every benchmark
operation into expected.json.

    python3 perfbench/record.py

Run it from the root of a checkout at the commit whose outputs are the
reference.  Seeded operations run with three seeds and must give the same
facts under each.  An operation with a `known_defect` records the outcome
the program should give instead of the one it gives.
"""

from __future__ import annotations

import json
import sys

import harness
from ops import all_ops

SEEDS = (0, 1, 2)


def main() -> int:
    expected = {}
    try:
        for op in all_ops():
            seen = []
            for seed in SEEDS if op.seeded else SEEDS[:1]:
                run = harness.spawn(harness.op_argv(op, seed), "record")
                seen.append({"exit": run.exit_code, "facts": harness.facts(run.stdout)})
            if any(s != seen[0] for s in seen):
                print(f"error: {op.key} gives seed-dependent facts: {seen}", file=sys.stderr)
                return 1
            want = seen[0]
            if op.known_defect:
                want = {"exit": op.known_defect["exit"],
                        "facts": {**want["facts"], **op.known_defect["facts"]}}
            expected[op.key] = want
            print(f"{want['exit']}  {op.key}", flush=True)
    finally:
        harness.cleanup()
    harness.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
