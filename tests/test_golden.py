"""Byte-identity gate: sha256 digests of CLI outputs that refactors must keep.

Covers `table` in json, csv and text for every (family, i) of the criterion-1
instances, `isocheck`, a fixed set of `autocheck` and exact-mode `nonassoc`
runs, and `oracle-verify` on every criterion-1 family.  The digests in
golden_digests.json were recorded from the code before the product-table
refactor, and the oracle digests from the packed-float64 oracle before the
integer row-sum oracle replaced it.  The five `autocheck` cases after the
first six (translations by roots of order 3, right actions by 3 x 3
matrices, both kernel-check branches, the halved-cube class i = n/2) were
recorded from the per-label monomial maps before the array candidates
replaced them.  The five `nonassoc` cases after the first six (witness mode
in json and csv, witness on a zero product, `auto` switching to witness,
exact mode up to m = 9) were recorded from the tuple-at-a-time tree
evaluators before the live-interval counters replaced them.  An intended output change must say so where it rewrites
the digests.  To rewrite them from the code on the path:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from nortonalg.cli import main
from nortonalg.families import make_family

DIGESTS = Path(__file__).with_name("golden_digests.json")

FAMILY_ARGS = (
    [f"--family hamming --n {n} --e {e}" for n in range(1, 5) for e in range(2, 6)]
    + [f"--family hypercube --n {n}" for n in range(1, 9)]
    + [f"--family halved-cube --n {n}" for n in range(2, 9)]
    + [f"--family folded-cube --n {n}" for n in range(3, 9)]
    + [f"--family folded-half-cube --n {n}" for n in (6, 8)]
    + [f"--family bilinear --q {q} --d 2 --e 2" for q in (2, 3)]
)

OTHER_CASES = [
    "isocheck",
    "autocheck --family hamming --n 2 --e 3 --i 1 --samples 10 --seed 0",
    "autocheck --family hamming --n 3 --e 2 --i 2 --samples 5 --seed 3",
    "autocheck --family hamming --n 3 --e 4 --i 2 --samples 2 --seed 1",
    "autocheck --family hypercube --n 5 --i 2 --samples 5 --seed 2",
    "autocheck --family halved-cube --n 6 --i 2 --samples 5 --seed 4",
    "autocheck --family bilinear --q 2 --d 2 --e 2 --i 1 --samples 6 --seed 1",
    "autocheck --family bilinear --q 3 --d 2 --e 2 --i 2 --samples 6 --seed 2",
    "autocheck --family bilinear --q 2 --d 2 --e 3 --i 2 --samples 6 --seed 5",
    "autocheck --family hamming --n 3 --e 4 --i 1 --samples 3 --seed 6",
    "autocheck --family hamming --n 4 --e 3 --i 2 --samples 3 --seed 7",
    "autocheck --family halved-cube --n 8 --i 4 --samples 4 --seed 8",
    "nonassoc --family hamming --n 1 --e 3 --max-m 6 --mode exact",
    "nonassoc --family hamming --n 2 --e 3 --i 2 --max-m 5 --mode exact --format csv",
    "nonassoc --family hypercube --n 4 --i 2 --max-m 5 --mode exact --format text",
    "nonassoc --family hamming --n 1 --e 4 --max-m 5 --mode exact",
    "nonassoc --family halved-cube --n 6 --i 2 --max-m 3 --mode exact",
    "nonassoc --family bilinear --q 2 --d 2 --e 2 --i 2 --max-m 3 --mode exact",
    "nonassoc --family hamming --n 3 --e 3 --i 2 --max-m 6 --mode witness --seed 1",
    "nonassoc --family hamming --n 2 --e 3 --i 1 --max-m 4 --mode witness --attempts 2000"
    " --seed 2 --format csv",
    "nonassoc --family hypercube --n 4 --i 3 --max-m 4 --mode witness --attempts 50",
    "nonassoc --family hypercube --n 4 --i 2 --max-m 5 --budget 100000",
    "nonassoc --family hamming --n 1 --e 3 --max-m 9 --mode exact --format text",
]

ORACLE_CASES = [f"oracle-verify {fam_args}" for fam_args in FAMILY_ARGS] + [
    "table --family halved-cube --n 8 --i 4 --verify-oracle --format text",
    "table --family folded-half-cube --n 8 --i 2 --verify-oracle --format text",
]


def _family(args: str):
    opts = args.split()[1:]
    kind = opts[0]
    vals = {opts[k][2:]: int(opts[k + 1]) for k in range(1, len(opts), 2)}
    return make_family(kind, **vals)


def cases() -> list[str]:
    out = []
    for fam_args in FAMILY_ARGS:
        for i in _family(fam_args).eigenspaces():
            for fmt in ("json", "csv", "text"):
                out.append(f"table {fam_args} --i {i} --format {fmt}")
    return out + OTHER_CASES + ORACLE_CASES


def digest(case: str) -> str:
    """Exit code and sha256 of stdout of one CLI run."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(case.split())
    return f"exit {code} sha256 {hashlib.sha256(buf.getvalue().encode('utf-8')).hexdigest()}"


def test_cli_outputs_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(cases())
    changed = [case for case in cases() if digest(case) != recorded[case]]
    assert not changed, changed


if __name__ == "__main__":
    table = {case: digest(case) for case in cases()}
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
