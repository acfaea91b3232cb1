"""The benchmark's operations: four workload pools, the two pairs of them
that BENCHMARK.json runs, and a one-operation-per-pool smoke list.

An operation is one fresh-interpreter invocation, either of the CLI
(`python -m nortonalg.cli ARGS`) or, for the unitality decision that has no
subcommand, of `perfbench/find_identity.py ARGS`.  Operations marked `seeded`
also receive the workload seed as `--seed`.  Every CLI operation receives the
pinned `--threads`.

Instance sizes were chosen from timings on a 2-CPU x86_64 box (Python 3.11,
numpy 2.4 with OpenBLAS) so that one pass over a pool takes a few seconds and
no single operation dominates it.  `PASS_S` records the pass time measured
there; a run makes round(seconds / PASS_S) passes, so every run of a workload
measures the same multiset of operations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    args: str
    seeded: bool = False
    api: bool = False  # run perfbench/find_identity.py instead of the CLI
    # the outcome the program should give when it differs from what it gives
    # at the commit the expectations were recorded at; see record.py
    known_defect: dict | None = None

    @property
    def key(self) -> str:
        return ("find_identity " if self.api else "") + self.args


# cayley.exponent_matrix and norton.verify_oracle_space cast exponents to uint8,
# so e >= 257 wraps: the spectrum printed is right but the run reports
# "mismatch" and exits 1.
E257 = {"exit": 0, "facts": {"status": "ok", "eigenvectors_verified": True}}

WORKLOADS: dict[str, list[Op]] = {
    # The numpy projection oracle (norton) and the adjacency check (cayley).
    "certify": [
        Op("oracle-verify --family hamming --n 3 --e 4"),
        Op("oracle-verify --family halved-cube --n 10"),
        Op("oracle-verify --family folded-cube --n 9"),
        Op("oracle-verify --family bilinear --q 2 --d 2 --e 3"),
        Op("oracle-verify --family folded-half-cube --n 8"),
        Op("table --family halved-cube --n 10 --i 5 --verify-oracle"),
        Op("spectrum --family hamming --n 4 --e 5 --verify"),
        Op("spectrum --family bilinear --q 3 --d 2 --e 3 --verify"),
        Op("spectrum --family hamming --n 1 --e 257 --verify", known_defect=E257),
    ],
    # Product tables built pair by pair through families.closed_product, and
    # payloads of up to a few MB encoded and written by cli.
    "tables": [
        Op("table --family hypercube --n 11 --i 5"),
        Op("table --family hypercube --n 11 --i 5 --format csv"),
        Op("table --family bilinear --q 2 --d 3 --e 3 --i 2"),
        Op("table --family bilinear --q 2 --d 2 --e 4 --i 2"),
        Op("table --family halved-cube --n 12 --i 6"),
        Op("table --family halved-cube --n 11 --i 5"),
        Op("table --family folded-cube --n 13 --i 5"),
        Op("table --family hamming --n 4 --e 5 --i 3"),
    ],
    # Exact Q(w) arithmetic (cyclotomic, fractions) under the product rule with
    # coefficients: idempotents, automorphisms, isomorphisms, unitality.
    "field": [
        Op("idempotents --e 4"),
        Op("idempotents --e 5"),
        Op("idempotents --e 6"),
        Op("autocheck --family hamming --n 4 --e 5 --i 4 --samples 1", seeded=True),
        Op("autocheck --family hamming --n 3 --e 4 --i 2 --samples 4", seeded=True),
        Op("autocheck --family hypercube --n 8 --i 4 --samples 2", seeded=True),
        Op("autocheck --family halved-cube --n 8 --i 2 --samples 4", seeded=True),
        Op("autocheck --family bilinear --q 2 --d 2 --e 3 --i 2 --samples 3", seeded=True),
        Op("isocheck"),
        Op("--family hypercube --n 8 --i 4", api=True),
    ],
    # Associative spectra in trees: numpy fingerprints (exact mode) and the
    # pure-Python postfix loop (witness mode).
    "assoc": [
        Op("nonassoc --family hamming --n 1 --e 3 --max-m 10 --mode exact --budget 100000000"),
        Op("nonassoc --family hypercube --n 4 --i 2 --max-m 6 --mode exact --budget 100000000"),
        Op("nonassoc --family hamming --n 1 --e 4 --max-m 8 --mode exact --budget 100000000"),
        Op("nonassoc --family hamming --n 2 --e 3 --i 2 --max-m 6 --mode exact"),
        Op("nonassoc --family hamming --n 3 --e 3 --i 2 --max-m 7", seeded=True),
        Op("nonassoc --family hamming --n 3 --e 3 --i 2 --max-m 7 --mode witness", seeded=True),
        # its trees cannot all be separated, so witness mode spends every attempt
        Op("nonassoc --family hamming --n 2 --e 3 --i 1 --max-m 5 --mode witness", seeded=True),
    ],
}

PASS_S = {"certify": 7.3, "tables": 7.3, "field": 5.0, "assoc": 5.0}

# one cheap operation per workload, for selftest.py
SMOKE: dict[str, list[Op]] = {
    "certify": [Op("oracle-verify --family hamming --n 2 --e 3")],
    "tables": [Op("table --family hamming --n 2 --e 3 --i 1 --format csv")],
    "field": [Op("autocheck --family hamming --n 2 --e 3 --i 1 --samples 2", seeded=True)],
    "assoc": [Op("nonassoc --family hamming --n 1 --e 3 --max-m 5 --mode witness", seeded=True)],
}


# BENCHMARK.json runs the pools in pairs.  On a shared 2-CPU machine whose
# speed drifts over seconds to minutes, a fixed total measuring time buys two
# workloads with runs about 45 s long, which spread far less from run to run
# than four workloads with 20 s runs.  Each single pool can still be run.
for _name, _parts in {"certify-tables": ("certify", "tables"),
                      "field-assoc": ("field", "assoc")}.items():
    WORKLOADS[_name] = [op for p in _parts for op in WORKLOADS[p]]
    SMOKE[_name] = [op for p in _parts for op in SMOKE[p]]
    PASS_S[_name] = sum(PASS_S[p] for p in _parts)


def all_ops() -> list[Op]:
    pools = list(WORKLOADS.values()) + list(SMOKE.values())
    return list({op.key: op for pool in pools for op in pool}.values())
