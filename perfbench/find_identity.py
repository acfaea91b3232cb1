"""Unitality decision through the public API, as one benchmark operation.

    PYTHONPATH=src python3 perfbench/find_identity.py --family hypercube --n 8 --i 4

`find_identity` has no CLI subcommand, so this prints a JSON payload in the
CLI's style: the identity element of V_i as label -> coefficient, or null when
V_i has none.
"""

from __future__ import annotations

import argparse
import json
import sys

import nortonalg


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--family", required=True)
    for name in ("n", "e", "q", "d", "i"):
        parser.add_argument(f"--{name}", type=int, default=None)
    args = parser.parse_args(argv)
    fam = nortonalg.make_family(args.family, n=args.n, e=args.e, q=args.q, d=args.d)
    identity = nortonalg.find_identity(fam, args.i)
    payload = {
        "command": "find_identity",
        "family": fam.describe(),
        "i": args.i,
        "identity": None if identity is None else {
            fam.label_text(label): c.to_json() for label, c in sorted(identity.coeffs.items())},
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
