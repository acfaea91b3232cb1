"""Command-line interface: spectra, multiplication tables, idempotents,
automorphism checks, oracle verification, nonassociativity reports, and
isomorphism checks, with deterministic machine-readable output.

Exit codes: 0 verified/success, 1 a claim check failed, 2 usage error,
3 budget exceeded, 4 internal error (one line on stderr, no traceback).

`table` computes the table, basis, labels and oracle verdict before it writes
anything, then writes the rows in blocks of TABLE_BLOCK_CELLS cells, so it
peaks at about the int32 table plus one block, not at copies of the output.

`main(argv)` is the in-process API: it returns the exit code.  `run()` is the
process entry (`python -m nortonalg.cli` and the `nortonalg` script): it
calls `main()`, flushes stdout and stderr and ends the process with
`os._exit`, skipping interpreter teardown, which has nothing to release: the
only file opened is closed by `_write`, and no thread or exit handler runs.

Every subcommand loads `cayley`, `families`, `groups` and `linalg`; the
others are imported where they are used:

- `spectrum` adds `cyclotomic`, which computes each eigenvalue in Q(w);
- `table` adds `norton` and `cyclotomic` only with `--verify-oracle`;
- `nonassoc` adds `trees`, and `autocheck` adds `autos`;
- `idempotents`, `oracle-verify` and `isocheck` add `norton` and
  `cyclotomic`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Iterable
from itertools import chain

import numpy as np

from .cayley import spectrum, verify_all_eigenvectors
from .errors import DEFAULT_EVAL_BUDGET, BudgetExceededError
from .families import FamilySpec, make_family

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

FAMILY_CHOICES = ["hamming", "hypercube", "halved-cube", "folded-cube",
                  "folded-half-cube", "bilinear"]


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise _usage_error(f"{name} must be an integer, got {raw!r}")


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """Argument type of --budget, --samples and --attempts."""
    return _int_at_least(text, 0)


def positive_int(text: str) -> int:
    """Argument type of --max-m."""
    return _int_at_least(text, 1)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = _env_int("NORTON_SEED")
    return 0 if env is None else env


def _resolve_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = _env_int("NORTON_BUDGET")
    if env is not None and env < 0:
        raise _usage_error(f"NORTON_BUDGET must be >= 0, got {env}")
    return DEFAULT_EVAL_BUDGET if env is None else env


def _family_from_args(args) -> FamilySpec:
    try:
        return make_family(args.family, n=args.n, e=args.e, q=args.q, d=args.d)
    except ValueError as exc:
        raise _usage_error(str(exc))


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _write(path: str, pieces: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise _usage_error(f"cannot write {path}: {exc.strerror or exc}")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


TABLE_SLOT = "<table>"  # stands for the table in the payload until it is rendered
TABLE_BLOCK_CELLS = 2**16  # table cells per write of `table`: about 1 MB of json text


def _row_blocks(table: np.ndarray, cells: list[str], sep: str, heads: list[str],
                end: str) -> Iterable[str]:
    """The table as text, TABLE_BLOCK_CELLS cells of whole rows per piece.  Row
    r reads heads[r], its entries joined by sep, then end, where entry v reads
    cells[v], so a zero product (-1) reads the last cell."""
    lookup = np.array(cells, dtype=object)
    step = max(1, TABLE_BLOCK_CELLS // len(table))
    for start in range(0, len(table), step):
        stop = start + step
        yield "".join(head + sep.join(lookup[row].tolist()) + end
                      for head, row in zip(heads[start:stop], table[start:stop]))


def _emit(args, pieces: Iterable[str]) -> None:
    """Write the output to --output or stdout, one write per piece."""
    if args.output:
        _write(args.output, pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit_json(args, payload: dict) -> None:
    _emit(args, [_json_text(payload)])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    fam = _family_from_args(args)
    graph = fam.cayley_graph()
    computed = spectrum(graph)
    predicted = sorted(
        ((fam.predicted_eigenvalue(i), fam.predicted_dimension(i))
         for i in fam.eigenspaces()), key=lambda p: -p[0])
    status = "ok" if computed == predicted else "mismatch"
    verified = None
    if args.verify:
        verified = verify_all_eigenvectors(graph)
        if not verified:
            status = "mismatch"
    if args.format == "csv":
        lines = ["eigenvalue,multiplicity"]
        lines += [f"{ev},{mult}" for ev, mult in computed]
        _emit(args, ["\n".join(lines) + "\n"])
    elif args.format == "text":
        lines = [f"# spectrum of {fam.describe()} [{status}]"]
        lines += [f"{ev:>8}  x{mult}" for ev, mult in computed]
        _emit(args, ["\n".join(lines) + "\n"])
    else:
        payload = {
            "command": "spectrum",
            "family": fam.describe(),
            "spectrum": [{"eigenvalue": ev, "multiplicity": m} for ev, m in computed],
            "predicted": [{"eigenvalue": ev, "multiplicity": m} for ev, m in predicted],
            "eigenvectors_verified": verified,
            "status": status,
        }
        _emit_json(args, payload)
    return EXIT_OK if status == "ok" else EXIT_CHECK_FAILED


def cmd_table(args) -> int:
    fam = _family_from_args(args)
    if args.i is None:
        raise _usage_error("table requires --i")
    if not 0 <= args.i <= fam.diameter:
        raise _usage_error(f"--i must be in 0..{fam.diameter}")
    if args.verify_oracle:  # the oracle's vertex budget, before the table and the basis
        from . import norton
        fam.vertices(norton.DEFAULT_ORACLE_VERTEX_BUDGET)
    table = fam.product_table(args.i)  # checks its size before the basis is built
    labels = fam.basis(args.i)
    oracle_ok = None
    if args.verify_oracle:
        oracle_ok = norton.verify_oracle_space(fam, args.i)
    texts = [fam.label_text(lbl) for lbl in labels]
    numbers = [str(v) for v in range(len(texts))] + ["-1"]  # -1, a zero product, reads last
    status = "ok" if oracle_ok in (None, True) else "mismatch"
    # all that can fail is done: the rest renders and writes
    if args.format == "csv":
        head, tail = "*," + ",".join(texts) + "\n", ""
        rows = _row_blocks(table, numbers, ",", [t + "," for t in texts], "\n")
    elif args.format == "text":
        width = max(len(t) for t in texts) + 1
        cells = [t.rjust(width) for t in texts] + ["0".rjust(width)]
        head = f"# {fam.describe()} V_{args.i} products\n{' ' * width}{' '.join(cells[:-1])}\n"
        tail = "" if oracle_ok is None else f"# oracle verified: {oracle_ok}\n"
        rows = _row_blocks(table, cells, " ", [t.ljust(width) for t in texts], "\n")
    else:
        payload = {
            "command": "table",
            "family": fam.describe(),
            "i": args.i,
            "basis": [fam.label_json(lbl) for lbl in labels],
            "table": TABLE_SLOT,
            "oracle_verified": oracle_ok,
            "status": status,
        }
        # json.dumps with indent=2 puts each row and each entry on its own line
        head, tail = _json_text(payload).split(json.dumps(TABLE_SLOT), 1)
        head, tail = head + "[\n", "\n  ]" + tail
        heads = ["    [\n      "] + [",\n    [\n      "] * (len(texts) - 1)
        rows = _row_blocks(table, numbers, ",\n      ", heads, "\n    ]")
    _emit(args, chain([head], rows, [tail]))
    return EXIT_OK if status == "ok" else EXIT_CHECK_FAILED


def cmd_nonassoc(args) -> int:
    from . import trees
    fam = _family_from_args(args)
    i = 1 if args.i is None else args.i
    if not 0 <= i <= fam.diameter:
        raise _usage_error(f"--i must be in 0..{fam.diameter}")
    seed = _resolve_seed(args)
    budget = _resolve_budget(args)
    if args.max_m > trees.DEFAULT_MAX_M:
        raise BudgetExceededError(
            f"tree enumeration capped at m={trees.DEFAULT_MAX_M}, got --max-m {args.max_m}")
    attempts = trees.DEFAULT_WITNESS_ATTEMPTS if args.attempts is None else args.attempts
    dim = fam.predicted_dimension(i)
    reports = []
    for m in range(1, args.max_m + 1):
        cm = trees.catalan(m)
        mode = args.mode
        if mode == "auto":
            exact_cost = (dim ** (m + 1)) * cm
            mode = "exact" if exact_cost <= budget else "witness"
        if mode == "exact":
            rep = trees.count_classes_exact(fam, i, m, budget=budget)
        else:
            rep = trees.count_classes_witness(fam, i, m, seed=seed, attempts=attempts)
        a975 = trees.a000975(m)
        if rep.class_count == 1:
            matches = "one"
        elif rep.class_count == cm:
            matches = "catalan"
        elif rep.class_count == a975:
            matches = "a000975"
        else:
            matches = "other"
        reports.append({
            "m": m,
            "catalan": cm,
            "class_count": rep.class_count,
            "mode": rep.mode,
            "a000975": a975,
            "matches": matches,
            "budget_used": rep.budget_used,
        })
    payload = {
        "command": "nonassoc",
        "family": fam.describe(),
        "i": i,
        "seed": seed,
        "reports": reports,
    }
    if args.format == "csv":
        lines = ["m,catalan,class_count,mode,a000975,matches"]
        lines += [f"{r['m']},{r['catalan']},{r['class_count']},{r['mode']},"
                  f"{r['a000975']},{r['matches']}" for r in reports]
        _emit(args, ["\n".join(lines) + "\n"])
    elif args.format == "text":
        lines = [f"# associative spectrum of {fam.describe()} V_{i} (seed={seed})"]
        lines += [f"m={r['m']}: {r['class_count']} classes of {r['catalan']} "
                  f"({r['mode']}, matches {r['matches']})" for r in reports]
        _emit(args, ["\n".join(lines) + "\n"])
    else:
        _emit_json(args, payload)
    return EXIT_OK


def cmd_idempotents(args) -> int:
    from . import norton
    if args.e is None or args.e < 3:
        raise _usage_error("idempotents requires --e >= 3")
    # each nonempty subset of 1..e-1, the nilpotent ones too, sums up to e-1
    # eta vectors of e-1 coefficients
    subsets = 2 ** (args.e - 1) - 1
    cost = subsets * (args.e - 1) ** 2
    budget = _resolve_budget(args)
    if cost > budget:
        raise BudgetExceededError(f"idempotents --e {args.e} enumerates {subsets} subsets, "
                                  f"{cost} coefficient steps (budget {budget})")
    idems = norton.classified_idempotents(args.e)
    relations = norton.eta_relations_check(args.e)
    primitivity = None
    if args.e <= norton.PRIMITIVITY_MAX_E:
        primitivity = norton.primitivity_facts_check(args.e)
    nilpotents = norton.nilpotents_order2_classified(args.e)
    payload = {
        "command": "idempotents",
        "e": args.e,
        "count": len(idems),
        "idempotents": [
            {"support": sorted(idem.support), "vector": idem.vector.to_json()}
            for idem in idems
        ],
        "nilpotent_count": len(nilpotents),
        "nilpotents": [vec.to_json() for vec in nilpotents],
        "eta_relations": relations,
        "primitivity_facts": primitivity,
        "status": "ok" if relations and primitivity in (None, True) else "failed",
    }
    text = _json_text(payload) if args.export or args.format == "json" else ""
    if args.export:
        _write(args.export, [text])
    if args.format == "text":
        lines = [f"# {len(idems)} nonzero idempotents of V_1(H(1,{args.e}))"]
        for idem in idems:
            lines.append(f"support {sorted(idem.support)}: {idem.vector!r}")
        lines.append(f"eta relations: {relations}; primitivity: {primitivity}")
        _emit(args, ["\n".join(lines) + "\n"])
    else:
        _emit(args, [text])
    return EXIT_OK if payload["status"] == "ok" else EXIT_CHECK_FAILED


def _random_matrix(rng: random.Random, fam: FamilySpec) -> tuple[tuple[int, ...], ...]:
    """A uniform d x e matrix over F_q, a vertex of a bilinear family."""
    return tuple(tuple(rng.randrange(fam.q) for _ in range(fam.cols)) for _ in range(fam.d))


def _random_auto(fam: FamilySpec, i: int, rng: random.Random, k: int):
    """The k-th sampled automorphism of fam as (description, candidate on V_i)."""
    from . import autos
    if fam.kind == "hamming":
        phi = autos.random_hamming_auto(rng, fam.n, fam.e)
        return (f"(a={phi.a}, b={phi.b}, sigma={phi.sigma})",
                autos.hamming_candidate(phi, fam, i))
    if fam.kind in ("hypercube", "halved_cube"):
        f = autos.random_signed_perm(rng, fam.n, type_d=fam.kind == "halved_cube")
        return f"(sigma={f.sigma}, eps={f.eps})", autos.signed_perm_candidate(f, fam, i)
    kind = ("translate", "left", "right")[k % 3]
    if kind == "translate":
        mat = _random_matrix(rng, fam)
    else:
        mat = autos.random_gl(rng, fam.d if kind == "left" else fam.cols, fam.q)
    auto = autos.BilinearAuto(kind, mat, fam.q)
    return f"({kind}, {mat})", autos.bilinear_candidate(auto, fam, i)


def _autocheck_results(fam: FamilySpec, i: int, samples: int, seed: int) -> list[dict]:
    from . import autos
    if fam.kind not in ("hamming", "hypercube", "halved_cube", "bilinear"):
        raise _usage_error(f"autocheck supports hamming, hypercube, halved-cube and "
                           f"bilinear families, not {fam.kind}")
    if samples:  # before any candidate builds the basis
        autos.require_pair_budget(fam.predicted_dimension(i))
    rng = random.Random(seed)
    results = []
    for k in range(samples):
        text, candidate = _random_auto(fam, i, rng, k)
        results.append({"sample": k, "auto": text,
                        "ok": autos.is_algebra_automorphism(candidate, fam, i)})
    return results


def cmd_autocheck(args) -> int:
    from . import autos
    fam = _family_from_args(args)
    i = 1 if args.i is None else args.i
    if not 0 <= i <= fam.diameter:
        raise _usage_error(f"--i must be in 0..{fam.diameter}")
    seed = _resolve_seed(args)
    results = _autocheck_results(fam, i, args.samples, seed)
    kernel = None
    if fam.kind == "hamming":
        try:
            kernel = autos.kernel_check_hamming(fam, i)
            kernel = {"kernel": [repr(k) for k in kernel["kernel"]],
                      "expected": [repr(k) for k in kernel["expected"]],
                      "ok": kernel["ok"]}
        except (ValueError, BudgetExceededError):
            kernel = None
    conjugation = None
    if fam.kind == "bilinear" and args.samples:
        rng = random.Random(seed + 1)
        conjugation = all(
            autos.conjugation_identity_check(
                fam, _random_matrix(rng, fam), autos.random_gl(rng, fam.d, fam.q),
                autos.random_gl(rng, fam.cols, fam.q))
            for _ in range(args.samples))
    all_ok = (all(r["ok"] for r in results)
              and (kernel is None or kernel["ok"])
              and conjugation in (None, True))
    payload = {
        "command": "autocheck",
        "family": fam.describe(),
        "i": i,
        "seed": seed,
        "samples": args.samples,
        "results": results,
        "kernel": kernel,
        "conjugation_identity": conjugation,
        "all_ok": all_ok,
    }
    _emit_json(args, payload)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_oracle_verify(args) -> int:
    from . import norton
    fam = _family_from_args(args)
    spaces = fam.eigenspaces() if args.i is None else [args.i]
    rows = []
    all_ok = True
    for i in spaces:
        if not 0 <= i <= fam.diameter:
            raise _usage_error(f"--i must be in 0..{fam.diameter}")
        dim = fam.predicted_dimension(i)
        ok = norton.verify_oracle_space(fam, i)
        all_ok &= ok
        rows.append({"i": i, "dim": dim, "pairs": dim * dim, "ok": ok})
    payload = {
        "command": "oracle-verify",
        "family": fam.describe(),
        "spaces": rows,
        "all_ok": all_ok,
    }
    _emit_json(args, payload)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_isocheck(args) -> int:
    from . import norton
    rows = []
    all_ok = True
    for name, mapping, dom, cod in norton.shipped_isomorphism_checks():
        ok = norton.verify_isomorphism(mapping, dom, cod)
        all_ok &= ok
        rows.append({"name": name, "ok": ok})
    payload = {"command": "isocheck", "checks": rows, "all_ok": all_ok}
    _emit_json(args, payload)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nortonalg",
        description="Exact Norton algebras of Hamming-type graph families.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", default=None, help="write output to a file")
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: NORTON_SEED or 0)")
    common.add_argument("--budget", type=nonnegative_int, default=None,
                        help="evaluation budget (default: NORTON_BUDGET or 10^7)")
    common.add_argument("--threads", type=int, default=0,
                        help="ignored; every computation runs on one thread")

    fam_args = argparse.ArgumentParser(add_help=False)
    fam_args.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    fam_args.add_argument("--n", type=int, default=None)
    fam_args.add_argument("--e", type=int, default=None)
    fam_args.add_argument("--q", type=int, default=None)
    fam_args.add_argument("--d", type=int, default=None)

    def add(name: str, parents: list, formats: tuple, **kwargs) -> argparse.ArgumentParser:
        """A subcommand that writes the given output formats."""
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.add_argument("--format", "-f", choices=formats, default="json")
        return p

    every_format = ("json", "csv", "text")
    p = add("spectrum", [common, fam_args], every_format,
            help="eigenvalues and multiplicities vs the closed formulas")
    p.add_argument("--verify", action="store_true",
                   help="also verify every character by adjacency application")
    p.set_defaults(func=cmd_spectrum)

    p = add("table", [common, fam_args], every_format, help="V_i basis multiplication table")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--verify-oracle", action="store_true",
                   help="re-derive every entry via the projection oracle")
    p.set_defaults(func=cmd_table)

    p = add("nonassoc", [common, fam_args], every_format,
            help="associative spectrum counts C_*(m)")
    p.add_argument("--i", type=int, default=None, help="eigenspace (default 1)")
    p.add_argument("--max-m", type=positive_int, default=6)
    p.add_argument("--mode", choices=["auto", "exact", "witness"], default="auto")
    p.add_argument("--attempts", type=nonnegative_int, default=None)
    p.set_defaults(func=cmd_nonassoc)

    p = add("idempotents", [common], ("json", "text"),
            help="classified idempotents of V_1(H(1,e))")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--export", default=None, help="also write the JSON payload here")
    p.set_defaults(func=cmd_idempotents)

    p = add("autocheck", [common, fam_args], ("json",),
            help="sampled automorphism actions pass product preservation")
    p.add_argument("--i", type=int, default=None, help="eigenspace (default 1)")
    p.add_argument("--samples", type=nonnegative_int, default=100)
    p.set_defaults(func=cmd_autocheck)

    p = add("oracle-verify", [common, fam_args], ("json",),
            help="closed-form products equal the projection oracle")
    p.add_argument("--i", type=int, default=None, help="one eigenspace (default: all)")
    p.set_defaults(func=cmd_oracle_verify)

    p = add("isocheck", [common], ("json",), help="verify the shipped algebra isomorphisms")
    p.set_defaults(func=cmd_isocheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except Exception as exc:  # a defect of the program, not a failed claim
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """Process entry: main() on sys.argv, then exit without interpreter
    teardown.  The exit code is main()'s, or argparse's (0 for --help, 2 for
    a usage error); output that cannot be written is an internal error,
    reported once."""
    try:
        code = main()
    except SystemExit as exc:  # raised by argparse, always with an int code
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:  # such as a full disk
        if code != EXIT_INTERNAL:  # else main() reported the write that left these bytes
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = EXIT_INTERNAL
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
