"""Command-line interface: spectra, multiplication tables, idempotents,
automorphism checks, oracle verification, nonassociativity reports, and
isomorphism checks, with deterministic machine-readable output.

Exit codes: 0 verified/success, 1 a claim check failed, 2 usage error,
3 budget exceeded, 4 internal error (one line on stderr, no traceback).

`table` checks the table's size, then builds the basis, its labels and the
row lookup before it writes anything, and writes each row as the lookup
gives it, one write per row: it peaks at about the basis and its labels,
one 256 KiB lookup step and a row of text, not at the dim x dim int32
table.  With `--verify-oracle` the verdict sorts before the table in json,
so the oracle compares the table's rows with its own as they come, and the
writer looks the table up a second time.

`main(argv)` is the in-process API: it returns the exit code.  `run()` is the
process entry (`python -m nortonalg.cli` and the `nortonalg` script): it
calls `main()`, flushes stdout and stderr and ends the process with
`os._exit`, skipping interpreter teardown, which has nothing to release: the
only file opened is closed by `_write`, and no thread or exit handler runs.

`import nortonalg.cli` loads the standard library and `errors`, which holds
the family kinds and their parameter names, and nothing else: the parser,
`--help` and every usage error that argparse or an option check finds run
without numpy or any other layer.  Each subcommand imports the layers it runs
when it is dispatched, and every one loads `families`, with numpy, `cayley`,
`groups` and `linalg`, which hold the product table and the projection
oracle; the others are imported where they are used:

- `spectrum` adds `roots`, whose integer reduction gives the eigenvalues;
- `table`, with or without `--verify-oracle`, and `oracle-verify` add none;
- `nonassoc` adds `trees`, and `autocheck` adds `autos`;
- `idempotents`, once `--e` is checked, and `isocheck` add `norton`,
  `cyclotomic` and `roots`, the exact Q(w) arithmetic, with `fractions`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable
from itertools import chain, islice
from typing import TYPE_CHECKING

from .errors import DEFAULT_EVAL_BUDGET, KIND_PARAMETERS, BudgetExceededError

if TYPE_CHECKING:
    from .families import FamilySpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

FAMILY_CHOICES = [kind.replace("_", "-") for kind in KIND_PARAMETERS]
# the parameters of every kind, in first-appearance order: the family options
FAMILY_PARAMETERS = list(dict.fromkeys(name for names in KIND_PARAMETERS.values()
                                        for name in names))


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
    from .families import make_family
    try:
        return make_family(args.family, **{name: getattr(args, name) for name in FAMILY_PARAMETERS})
    except ValueError as exc:
        raise _usage_error(str(exc))


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _space_index(fam: FamilySpec, i: int) -> int:
    """i, once it is checked to name an eigenspace of fam."""
    if not 0 <= i <= fam.diameter:
        raise _usage_error(f"--i must be in 0..{fam.diameter}")
    return i


def _write(path: str, pieces: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise _usage_error(f"cannot write {path}: {exc.strerror or exc}")


JSON_BLOCK_PIECES = 2**16  # json encoder pieces per write


def _json_blocks(payload: dict) -> Iterable[str]:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline, in blocks
    of JSON_BLOCK_PIECES encoder pieces, so the whole text is never held."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while block := list(islice(pieces, JSON_BLOCK_PIECES)):
        yield "".join(block)
    yield "\n"


class _Streamed(list):
    """count items that the json encoder reads from items() one at a time (its
    iterencode reads a list by len and iter), so none is held."""

    def __init__(self, count: int, items: Callable[[], Iterable]):  # an empty list
        self.count, self.items = count, items

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.items())


TABLE_SLOT = "<table>"  # stands for the table in the payload until it is rendered


def _row_texts(rows: Iterable, cells: list[str], sep: str, heads: list[str],
               end: str) -> Iterable[str]:
    """The table as text, one piece per row, from its rows in order: row r
    reads heads[r], its entries joined by sep, then end, where entry v reads
    cells[v], so a zero product (-1) reads the last cell."""
    import numpy as np
    lookup = np.array(cells, dtype=object)
    for head, row in zip(heads, rows):
        yield head + sep.join(lookup[row].tolist()) + end


def _emit(args, pieces: Iterable[str]) -> None:
    """Write the output to --output or stdout, one write per piece."""
    if args.output:
        _write(args.output, pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit_json(args, payload: dict) -> None:
    _emit(args, _json_blocks(payload))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    from .cayley import spectrum, verify_all_eigenvectors
    fam = _family_from_args(args)
    graph = fam.cayley_graph()
    certified = verify_all_eigenvectors(graph) if args.verify else None  # the spectrum, or None
    computed = certified or spectrum(graph)  # computed once when the check passes
    verified = bool(certified) if args.verify else None
    predicted = sorted(
        ((fam.predicted_eigenvalue(i), fam.predicted_dimension(i))
         for i in fam.eigenspaces()), key=lambda p: -p[0])
    status = "ok" if computed == predicted and verified is not False else "mismatch"
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
    from .families import verify_oracle_space
    fam = _family_from_args(args)
    if args.i is None:
        raise _usage_error("table requires --i")
    space = fam.space(_space_index(fam, args.i))
    oracle_ok = None
    if args.verify_oracle:
        # the vertex budget comes before the table and the basis, and the
        # oracle's verdict sorts before the table in json, so it reads a lookup of its own
        fam.vertices()
        oracle_ok = verify_oracle_space(space)
    rows = space.table_rows()  # checks the table's size before the basis is built
    labels = space.labels
    texts = [fam.label_text(lbl) for lbl in labels]
    numbers = [str(v) for v in range(len(texts))] + ["-1"]  # -1, a zero product, reads last
    status = "ok" if oracle_ok in (None, True) else "mismatch"
    # all that can fail is done: the rest looks the rows up, renders and writes
    if args.format == "csv":
        head, tail = "*," + ",".join(texts) + "\n", ""
        lines = _row_texts(rows, numbers, ",", [t + "," for t in texts], "\n")
    elif args.format == "text":
        width = max(len(t) for t in texts) + 1
        cells = [t.rjust(width) for t in texts] + ["0".rjust(width)]
        head = f"# {fam.describe()} V_{args.i} products\n{' ' * width}{' '.join(cells[:-1])}\n"
        tail = "" if oracle_ok is None else f"# oracle verified: {oracle_ok}\n"
        lines = _row_texts(rows, cells, " ", [t.ljust(width) for t in texts], "\n")
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
        head, tail = "".join(_json_blocks(payload)).split(json.dumps(TABLE_SLOT), 1)
        head, tail = head + "[\n", "\n  ]" + tail
        heads = ["    [\n      "] + [",\n    [\n      "] * (len(texts) - 1)
        lines = _row_texts(rows, numbers, ",\n      ", heads, "\n    ]")
    _emit(args, chain([head], lines, [tail]))
    return EXIT_OK if status == "ok" else EXIT_CHECK_FAILED


def cmd_nonassoc(args) -> int:
    from . import trees
    fam = _family_from_args(args)
    space = fam.space(_space_index(fam, 1 if args.i is None else args.i))
    seed = _resolve_seed(args)
    budget = _resolve_budget(args)
    if args.max_m > trees.DEFAULT_MAX_M:
        raise BudgetExceededError(
            f"tree enumeration capped at m={trees.DEFAULT_MAX_M}, got --max-m {args.max_m}")
    attempts = trees.DEFAULT_WITNESS_ATTEMPTS if args.attempts is None else args.attempts
    if args.mode == "exact":  # refuse before any count, in the order the counts check
        for m in range(1, args.max_m + 1):
            trees.check_exact_price(space, m, budget)
            if m == 1:  # the first count then checks the table's size and builds its rows
                space.check_table_size()
                space.rows
    reports = []
    for m in range(1, args.max_m + 1):
        cm = trees.catalan(m)
        mode = args.mode
        if mode == "auto":
            mode = "exact" if trees.exact_price(space, m) <= budget else "witness"
        if mode == "exact":
            rep = trees.count_classes_exact(space, m, budget=budget)
        else:
            rep = trees.count_classes_witness(space, m, seed=seed, attempts=attempts)
        a975 = trees.a000975(m)
        # a lower bound matches no count; where counts coincide the later key wins
        matches = ({a975: "a000975", cm: "catalan", 1: "one"}.get(rep.class_count, "other")
                   if rep.mode == "exact" else None)
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
        "i": space.i,
        "seed": seed,
        "reports": reports,
    }
    if args.format == "csv":
        lines = ["m,catalan,class_count,mode,a000975,matches"]
        lines += [f"{r['m']},{r['catalan']},{r['class_count']},{r['mode']},"
                  f"{r['a000975']},{r['matches'] or ''}" for r in reports]
        _emit(args, ["\n".join(lines) + "\n"])
    elif args.format == "text":
        lines = [f"# associative spectrum of {space.name} (seed={seed})"]
        lines += [f"m={r['m']}: {r['class_count']} classes of {r['catalan']} ({r['mode']}"
                  + (f", matches {r['matches']})" if r["matches"] else ")") for r in reports]
        _emit(args, ["\n".join(lines) + "\n"])
    else:
        _emit_json(args, payload)
    return EXIT_OK


def cmd_idempotents(args) -> int:
    e = args.e
    if e is None or e < 3:
        raise _usage_error("idempotents requires --e >= 3")
    from . import norton
    from .roots import field_degree
    # each nonempty subset of 1..e-1, the nilpotent ones too, gets e-1
    # coordinates of phi(e) integer coefficients; past the budget's bit length
    # the subsets alone are over it, and the cost is not written out
    budget = _resolve_budget(args)
    cost = (2 ** (e - 1) - 1) * (e - 1) * field_degree(e) if e <= budget.bit_length() + 1 else None
    if cost is None or cost > budget:
        count = "more than the budget" if cost is None else cost
        raise BudgetExceededError(f"idempotents --e {e} builds (2^{e - 1} - 1) * {e - 1} * "
                                  f"phi({e}) coefficients, {count} (budget {budget})")
    idems = norton.classified_idempotents(e)
    relations = norton.eta_relations_check(e)
    primitivity = norton.primitivity_facts_check(e)
    nilpotents = norton.nilpotents_order2_classified(e)
    payload = {
        "command": "idempotents",
        "e": e,
        "count": len(idems),
        "idempotents": _Streamed(len(idems), lambda: (
            {"support": sorted(idem.support), "vector": idem.vector.to_json()} for idem in idems)),
        "nilpotent_count": len(nilpotents),
        "nilpotents": _Streamed(len(nilpotents), lambda: (vec.to_json() for vec in nilpotents)),
        "eta_relations": relations,
        "primitivity_facts": primitivity,
        "status": "ok" if relations and primitivity else "failed",
    }
    if args.export:
        _write(args.export, _json_blocks(payload))
    if args.format == "text":
        lines = [f"# {len(idems)} nonzero idempotents of V_1(H(1,{e}))"]
        for idem in idems:
            lines.append(f"support {sorted(idem.support)}: {idem.vector!r}")
        lines.append(f"eta relations: {relations}; primitivity: {primitivity}")
        _emit(args, ["\n".join(lines) + "\n"])
    else:
        _emit_json(args, payload)
    return EXIT_OK if payload["status"] == "ok" else EXIT_CHECK_FAILED


def cmd_autocheck(args) -> int:
    from . import autos
    from .families import listed
    fam = _family_from_args(args)
    i = _space_index(fam, 1 if args.i is None else args.i)
    seed = _resolve_seed(args)
    if fam.kind not in autos.ACTIONS:
        kinds = [kind.replace("_", "-") for kind in autos.ACTIONS]
        raise _usage_error(f"autocheck supports {listed(kinds)} families, not {args.family}")
    payload = {
        "command": "autocheck",
        "family": fam.describe(),
        "i": i,
        "seed": seed,
        "samples": args.samples,
        **autos.autocheck(fam, i, args.samples, seed),
    }
    _emit_json(args, payload)
    return EXIT_OK if payload["all_ok"] else EXIT_CHECK_FAILED


def cmd_oracle_verify(args) -> int:
    from .families import verify_oracle_space
    fam = _family_from_args(args)
    # --i, then the vertex budget (which bounds the spaces), then every table's size
    spaces = [] if args.i is None else [fam.space(_space_index(fam, args.i))]
    fam.vertices()
    spaces = spaces or [fam.space(i) for i in fam.eigenspaces()]
    for space in spaces:
        space.check_table_size()
    rows = []
    for space in spaces:
        ok = verify_oracle_space(space)
        rows.append({"i": space.i, "dim": space.dim, "pairs": space.dim**2, "ok": ok})
    payload = {
        "command": "oracle-verify",
        "family": fam.describe(),
        "spaces": rows,
        "all_ok": all(row["ok"] for row in rows),
    }
    _emit_json(args, payload)
    return EXIT_OK if payload["all_ok"] else EXIT_CHECK_FAILED


def cmd_isocheck(args) -> int:
    from . import norton
    rows = []
    all_ok = True
    for name, perm, dom, cod in norton.shipped_isomorphism_checks():
        ok = norton.verify_isomorphism(perm, dom, cod)
        all_ok &= ok
        rows.append({"name": name, "ok": ok})
    payload = {"command": "isocheck", "checks": rows, "all_ok": all_ok}
    _emit_json(args, payload)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

COMMANDS = ("spectrum", "table", "nonassoc", "idempotents", "autocheck", "oracle-verify",
            "isocheck")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the given command's subparser, or every one when
    command is None; a one-command parser's usage line names all of them."""
    parser = argparse.ArgumentParser(
        prog="nortonalg",
        description="Exact Norton algebras of Hamming-type graph families.")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    read = {"seed": (int, "RNG seed (default: NORTON_SEED or 0)"),
            "budget": (nonnegative_int, "evaluation budget (default: NORTON_BUDGET or 10^7)")}

    def add(name: str, family: bool, formats: tuple, reads=(), **kwargs) -> argparse.ArgumentParser:
        """A subcommand with the common options, the read options named in reads
        and, if family, the family options, that writes the given output formats."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--output", "-o", default=None, help="write output to a file")
        for option in reads:
            p.add_argument(f"--{option}", type=read[option][0], default=None, help=read[option][1])
        p.add_argument("--threads", type=int, default=0,
                       help="ignored; every computation runs on one thread")
        if family:
            p.add_argument("--family", choices=FAMILY_CHOICES, required=True)
            for name in FAMILY_PARAMETERS:
                p.add_argument(f"--{name}", type=int, default=None)
        p.add_argument("--format", "-f", choices=formats, default="json")
        return p

    def wanted(name: str) -> bool:
        return command is None or command == name

    every_format = ("json", "csv", "text")
    if wanted("spectrum"):
        p = add("spectrum", True, every_format,
                help="eigenvalues and multiplicities vs the closed formulas")
        p.add_argument("--verify", action="store_true",
                       help="also certify the characters as an eigenbasis")
        p.set_defaults(func=cmd_spectrum)

    if wanted("table"):
        p = add("table", True, every_format, help="V_i basis multiplication table")
        p.add_argument("--i", type=int, default=None)
        p.add_argument("--verify-oracle", action="store_true",
                       help="re-derive every entry via the projection oracle")
        p.set_defaults(func=cmd_table)

    if wanted("nonassoc"):
        p = add("nonassoc", True, every_format, ("seed", "budget"),
                help="associative spectrum counts C_*(m)")
        p.add_argument("--i", type=int, default=None, help="eigenspace (default 1)")
        p.add_argument("--max-m", type=positive_int, default=6)
        p.add_argument("--mode", choices=["auto", "exact", "witness"], default="auto")
        p.add_argument("--attempts", type=nonnegative_int, default=None)
        p.set_defaults(func=cmd_nonassoc)

    if wanted("idempotents"):
        p = add("idempotents", False, ("json", "text"), ("budget",),
                help="classified idempotents of V_1(H(1,e))")
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--export", default=None, help="also write the JSON payload here")
        p.set_defaults(func=cmd_idempotents)

    if wanted("autocheck"):
        p = add("autocheck", True, ("json",), ("seed",),
                help="sampled automorphism actions pass product preservation")
        p.add_argument("--i", type=int, default=None, help="eigenspace (default 1)")
        p.add_argument("--samples", type=nonnegative_int, default=100)
        p.set_defaults(func=cmd_autocheck)

    if wanted("oracle-verify"):
        p = add("oracle-verify", True, ("json",),
                help="closed-form products equal the projection oracle")
        p.add_argument("--i", type=int, default=None, help="one eigenspace (default: all)")
        p.set_defaults(func=cmd_oracle_verify)

    if wanted("isocheck"):
        p = add("isocheck", False, ("json",), help="verify the shipped algebra isomorphisms")
        p.set_defaults(func=cmd_isocheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # --help, a missing or an unknown command get the full parser
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
