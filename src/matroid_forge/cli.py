"""Command-line front end: thin, deterministic wrappers over the library.

Every subcommand has a ``--json`` mirror for scripting; the text output is
the primary surface and is stable enough to diff against golden files.
Exit codes follow one convention throughout: 0 for success (or an overall
PASS), 1 for a negative finding (invalid file, no minor, a failed check),
2 for unusable input or I/O trouble.

The environment variable ``MATROID_FORGE_BUDGET`` overrides the node
budget of every backtracking search (erection covers, minor hunts).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .bitsets import format_set, mask_of
from .charpoly import characteristic_polynomial, splits_over_integers
from .erection import enumerate_erections, free_erection
from .errors import MatroidForgeError
from .formats import load_matrix, load_matroid, serialize_matroid
from .linalg import _reject_zero_functionals, weight3_subspace
from .matroid import flats_at
from .minors import MinorWitness, find_minor, realizability_obstruction
from .reproduce import run_reproduce

BUDGET_ENV = "MATROID_FORGE_BUDGET"


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _witness_doc(w: MinorWitness) -> dict:
    return {
        "contract": list(w.contract_set),
        "delete": list(w.delete_set),
        "classes": [list(c) for c in (w.parallel_classes.classes or ())],
        "images": list(w.iso.images),
    }


def _cmd_validate(args, budget) -> int:
    try:
        m = load_matroid(args.file)
    except MatroidForgeError as exc:
        if args.json:
            _print_json({"valid": False, "error": str(exc)})
        else:
            print(f"invalid: {exc}")
        return 1
    if args.json:
        _print_json({"valid": True, "n": m.n, "rank": m.rank,
                     "bases": len(m.basis_masks), "simple": m.is_simple})
    else:
        kind = "simple " if m.is_simple else ""
        print(f"ok: {kind}rank-{m.rank} matroid on {m.n} elements, "
              f"{len(m.basis_masks)} bases")
    return 0


def _cmd_flats(args, budget) -> int:
    m = load_matroid(args.file)
    found = flats_at(m, args.rank, min_size=args.min_size)
    if args.json:
        _print_json({"rank": args.rank, "min_size": args.min_size,
                     "flats": [list(f) for f in found]})
    else:
        for f in found:
            print(format_set(mask_of(f)))
    return 0


def _cmd_erect(args, budget) -> int:
    m = load_matroid(args.file)
    if args.free:
        free = free_erection(m)
        if args.json:
            _print_json({"n": free.n, "rank": free.rank,
                         "bases": len(free.basis_masks),
                         "text": serialize_matroid(free)})
        else:
            sys.stdout.write(serialize_matroid(free))
        return 0
    family = enumerate_erections(m, budget=budget)
    rows = [{"rank": e.rank, "bases": len(e.basis_masks), "trivial": i == 0}
            for i, e in enumerate(family.erections)]
    free_index = family.erections.index(family.free())
    if args.json:
        _print_json({"count": len(family), "erections": rows,
                     "free_index": free_index})
    else:
        print(f"{len(family)} erections of a rank-{m.rank} matroid "
              f"on {m.n} elements")
        for i, row in enumerate(rows):
            label = " (trivial)" if row["trivial"] else ""
            print(f"[{i}] rank {row['rank']}, {row['bases']} bases{label}")
        print(f"free erection: [{free_index}]")
    return 0


def _cmd_formality(args, budget) -> int:
    a = load_matrix(args.file)
    _reject_zero_functionals(a)
    rank_a = a.rank()
    kernel_dim = a.cols - rank_a
    # the formalization's rows are a basis of the relation space's
    # complement, so rank-nullity gives its rank, and A is formal exactly
    # when the relations fill the kernel (as in is_formal)
    weight3_dim = weight3_subspace(a).dim
    rank_f = a.cols - weight3_dim
    formal = weight3_dim == kernel_dim
    if args.json:
        _print_json({"kernel_dim": kernel_dim, "weight3_dim": weight3_dim,
                     "rank": rank_a, "formalization_rank": rank_f,
                     "formal": formal})
    else:
        print(f"kernel dimension     {kernel_dim}")
        print(f"weight-3 dimension   {weight3_dim}")
        print(f"matrix rank          {rank_a}")
        print(f"formalization rank   {rank_f}")
        print(f"verdict              {'formal' if formal else 'not formal'}")
    return 0


def _cmd_charpoly(args, budget) -> int:
    m = load_matroid(args.file)
    chi = characteristic_polynomial(m)
    roots = splits_over_integers(chi)
    if args.json:
        _print_json({"polynomial": str(chi),
                     "coefficients": list(chi.coeffs),
                     "integer_roots": None if roots is None else list(roots)})
    else:
        print(chi)
        if roots is None:
            print("integer roots: none")
        else:
            print("integer roots: " + ", ".join(str(r) for r in roots))
    return 0


def _cmd_minor(args, budget) -> int:
    host = load_matroid(args.host)
    target = load_matroid(args.target)
    witness = find_minor(host, target, budget=budget)
    if witness is None:
        if args.json:
            _print_json({"found": False})
        else:
            print("no minor found")
        return 1
    if args.json:
        _print_json({"found": True, **_witness_doc(witness)})
    else:
        print(f"minor found: {witness.describe()}")
    return 0


def _cmd_obstruction(args, budget) -> int:
    m = load_matroid(args.file)
    report = realizability_obstruction(m, budget=budget)
    if args.json:
        _print_json({
            "verdict": report.verdict,
            "fano": _witness_doc(report.fano_witness)
                    if report.has_fano else None,
            "nonfano": _witness_doc(report.nonfano_witness)
                       if report.has_nonfano else None,
        })
    else:
        print(f"verdict: {report.verdict}")
        if report.has_fano:
            print(f"char-2 minor: {report.fano_witness.describe()}")
        if report.has_nonfano:
            print(f"char-not-2 minor: {report.nonfano_witness.describe()}")
    return 0


def _cmd_reproduce(args, budget) -> int:
    report = run_reproduce(data_dir=args.data, budget=budget)
    if args.json:
        sys.stdout.write(report.to_json(timing=args.timing))
    else:
        sys.stdout.write(report.to_text(timing=args.timing))
    return 0 if report.overall else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Each ``add_argument`` makes a help formatter, which reads the terminal
    size; parsing leaves the parser as it was, so in-process callers of
    :func:`main` share one.
    """
    parser = argparse.ArgumentParser(
        prog="matroid-forge",
        description="Exact matroid erections, formality analysis, and "
                    "minor-based field obstructions.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def add(name: str, help_: str, fn):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        return sp

    sp = add("validate", "parse and validate a matroid file", _cmd_validate)
    sp.add_argument("file")

    sp = add("flats", "list the rank-k flats of a matroid", _cmd_flats)
    sp.add_argument("file")
    sp.add_argument("--rank", type=int, required=True, metavar="K")
    sp.add_argument("--min-size", type=int, default=0, metavar="S",
                    help="keep only flats with at least S elements")

    sp = add("erect", "enumerate erections or print the free one", _cmd_erect)
    sp.add_argument("file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true",
                       help="summarize every erection")
    group.add_argument("--free", action="store_true",
                       help="print the free erection as a matroid file")

    sp = add("formality", "formality analysis of an exact matrix",
             _cmd_formality)
    sp.add_argument("file")

    sp = add("charpoly", "characteristic polynomial and integer roots",
             _cmd_charpoly)
    sp.add_argument("file")

    sp = add("minor", "search for a minor of HOST isomorphic to TARGET",
             _cmd_minor)
    sp.add_argument("host")
    sp.add_argument("target")

    sp = add("obstruction", "field obstructions from forbidden minors",
             _cmd_obstruction)
    sp.add_argument("file")

    sp = add("reproduce", "re-derive every bundled claim and report",
             _cmd_reproduce)
    sp.add_argument("--timing", action="store_true",
                    help="append wall-clock lines (excluded from golden output)")
    sp.add_argument("--data", metavar="DIR", default=None,
                    help="override the bundled data directory")

    return parser


def _env_budget() -> int | None:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV} must be positive, got {value}")
    return value


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        budget = _env_budget()
        return args.func(args, budget)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MatroidForgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
