"""Command-line front door.

Subcommands: constant, oracle, polytope, check-codim, reduce,
heisenberg-demo, verify.  Every run emits a single report (JSON by default)
whose content is a pure function of the command line, the input file, and
the seed; timing lives in its own field so the rest of the report is
byte-reproducible.  Exit codes: 0 success, 2 precondition error, 3 budget
or size error, 4 finiteness UNDECIDED.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cache import SubgroupCache, cache_key
from .constant import bl_constant
from .datum import (
    Exponent,
    NormalizationError,
    NotCanonicalError,
    WrongExponentError,
    canonicalize,
    drop_infinite_exponent,
    reduce_p1,
)
from .exact import UndecidedComparisonError
from .groups import GroupStructureError, HaarMode, SizeCapError
from .heisenberg import ScanBudgetError, divergence_witness
from .lie import (
    Verdict,
    bl_polytope,
    closed_pool,
    facet_status,
    finiteness,
    vertices,
)
from .oracle import BudgetError, exhaustive_indicator_search, oracle_constant
from .serialize import (
    constant_report_to_json,
    datum_to_json,
    exact_value_to_json,
    ideal_to_json,
    parse_datum,
    parse_lie_datum,
    polytope_to_json,
    tag_to_json,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_UNDECIDED = 4

_PRECONDITION_ERRORS = (
    GroupStructureError,
    WrongExponentError,
    NotCanonicalError,
    NormalizationError,
    ValueError,
    KeyError,
    json.JSONDecodeError,
)
_BUDGET_ERRORS = (SizeCapError, BudgetError, ScanBudgetError)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _emit(report: dict, fmt: str, started: float) -> None:
    report["timing_s"] = round(time.monotonic() - started, 6)
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_table(report)


def _print_table(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _print_table(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{obj}")


def _base_report(cmd: str, args: argparse.Namespace, input_obj) -> dict:
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and v is not None
    }
    flags = {k: (str(v) if isinstance(v, Path) else v) for k, v in flags.items()}
    return {
        "command": cmd,
        "version": __version__,
        "input_digest": _digest(input_obj),
        "flags": flags,
        "result": {},
    }


def _cache_from_args(args) -> SubgroupCache:
    directory = getattr(args, "cache_dir", None)
    enabled = not getattr(args, "no_cache", False)
    return SubgroupCache(Path(directory) if directory else None, enabled)


def _apply_haar_override(d, override):
    if not override:
        return d
    mode = HaarMode(override)
    return d.with_haar(mode, [mode] * d.J)


# -- subcommands ------------------------------------------------------------


def cmd_constant(args) -> int:
    started = time.monotonic()
    obj = _load(args.input)
    d = _apply_haar_override(parse_datum(obj, args.order_cap), args.haar)
    cache = _cache_from_args(args)
    subgroups = cache.subgroups(d.G, args.order_cap)
    rep = bl_constant(d, subgroups=subgroups, include_candidates=args.candidates)
    report = _base_report("constant", args, obj)
    report["cache"] = {"enabled": cache.enabled, "hit": cache.last_hit,
                       "group_digest": cache_key(d.G)}
    report["result"] = constant_report_to_json(rep)
    report["result"]["mixed_haar"] = d.mixed_haar()
    _emit(report, args.format, started)
    return EXIT_OK


def cmd_oracle(args) -> int:
    started = time.monotonic()
    obj = _load(args.input)
    d = _apply_haar_override(parse_datum(obj, args.order_cap), args.haar)
    value = oracle_constant(
        d, restarts=args.restarts, seed=args.seed, tol=args.tol,
        max_sweeps=args.max_sweeps,
    )
    report = _base_report("oracle", args, obj)
    report["result"] = {"value_approx": value}
    _emit(report, args.format, started)
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.monotonic()
    obj = _load(args.input)
    d = _apply_haar_override(parse_datum(obj, args.order_cap), args.haar)
    cache = _cache_from_args(args)
    subgroups = cache.subgroups(d.G, args.order_cap)
    rep = bl_constant(d, subgroups=subgroups)
    exact = rep.value
    numeric = oracle_constant(
        d, restarts=args.restarts, seed=args.seed, tol=args.tol,
        max_sweeps=args.max_sweeps,
    )
    approx = exact.to_float()
    oracle_ok = abs(numeric - approx) <= 1e-9 * max(approx, 1e-300)
    result = {
        "formula": constant_report_to_json(rep),
        "oracle": {"value_approx": numeric, "agrees": oracle_ok},
    }
    exhaustive_ok = True
    try:
        ev, sets = exhaustive_indicator_search(d, budget=args.budget)
        exhaustive_ok = ev.compare(exact) == 0
        result["exhaustive"] = {
            "value": exact_value_to_json(ev),
            "argmax_sets": [list(s) for s in sets],
            "agrees": exhaustive_ok,
        }
    except BudgetError as exc:
        result["exhaustive"] = {"skipped": str(exc)}
    report = _base_report("verify", args, obj)
    report["cache"] = {"enabled": cache.enabled, "hit": cache.last_hit,
                       "group_digest": cache_key(d.G)}
    report["result"] = result
    report["result"]["mixed_haar"] = d.mixed_haar()
    ok = oracle_ok and exhaustive_ok
    report["result"]["all_agree"] = ok
    _emit(report, args.format, started)
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_polytope(args) -> int:
    started = time.monotonic()
    obj = _load(args.input)
    d = parse_lie_datum(obj)
    pool, stabilized = closed_pool(d, max_closure=args.max_closure)
    P = bl_polytope(d, pool)
    verts = vertices(P)
    report = _base_report("polytope", args, obj)
    report["result"] = polytope_to_json(P, verts, facet_status(P))
    report["result"]["pool_size"] = len(pool)
    report["result"]["pool_stabilized"] = stabilized
    _emit(report, args.format, started)
    return EXIT_OK


def cmd_check_codim(args) -> int:
    started = time.monotonic()
    obj = _load(args.input)
    d = parse_lie_datum(obj)
    p = [Exponent.of(t) for t in args.p.split(",")]
    fin = finiteness(d, p, max_closure=args.max_closure)
    report = _base_report("check-codim", args, obj)
    result = {
        "verdict": fin.verdict.value,
        "certification": fin.certification,
        "note": fin.note,
        "pool_size": len(fin.pool),
        "reciprocals": [str(x.reciprocal()) for x in p],
    }
    if fin.violator is not None:
        result["violator"] = ideal_to_json(fin.violator)
        result["slack"] = str(fin.slack)
    if args.show_pool:
        result["pool"] = [ideal_to_json(n) for n in fin.pool]
    report["result"] = result
    _emit(report, args.format, started)
    return EXIT_UNDECIDED if fin.verdict is Verdict.UNDECIDED else EXIT_OK


def cmd_reduce(args) -> int:
    started = time.monotonic()
    obj = _load(args.input)
    d = _apply_haar_override(parse_datum(obj, args.order_cap), args.haar)
    result = {}
    if args.op == "canonicalize":
        out, tag = canonicalize(d)
        result["tag"] = tag_to_json(tag)
    elif args.op == "drop-inf":
        out = drop_infinite_exponent(d, args.index)
    else:
        out = reduce_p1(d, args.index)
    result["datum"] = datum_to_json(out)
    report = _base_report("reduce", args, obj)
    report["result"] = result
    _emit(report, args.format, started)
    return EXIT_OK


def cmd_heisenberg_demo(args) -> int:
    started = time.monotonic()
    alphas = [Fraction(a) for a in args.alphas.split(",")]
    dv = divergence_witness(
        n=args.n,
        alphas=alphas,
        M=Fraction(args.M),
        box_halfwidth=Fraction(args.box),
        eps=Fraction(args.eps),
        budget=args.budget,
    )
    w = dv.witness
    narrative = [
        f"Box of half-width {args.box} in every coordinate of C^{args.n} x R; "
        f"volume {dv.box_volume}.",
        f"Each kernel direction has rational step length, so times on the grid "
        f"of common multiples are exact simultaneous multiples "
        f"(approximation error 0 < eps = {args.eps}).",
        f"The {dv.terms} times {', '.join(str(t) for t in w.times[:6])}"
        + (" ..." if dv.terms > 6 else "")
        + f" are spaced at least {w.spacing} apart, so the translated boxes "
        "are pairwise disjoint.",
        f"Inputs equal to 1 on the thickened box make each translate "
        f"contribute exactly {dv.box_volume} to the form.",
        f"Total lower bound {dv.lower_bound} > M = {args.M}: no constant up "
        f"to {args.M} can bound the form, and M was arbitrary.",
    ]
    input_echo = {
        "n": args.n, "alphas": args.alphas, "M": args.M,
        "box": args.box, "eps": args.eps,
    }
    report = _base_report("heisenberg-demo", args, input_echo)
    report["result"] = {
        "terms": dv.terms,
        "lower_bound": str(dv.lower_bound),
        "box_volume": str(dv.box_volume),
        "times": [str(t) for t in w.times],
        "integers": [list(k) for k in w.integers],
        "eps": str(w.eps),
        "spacing": str(w.spacing),
        "narrative": narrative,
    }
    _emit(report, args.format, started)
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blgroups",
        description="Exact Brascamp-Lieb constants on finite groups, "
        "finiteness analysis for compact Lie data, and the Heisenberg "
        "divergence demo.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_datum=True):
        p.add_argument("--format", choices=("json", "table"), default="json")
        if needs_datum:
            p.add_argument("--in", dest="input", required=True)
            p.add_argument("--haar", choices=("counting", "probability"))
            p.add_argument("--order-cap", type=int, default=4096)

    p = sub.add_parser("constant", help="exact constant by subgroup maximization")
    add_common(p)
    p.add_argument("--candidates", action="store_true")
    p.add_argument("--cache-dir")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("oracle", help="numerical constant by alternating ascent")
    add_common(p)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-sweeps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="cross-check formula, ascent, exhaustive")
    add_common(p)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-sweeps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2**24)
    p.add_argument("--cache-dir")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("polytope", help="feasibility polytope of a Lie datum")
    add_common(p, needs_datum=False)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--max-closure", type=int, default=3)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("check-codim", help="finiteness verdict for a Lie datum")
    add_common(p, needs_datum=False)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--p", required=True, help="comma-separated exponents")
    p.add_argument("--max-closure", type=int, default=3)
    p.add_argument("--show-pool", action="store_true")
    p.set_defaults(func=cmd_check_codim)

    p = sub.add_parser("reduce", help="canonicalize or delete/reduce an index")
    add_common(p)
    p.add_argument(
        "--op", choices=("canonicalize", "drop-inf", "reduce-p1"), required=True
    )
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("heisenberg-demo", help="divergence witness on C^n x R")
    add_common(p, needs_datum=False)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alphas", default="1")
    p.add_argument("--M", default="10")
    p.add_argument("--box", default="1/2")
    p.add_argument("--eps", default="1/10")
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(func=cmd_heisenberg_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BUDGET_ERRORS as exc:
        print(json.dumps({"error": str(exc), "kind": "budget"}, sort_keys=True),
              file=sys.stderr)
        return EXIT_BUDGET
    except UndecidedComparisonError as exc:
        print(json.dumps({"error": str(exc), "kind": "undecided-comparison",
                          "left": exc.left.to_json(), "right": exc.right.to_json(),
                          "bits": exc.bits}, sort_keys=True), file=sys.stderr)
        return EXIT_FAILURE
    except _PRECONDITION_ERRORS as exc:
        print(json.dumps({"error": str(exc), "kind": "precondition"},
                         sort_keys=True), file=sys.stderr)
        return EXIT_PRECONDITION
    except FileNotFoundError as exc:
        print(json.dumps({"error": str(exc), "kind": "precondition"},
                         sort_keys=True), file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
