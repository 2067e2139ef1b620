"""Command-line front door.

Subcommands: constant, oracle, polytope, check-codim, reduce,
heisenberg-demo, verify.  Every run emits a single report (JSON by default)
whose content is a pure function of the command line, the input file, and
the seed; timing lives in its own field so the rest of the report is
byte-reproducible.  Exit codes: 0 success, 1 verify disagreement or an exact
comparison still undecided at 4096 bits, 2 precondition error (bad input
file, path or JSON shape, a rational with a zero denominator, bad index,
iteration count or tolerance, an operation the datum does not admit), 3
budget or size error (a `groups.BudgetExceededError`), 4 finiteness
UNDECIDED, 5 numeric failure of the float ascent (`oracle.NumericError`,
for example a block that underflows to zero at exponents near 1, or a
float overflow).

`main` does what every subcommand shares: it loads `--in`, times the run,
builds the report envelope, emits it and maps errors to exit codes.  A
`cmd_*` function only computes: it takes the parsed arguments and the loaded
input and returns its report fields and its exit code.  Each imports its own
layers, so a call loads only the modules its subcommand uses: `constant`
never loads the Lie, Heisenberg or ascent layers.  `constant` and `verify`
rank the kernel lattice (`constant` module docstring), and
`constant --candidates` lists every subgroup afresh, so the library keeps no
lattice cache.  `--cache-dir` and `--no-cache` are still accepted, and
ignored: nothing is read or written under either.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .exact import UndecidedComparisonError
from .groups import DEFAULT_ORDER_CAP, BudgetExceededError, HaarMode

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_UNDECIDED = 4
EXIT_NUMERIC = 5

# The library's precondition errors (GroupStructureError, WrongExponentError,
# SchemaError, ...) and bad JSON are ValueErrors; OSError covers an input
# path that cannot be read; Fraction("1/0") raises ZeroDivisionError.
_PRECONDITION_ERRORS = (ValueError, KeyError, OSError, ZeroDivisionError)


def _print_table(obj, indent=0):
    """One `key: value` line per dict entry, in key order, and one `- value`
    line per list item; a dict or list value gets a bare `key:` or `-` line
    and its contents one level deeper."""
    pad = "  " * indent
    heads = ([(f"{k}:", obj[k]) for k in sorted(obj)] if isinstance(obj, dict)
             else [("-", v) for v in obj])
    for head, v in heads:
        if isinstance(v, (dict, list)):
            print(pad + head)
            _print_table(v, indent + 1)
        else:
            print(f"{pad}{head} {v}")


def _datum(args, obj):
    """The finite datum of --in, with --haar overriding every Haar mode."""
    from .serialize import parse_datum

    d = parse_datum(obj, args.order_cap)
    if not args.haar:
        return d
    mode = HaarMode(args.haar)
    return d.with_haar(mode, [mode] * d.J)


def _oracle(args, d) -> float:
    from .oracle import oracle_constant

    return oracle_constant(d, restarts=args.restarts, seed=args.seed, tol=args.tol,
                           max_sweeps=args.max_sweeps)


# -- subcommands: (args, input) -> (report fields, exit code) ----------------


def cmd_constant(args, obj):
    from .constant import bl_constant
    from .serialize import constant_report_to_json

    d = _datum(args, obj)
    rep = bl_constant(d, include_candidates=args.candidates, order_cap=args.order_cap)
    result = constant_report_to_json(rep)
    result["mixed_haar"] = d.mixed_haar()
    return {"result": result}, EXIT_OK


def cmd_oracle(args, obj):
    return {"result": {"value_approx": _oracle(args, _datum(args, obj))}}, EXIT_OK


def cmd_verify(args, obj):
    from .constant import bl_constant
    from .oracle import BudgetError, exhaustive_indicator_search
    from .serialize import constant_report_to_json, exact_value_to_json

    d = _datum(args, obj)
    rep = bl_constant(d, order_cap=args.order_cap)
    exact = rep.value
    numeric = _oracle(args, d)
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
    result["mixed_haar"] = d.mixed_haar()
    result["all_agree"] = ok = oracle_ok and exhaustive_ok
    return {"result": result}, EXIT_OK if ok else EXIT_FAILURE


def cmd_polytope(args, obj):
    from .lie import bl_polytope, closed_pool, facet_status, vertices
    from .serialize import parse_lie_datum, polytope_to_json

    d = parse_lie_datum(obj)
    pool, stabilized = closed_pool(d, max_closure=args.max_closure)
    P = bl_polytope(d, pool)
    verts = vertices(P)
    result = polytope_to_json(P, verts, facet_status(P, verts))
    result["pool_size"] = len(pool)
    result["pool_stabilized"] = stabilized
    return {"result": result}, EXIT_OK


def cmd_check_codim(args, obj):
    from .datum import Exponent
    from .lie import Verdict, finiteness
    from .serialize import ideal_to_json, parse_lie_datum

    d = parse_lie_datum(obj)
    p = [Exponent.of(t) for t in args.p.split(",")]
    fin = finiteness(d, p, max_closure=args.max_closure)
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
    code = EXIT_UNDECIDED if fin.verdict is Verdict.UNDECIDED else EXIT_OK
    return {"result": result}, code


def cmd_reduce(args, obj):
    from .datum import canonicalize, drop_infinite_exponent, reduce_p1
    from .serialize import datum_to_json, tag_to_json

    d = _datum(args, obj)
    result = {}
    if args.op == "canonicalize":
        out, tag = canonicalize(d)
        result["tag"] = tag_to_json(tag)
    elif args.op == "drop-inf":
        out = drop_infinite_exponent(d, args.index)
    else:
        out = reduce_p1(d, args.index)
    result["datum"] = datum_to_json(out)
    return {"result": result}, EXIT_OK


def cmd_heisenberg_demo(args, obj):
    from .heisenberg import divergence_witness

    dv = divergence_witness(
        n=args.n,
        alphas=[Fraction(a) for a in args.alphas.split(",")],
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
    result = {
        "terms": dv.terms,
        "lower_bound": str(dv.lower_bound),
        "box_volume": str(dv.box_volume),
        "times": [str(t) for t in w.times],
        "integers": [list(k) for k in w.integers],
        "eps": str(w.eps),
        "spacing": str(w.spacing),
        "narrative": narrative,
    }
    return {"result": result}, EXIT_OK


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

    # Flag groups shared between subcommands, each declared once.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "table"), default="json")
    infile = argparse.ArgumentParser(add_help=False, parents=[fmt])
    infile.add_argument("--in", dest="input", required=True)
    finite = argparse.ArgumentParser(add_help=False, parents=[infile])
    finite.add_argument("--haar", choices=("counting", "probability"))
    finite.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    lie = argparse.ArgumentParser(add_help=False, parents=[infile])
    lie.add_argument("--max-closure", type=int, default=3)
    ascent = argparse.ArgumentParser(add_help=False)
    ascent.add_argument("--restarts", type=int, default=8)
    ascent.add_argument("--tol", type=float, default=1e-12)
    ascent.add_argument("--max-sweeps", type=int, default=10_000)
    ascent.add_argument("--seed", type=int, default=0)
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", help="ignored: no command reads the lattice cache")
    cache.add_argument("--no-cache", action="store_true", help="ignored")

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("constant", cmd_constant, "exact constant by subgroup maximization",
                finite, cache)
    p.add_argument("--candidates", action="store_true")
    command("oracle", cmd_oracle, "numerical constant by alternating ascent",
            finite, ascent)
    p = command("verify", cmd_verify, "cross-check formula, ascent, exhaustive",
                finite, ascent, cache)
    p.add_argument("--budget", type=int, default=2**24,
                   help="indicator tuples the exhaustive search may visit")
    command("polytope", cmd_polytope, "feasibility polytope of a Lie datum", lie)
    p = command("check-codim", cmd_check_codim, "finiteness verdict for a Lie datum",
                lie)
    p.add_argument("--p", required=True, help="comma-separated exponents")
    p.add_argument("--show-pool", action="store_true")
    p = command("reduce", cmd_reduce, "canonicalize or delete/reduce an index", finite)
    p.add_argument(
        "--op", choices=("canonicalize", "drop-inf", "reduce-p1"), required=True
    )
    p.add_argument("--index", type=int, default=0)
    p = command("heisenberg-demo", cmd_heisenberg_demo,
                "divergence witness on C^n x R", fmt)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alphas", default="1")
    p.add_argument("--M", default="10")
    p.add_argument("--box", default="1/2")
    p.add_argument("--eps", default="1/10")
    p.add_argument("--budget", type=int, default=10**8,
                   help="grid points the witness scan may visit")
    return parser


def _input(args):
    """The parsed --in file; heisenberg-demo, which reads none, digests its parameters."""
    if "input" in args:
        with open(args.input) as fh:
            return json.load(fh)
    return {"n": args.n, "alphas": args.alphas, "M": args.M, "box": args.box,
            "eps": args.eps}


def _fail(code: int, kind: str, exc: Exception, **extra) -> int:
    print(json.dumps({"error": str(exc), "kind": kind, **extra}, sort_keys=True),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        obj = _input(args)
        fields, code = args.func(args, obj)
    except BudgetExceededError as exc:
        return _fail(EXIT_BUDGET, "budget", exc)
    except UndecidedComparisonError as exc:
        return _fail(EXIT_FAILURE, "undecided-comparison", exc, left=exc.left.to_json(),
                     right=exc.right.to_json(), bits=exc.bits)
    except _PRECONDITION_ERRORS as exc:
        return _fail(EXIT_PRECONDITION, "precondition", exc)
    except ArithmeticError as exc:
        # oracle.NumericError, caught by its base so that main does not
        # import the ascent layer, and float overflow
        return _fail(EXIT_NUMERIC, "numeric", exc)
    flags = {k: v for k, v in vars(args).items()
             if k not in ("func", "command") and v is not None}
    digest = hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    report = {"command": args.command, "version": __version__, "input_digest": digest,
              "flags": flags, **fields, "timing_s": round(time.monotonic() - started, 6)}
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_table(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
