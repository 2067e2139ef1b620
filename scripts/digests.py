#!/usr/bin/env python3
"""Print the eight answer digests that gate a change to the library, and
check each against its stored value in `tests/answer_digests.json`.

Run from the repository root:

    PYTHONPATH=src python scripts/digests.py              # all eight
    PYTHONPATH=src python scripts/digests.py formula oracle   # only these

The script exits 1 when a printed digest differs from its stored value,
after naming each such digest on stderr.  A change that means to change
an answer edits the stored value, and says which digest moved and why.

* subgroups: the member lists, in order, of `all_subgroups` on the 42
  corpus groups (in order of first appearance in `standard_frames()`), then
  S4, S5, Z2^5, Z4^3, Z3^4, Z2^6 and Z2^7;
* formula: `bl_constant` on the 15,550 corpus data (every frame and
  exponent tuple, under probability and then counting Haar), hashing
  `repr` of the value's factors, the argmax members, the tie flag and the
  canonicalization tag.  `formula_lines(listed=False)` gives the same lines
  through the kernel lattice, `bl_constant(d)`, in place of the listed one;
* large: the same four items of `bl_constant(d)` on seeded data of the
  large-group tier: S5 under identity, sign, trivial and inner-automorphism
  maps, and Z2^6 and Z2^7 under random F2-linear maps and under the maps
  whose kernels close to every subgroup (`frame_maps`);
* oracle: on the same data, `oracle_constant(d, restarts=8, seed=20)` as
  `float.hex`, and the exhaustive search's value factors and argmax sets;
* reductions: `datum_to_json` and `tag_to_json` of `canonicalize`, and of
  `drop_infinite_exponent` and `reduce_p1` at every index (or the error's
  type and text), on the same data and on two non-canonical tensors of each
  corpus frame: with Z2 under trivial maps, and with Z2 under the identity
  as its first map and trivial maps after it.  At the first exponent tuple
  of each frame and Haar mode it adds both halves of `quotient_split` (or
  the error) along every subgroup of the source group.
  `reduction_lines(step)` keeps every step-th frame only, in both modes;
* lie: the 1815 Lie cases, the 360 data of the `torus-verdicts` benchmark
  (`perfbench/workloads.py` `torus_pool()`), Loomis-Whitney on T^3 at
  (2, 2, 2) and (3/2, 2, 2) and four generic planes of T^3 at (4, 4, 4, 4),
  each at `max_closure` 0 to 4, hashing `finiteness` and `closed_pool`
  and, where the pool closed, `bl_polytope`, `vertices` and `facet_status`;
* scan: on the same Lie cases, `codimension_check` against `closed_pool` at
  `max_closure` 3, and, where the torus part has dimension 1 to 3,
  `brute_force_torus_violator` on it with box 1.
* cli: `cli.main`, run in process, over the 710 calls of `cli_calls()` on
  the inputs of `CLI_FINITE`, `CLI_LIE` and `CLI_FAILING`: `constant` in
  JSON, in table form and with `--candidates`, `verify` and `oracle` at
  two restarts, `reduce` with every `--op` at every index and at indices
  out of range, each under no `--haar` and under both modes; `check-codim`
  (also with `--show-pool`) and `polytope` (also in table form) at
  `--max-closure` 0 and 3; `heisenberg-demo`; and inputs that exit 1 to 5.
  Each line holds the arguments, stdout without its `timing_s` line,
  stderr and the exit code, with the directory of the input files written
  as IN.

Each digest is the SHA-256 of one `repr` line per item.  The digests go
to stdout and the time of each pass to stderr, so two runs also compare
with `diff`.  The reductions and oracle passes take the longest.  Each
digest's line generator is a module-level function in `DIGESTS`, so tests
can pin the fast digests (`tests/test_digests.py`), and the oracle, the
reductions and the cli on slices.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
import time
from pathlib import Path

from blgroups.cli import main as cli_main
from blgroups.constant import bl_constant
from blgroups.corpus import exponent_grid, frame_datum, standard_frames
from blgroups.datum import (
    BLDatum,
    CanonicalTag,
    Exponent,
    canonicalize,
    drop_infinite_exponent,
    make_datum,
    quotient_split,
    reduce_p1,
    split_product,
)
from blgroups.groups import (
    HaarMode,
    Homomorphism,
    all_subgroups,
    from_permutations,
    identity_map,
    make_cyclic_product,
    quotient,
)
from blgroups.lie import (
    CompactLieDatum,
    LinearizedMap,
    bl_polytope,
    brute_force_torus_violator,
    closed_pool,
    codimension_check,
    facet_status,
    finiteness,
    split_commutator_center,
    vertices,
)
from blgroups.oracle import exhaustive_indicator_search, oracle_constant
from blgroups.serialize import datum_to_json, tag_to_json


STORED = json.loads(
    (Path(__file__).resolve().parent.parent / "tests" / "answer_digests.json").read_text())


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode() + b"\n")
    return h.hexdigest()


def _symmetric(n):
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return from_permutations(n, [swap, cycle])


def _large_groups():
    yield _symmetric(4)
    yield _symmetric(5)
    for moduli in ([2] * 5, [4] * 3, [3] * 4, [2] * 6, [2] * 7):
        yield make_cyclic_product(moduli)


def _corpus_data(frames, lattices):
    for haar in (HaarMode.PROBABILITY, HaarMode.COUNTING):
        for frame in frames:
            for p in exponent_grid(frame.J):
                yield frame_datum(frame, p, haar), lattices[frame.group]


def _json(out):
    if isinstance(out, BLDatum):
        return datum_to_json(out)
    if isinstance(out, CanonicalTag):
        return tag_to_json(out)
    return [_json(x) for x in out]


def _attempt(op, *args):
    """op(*args) as JSON, or the type and text of the error it raises."""
    try:
        return _json(op(*args))
    except ValueError as err:
        return type(err).__name__, str(err)


def reduction_lines(step=1):
    """The reductions digest's lines; step > 1 keeps every step-th frame
    only, in both Haar modes."""
    frames = _corpus()[0][::step]
    Z2 = make_cyclic_product([2])
    trivial = Homomorphism(Z2, Z2, (0, 0))
    for haar in (HaarMode.PROBABILITY, HaarMode.COUNTING):
        for frame in frames:
            grid = exponent_grid(frame.J)
            base = frame_datum(frame, grid[0], haar)
            tensors = [base]
            for first in (trivial, identity_map(Z2)):
                maps = [first] + [trivial] * (frame.J - 1)
                factor = make_datum(Z2, maps, grid[0], haar, [haar] * frame.J)
                tensors.append(split_product(base, factor))
            for t in tensors:
                for p in grid:
                    d = make_datum(t.G, t.maps, p, haar, [haar] * t.J)
                    yield _attempt(canonicalize, d)
                    for k in range(d.J):
                        yield _attempt(drop_infinite_exponent, d, k)
                        yield _attempt(reduce_p1, d, k)
                for N in all_subgroups(t.G):
                    yield _attempt(quotient_split, t, N)


def _lie_cases():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import torus_pool

    for d, p in torus_pool():
        yield d, [Exponent.of(x) for x in p]
    unit = [[int(c == r) for c in range(3)] for r in range(3)]
    lw = CompactLieDatum((), 3, tuple(LinearizedMap((), unit[:j] + unit[j + 1:])
                                      for j in range(3)))
    yield lw, [Exponent.of(2)] * 3
    yield lw, [Exponent.of("3/2"), Exponent.of(2), Exponent.of(2)]
    planes = unit + [[1, 1, 1]]
    yield (CompactLieDatum((), 3, tuple(LinearizedMap((), [r]) for r in planes)),
           [Exponent.of(4)] * 4)


def _lie_lines():
    for d, p in _lie_cases():
        for max_closure in range(5):
            yield finiteness(d, p, max_closure)
            pool, closed = closed_pool(d, max_closure)
            yield pool, closed
            if closed:
                P = bl_polytope(d, pool)
                verts = vertices(P)
                yield P, verts, facet_status(P, verts)


def _scan_lines():
    for d, p in _lie_cases():
        yield codimension_check(d, p, closed_pool(d, 3)[0])
        torus = split_commutator_center(d)[1]
        if 1 <= torus.torus_dim <= 3:
            yield brute_force_torus_violator(torus, p, box=1)


@functools.cache
def _corpus():
    """The corpus frames and the subgroup lattice of each frame's group."""
    frames = standard_frames()
    return frames, {G: all_subgroups(G) for G in dict.fromkeys(f.group for f in frames)}


def subgroup_lines():
    for G in [*_corpus()[1], *_large_groups()]:
        yield [s.members for s in all_subgroups(G)]


def _constant_line(rep):
    return rep.value.factors, rep.argmax_subgroup.members, rep.tie, rep.canonicalization


def formula_lines(listed=True):
    """The formula digest's lines; listed=False ranks the kernel lattice."""
    for d, subs in _corpus_data(*_corpus()):
        yield _constant_line(bl_constant(d, subgroups=subs) if listed else bl_constant(d))


EXPONENTS = ["1", "4/3", "3/2", "2", "5/2", "3", "inf"]


def _s5_maps(G):
    """A draw of maps out of S5: the identity, the sign (the quotient by the
    one subgroup of order 60), the trivial map, or conjugation by a random
    element."""
    subs = all_subgroups(G)
    A5 = next(N for N in subs if N.order == 60)
    fixed = [identity_map(G), quotient(G, A5)[1], quotient(G, subs[-1])[1]]

    def draw(G, rng):
        k = rng.randrange(len(fixed) + 1)
        if k < len(fixed):
            return fixed[k]
        g = rng.randrange(G.order)
        ginv = G.table[g].index(G.identity)
        return Homomorphism(G, G, tuple(G.table[G.table[g][x]][ginv] for x in range(G.order)))

    return draw


def _rows_map(G, rows):
    """The F2-linear map from G = Z2^n into Z2^k whose output coordinates are
    the parities of x AND each row of bits."""
    target = make_cyclic_product([2] * len(rows))
    images = tuple(sum((bin(r & x).count("1") & 1) << (len(rows) - 1 - i)
                       for i, r in enumerate(rows)) for x in range(G.order))
    return Homomorphism(G, target, images)


def _f2_map(G, rng):
    """A random F2-linear map from G = Z2^n into Z2^k, one random row of
    bits per output coordinate."""
    n = G.order.bit_length() - 1
    return _rows_map(G, [rng.randrange(1, G.order) for _ in range(rng.randint(1, n - 1))])


def frame_maps(G):
    """The n + 1 maps of G = Z2^n onto Z2^(n-1) whose kernels are the n
    coordinate lines and the diagonal: the kernels close under product and
    intersection to every subgroup of G."""
    units = [1 << i for i in range(G.order.bit_length() - 1)]
    maps = [_rows_map(G, [u for u in units if u != e]) for e in units]
    return maps + [_rows_map(G, [u ^ units[-1] for u in units[:-1]])]


# Exponents of `frame_maps` on Z2^6, Z2^6 and Z2^7 at which the maximizer is
# a proper subgroup, of order 16, 4 and 2.
FRAME_EXPONENTS = [("8", "5", "inf", "inf", "6", "2", "6"),
                   ("2", "6", "8", "6", "4", "inf", "inf"),
                   ("8", "8", "3/2", "5", "inf", "8", "5", "inf")]


def large_data():
    """The large digest's data, seeded: 24 on S5, 24 on Z2^6 and 12 on Z2^7,
    then `frame_maps` at each of FRAME_EXPONENTS."""
    S5 = _symmetric(5)
    tiers = [(S5, 24, _s5_maps(S5)), (make_cyclic_product([2] * 6), 24, _f2_map),
             (make_cyclic_product([2] * 7), 12, _f2_map)]
    for seed, (G, count, draw) in enumerate(tiers):
        rng = random.Random(seed)
        for _ in range(count):
            J = rng.randint(2, 4)
            haar = rng.choice((HaarMode.PROBABILITY, HaarMode.COUNTING))
            yield make_datum(G, [draw(G, rng) for _ in range(J)],
                             [rng.choice(EXPONENTS) for _ in range(J)], haar, [haar] * J)
    for p in FRAME_EXPONENTS:
        maps = frame_maps(make_cyclic_product([2] * (len(p) - 1)))
        yield make_datum(maps[0].domain, maps, p)


def large_lines():
    for d in large_data():
        yield _constant_line(bl_constant(d))


def oracle_lines(step=1):
    """The oracle digest's lines; step > 1 keeps every step-th datum only."""
    for d, _ in itertools.islice(_corpus_data(*_corpus()), 0, None, step):
        value, sets = exhaustive_indicator_search(d)
        yield (oracle_constant(d, restarts=8, seed=20).hex(), value.factors, sets)


_S3 = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
_LW = {"group": {"cyclic": [2, 2]}, "codomains": [{"cyclic": [2]}, {"cyclic": [2]}],
       "maps": [[0, 0, 1, 1], [0, 1, 0, 1]], "p": ["2", "2"]}
_T3 = {"simple_dims": [], "torus_dim": 3, "maps": [
    {"kept_simple": [], "torus_matrix": rows}
    for rows in ([[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]])]}

# The cli digest's inputs: finite data that run the whole finite menu, Lie
# data with the exponent lists `check-codim` runs at, and inputs that only
# the failing calls at the end of `cli_calls` read.
CLI_FINITE = {
    "lw": _LW,
    "hoelder": {"group": {"cyclic": [2]}, "codomains": [{"cyclic": [2]}] * 2,
                "maps": [[0, 1], [0, 1]], "p": ["1", "1"]},
    "s3": {"group": _S3, "codomains": [{"cyclic": [2]}, _S3],
           "maps": [[0, 1, 1, 0, 0, 1], [0, 1, 2, 3, 4, 5]], "p": ["3/2", "3"]},
    # tie-heavy: many indicator tuples share each key
    "s3-ones": {"group": _S3, "codomains": [{"cyclic": [2]}, _S3],
                "maps": [[0, 1, 1, 0, 0, 1], [0, 1, 2, 3, 4, 5]], "p": ["1", "1"]},
    "v4-ties": {"group": {"cyclic": [2, 2]},
                "codomains": [{"cyclic": [2]}] * 3 + [{"cyclic": [2, 2]}],
                "maps": [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [0, 1, 2, 3]],
                "p": ["1", "inf", "1", "inf"]},
    "z6-ties": {"group": {"cyclic": [6]},
                "codomains": [{"cyclic": [2]}, {"cyclic": [3]}, {"cyclic": [6]},
                              {"cyclic": [2]}],
                "maps": [[x % 2 for x in range(6)], [x % 3 for x in range(6)],
                         list(range(6)), [x % 2 for x in range(6)]],
                "p": ["1", "inf", "1", "inf"]},
    "mixed": dict(_LW, p=["4/3", "5/2"],
                  haar={"G": "counting", "codomains": ["probability", "counting"]}),
    "empty": {"group": {"cyclic": [2, 3]}, "codomains": [], "maps": [], "p": []},
    "z2-three": {"group": {"cyclic": [2]}, "codomains": [{"cyclic": [2]}] * 3,
                 "maps": [[0, 1]] * 3, "p": ["4/3", "5/2", "1000/999"]},
    # non-canonical: the doubling map of Z4 has a kernel
    "double": {"group": {"cyclic": [4]}, "codomains": [{"cyclic": [4]}] * 2,
               "maps": [[0, 2, 0, 2], [0, 1, 2, 3]], "p": ["4/3", "1000/999"]},
    "lw-inf-one": dict(_LW, p=["inf", "1"],
                       haar={"G": "counting", "codomains": ["counting", "counting"]}),
    # a map onto the non-normal subgroup {e, (0 1)} of S3
    "s3-non-normal": {"group": _S3, "codomains": [_S3, _S3],
                      "maps": [[0, 2, 2, 0, 0, 2], [0, 1, 2, 3, 4, 5]], "p": ["1", "2"]},
    # Z4 as a labelled table; one sweep of one start falls short of the
    # constant at these exponents, so `verify` exits 1 there
    "z4-table": {"group": {"order": 4, "labels": ["e", "a", "b", "c"],
                           "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]},
                 "codomains": [{"cyclic": [2]}, {"cyclic": [4]}, {"cyclic": [4]}],
                 "maps": [[0, 0, 1, 1], [0, 2, 1, 3], [0, 2, 1, 3]],
                 "p": ["1", "3/2", "inf"]},
}
CLI_LIE = {
    "t3": (_T3, ["2,2,2", "3/2,2,2"]),
    "planes": ({"simple_dims": [], "torus_dim": 3,
                "maps": [{"kept_simple": [], "torus_matrix": [row]}
                         for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])]},
               ["4,4,4,4", "2,2,2,2"]),
    "su2-t3": (dict(_T3, simple_dims=[3],
                    maps=[dict(m, kept_simple=[0]) for m in _T3["maps"]]),
               ["2,2,2", "3/2,3/2,3/2"]),
    # a polytope past the vertex cap
    "nine": ({"simple_dims": [], "torus_dim": 1,
              "maps": [{"kept_simple": [], "torus_matrix": [[1]]}] * 9}, ["2" + ",2" * 8]),
}
CLI_FAILING = {
    # an exponent too large for a float: the ascent exits 5
    "huge-p": {"group": {"cyclic": [2]}, "codomains": [{"cyclic": [2]}], "maps": [[0, 1]],
               "p": [str(10**400)]},
    "big": dict(_LW, group={"cyclic": [8, 8]}),
    "no-codomains": {"group": {"cyclic": [2]}},
    "bad-p": {"group": {"cyclic": [2]}, "codomains": [{"cyclic": [2]}] * 2,
              "maps": [[0, 1], [0, 1]], "p": ["1/0", "1"]},
}


def cli_calls():
    """The cli digest's argument lists, with IN for the input directory."""
    for name, obj in CLI_FINITE.items():
        path = ["--in", f"IN/{name}.json"]
        for haar in ([], ["--haar", "counting"], ["--haar", "probability"]):
            for extra in ([], ["--format", "table"], ["--candidates"]):
                yield ["constant", *path, *haar, *extra]
            yield ["verify", *path, *haar, "--restarts", "2"]
            yield ["oracle", *path, *haar, "--restarts", "2"]
            yield ["reduce", *path, *haar, "--op", "canonicalize"]
            J = len(obj["maps"])
            for op in ("drop-inf", "reduce-p1"):
                for index in (-1, *range(J), J, 5):
                    yield ["reduce", *path, *haar, "--op", op, "--index", str(index)]
    for name, (_, exponents) in CLI_LIE.items():
        path = ["--in", f"IN/{name}.json"]
        for closure in ("0", "3"):
            for p in exponents:
                for extra in ([], ["--show-pool"]):
                    yield ["check-codim", *path, "--p", p, "--max-closure", closure, *extra]
            for extra in ([], ["--format", "table"]):
                yield ["polytope", *path, "--max-closure", closure, *extra]
    for command in ("oracle", "verify", "constant"):
        yield [command, "--in", "IN/huge-p.json"]
    yield ["verify", "--in", "IN/z4-table.json", "--restarts", "1", "--max-sweeps", "1"]
    for cap in ([], ["--order-cap", "16"]):
        yield ["constant", "--in", "IN/big.json", *cap]
    for name in ("no-codomains", "bad-p", "none"):
        yield ["constant", "--in", f"IN/{name}.json"]
    yield ["constant", "--in", "IN/lw.json", "--max-sweeps", "1"]  # refused by argparse
    yield ["oracle", "--in", "IN/lw.json", "--max-sweeps", "0"]
    yield ["check-codim", "--in", "IN/t3.json", "--p", "1/0,2,2"]
    for extra in ([], ["--format", "table"], ["--n", "2", "--alphas", "1,2", "--M", "3"],
                  ["--alphas", "1,1/2", "--eps", "1/7"], ["--M", "1/0"],
                  ["--M", "100", "--budget", "10"]):
        yield ["heisenberg-demo", *extra]


def _run_cli(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_lines(step=1):
    """The cli digest's lines; step > 1 keeps every step-th call only."""
    with tempfile.TemporaryDirectory() as tmp:
        lie = {name: obj for name, (obj, _) in CLI_LIE.items()}
        for name, obj in {**CLI_FINITE, **lie, **CLI_FAILING}.items():
            Path(tmp, f"{name}.json").write_text(json.dumps(obj))
        for argv in itertools.islice(cli_calls(), 0, None, step):
            code, out, err = _run_cli([a.replace("IN/", tmp + "/", 1) for a in argv])
            kept = [line for line in out.replace(tmp, "IN").splitlines()
                    if not line.lstrip().startswith(('"timing_s":', "timing_s:"))]
            yield argv, kept, err.replace(tmp, "IN"), code


DIGESTS = {"subgroups": subgroup_lines, "formula": formula_lines,
           "oracle": oracle_lines, "reductions": reduction_lines,
           "lie": _lie_lines, "scan": _scan_lines, "large": large_lines,
           "cli": cli_lines}


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    unknown = [name for name in names if name not in DIGESTS]
    if unknown:
        sys.exit(f"unknown digest {unknown[0]!r}; choose from {', '.join(DIGESTS)}")
    moved = []
    for name in names or DIGESTS:
        start = time.perf_counter()
        value = digest(DIGESTS[name]())
        print(name, value, flush=True)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        if value != STORED[name]:
            moved.append(name)
            print(f"{name}: differs from the stored {STORED[name]}", file=sys.stderr)
    if moved:
        sys.exit(1)


if __name__ == "__main__":
    main()
