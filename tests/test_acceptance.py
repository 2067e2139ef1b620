"""Acceptance suite: one test per criterion, each printing a PASS line.

The corpus for the cross-validation criteria is the deterministic family
from blgroups.corpus: every subgroup of a product of 2 or 3 factors drawn
from Z2, Z3, Z4, S3 that projects onto each factor (triples capped at
product order 36 to stay inside the stated runtime budget), crossed with
all exponent tuples over {1, 3/2, 2, 3, inf}, probability Haar.  Counting
variants are added where a criterion prescribes other normalizations.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

from blgroups.constant import bl_constant
from blgroups.corpus import (
    exponent_grid,
    frame_datum,
    standard_frames,
)
from blgroups.datum import (
    Exponent,
    NormalizationError,
    drop_infinite_exponent,
    make_datum,
    quotient_split,
    reduce_p1,
    split_product,
)
from blgroups.exact import ExactValue
from blgroups.groups import (
    GroupStructureError,
    HaarMode,
    Homomorphism,
    all_subgroups,
    identity_map,
    make_cyclic_product,
    normality_witness,
)
from blgroups.heisenberg import divergence_witness
from blgroups.lie import (
    CompactLieDatum,
    LinearizedMap,
    Verdict,
    bl_polytope,
    brute_force_torus_violator,
    closed_pool,
    codimension_defect,
    finiteness,
    membership,
    vertices,
    zero_ideal,
)
from blgroups.oracle import (
    InputTuple,
    alternating_ascent,
    exhaustive_indicator_search,
    oracle_constant,
)

C = HaarMode.COUNTING
P = HaarMode.PROBABILITY

_FRAMES = None
_LATTICES: dict = {}


def corpus_frames():
    global _FRAMES
    if _FRAMES is None:
        _FRAMES = standard_frames()
    return _FRAMES


def lattice(G):
    if G not in _LATTICES:
        _LATTICES[G] = all_subgroups(G)
    return _LATTICES[G]


def constant(d):
    return bl_constant(d, subgroups=lattice(d.G))


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


# -- 1: equivalence of formula, exhaustive search, and ascent -----------------


def test_corpus_cross_validation():
    """Subgroup formula == exhaustive indicator maximum exactly, and the
    ascent oracle agrees within 1e-9 relative, on the whole corpus."""
    started = time.monotonic()
    frames = corpus_frames()
    checked = 0
    for frame in frames:
        subs = lattice(frame.group)
        for p in exponent_grid(frame.J):
            d = frame_datum(frame, p)
            rep = bl_constant(d, subgroups=subs)
            ev, _ = exhaustive_indicator_search(d, budget=2**22)
            assert ev.compare(rep.value) == 0, (frame.name, [str(x) for x in p])
            approx = rep.value.to_float()
            got = oracle_constant(d, restarts=8, seed=20)
            assert abs(got - approx) <= 1e-9 * approx, (
                frame.name,
                [str(x) for x in p],
                got,
                approx,
            )
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"corpus run took {elapsed:.0f}s, budget 300s"
    report(1, f"{checked} data across {len(frames)} frames in {elapsed:.0f}s")


# -- 2: the power law for identity data on cyclic groups ----------------------


TWENTY_TUPLES = [
    ("1",), ("2",), ("inf",), ("3/2",),
    ("1", "1"), ("1", "2"), ("3/2", "3"), ("2", "2"),
    ("3", "3"), ("1", "inf"), ("inf", "inf"), ("3/2", "3/2"),
    ("1", "1", "1"), ("2", "2", "2"), ("1", "3/2", "2"), ("3", "3", "3"),
    ("2", "3", "inf"), ("1", "1", "inf"), ("3/2", "2", "3"), ("inf", "inf", "inf"),
]


def test_hoelder_law_on_cyclic_groups():
    """Identity maps on Zn under probability Haar: the constant is exactly
    max(1, n^(sum of reciprocals - 1))."""
    assert len(TWENTY_TUPLES) == 20
    checked = 0
    for n in (2, 3, 4, 5):
        Zn = make_cyclic_product([n])
        subs = all_subgroups(Zn)
        for p in TWENTY_TUPLES:
            d = make_datum(Zn, [identity_map(Zn)] * len(p), p)
            s = sum(Exponent.of(x).reciprocal() for x in p)
            expected = (
                ExactValue.one()
                if s <= 1
                else ExactValue.from_rational(n) ** (s - 1)
            )
            got = bl_constant(d, subgroups=subs).value
            assert got.compare(expected) == 0, (n, p)
            checked += 1
    report(2, f"{checked} (n, p) pairs match the closed form exactly")


# -- 3: constants multiply across products ------------------------------------


def test_product_multiplicativity():
    """bl(d1 x d2) = bl(d1) * bl(d2) exactly on 10 seeded corpus pairs."""
    rng = random.Random(303)
    frames = [f for f in corpus_frames() if f.group.order <= 9]
    pairs = []
    while len(pairs) < 10:
        f1, f2 = rng.sample(frames, 2)
        if f1.J == f2.J and f1.group.order * f2.group.order <= 72:
            pairs.append((f1, f2))
    for f1, f2 in pairs:
        p = tuple(rng.choice(["1", "3/2", "2", "3", "inf"]) for _ in range(f1.J))
        d1, d2 = frame_datum(f1, p), frame_datum(f2, p)
        prod = split_product(d1, d2)
        lhs = bl_constant(prod).value
        rhs = constant(d1).value * constant(d2).value
        assert lhs.compare(rhs) == 0, (f1.name, f2.name, p)
    report(3, "10 product data multiply exactly")


# -- 4: splitting along a normal subgroup is submultiplicative ----------------


def test_quotient_submultiplicativity():
    """bl(d) <= bl(restricted) * bl(quotient) exactly, for every normal
    subgroup of 10 seeded corpus data."""
    rng = random.Random(404)
    frames = rng.sample([f for f in corpus_frames() if f.group.order <= 24], 10)
    checked = 0
    for frame in frames:
        p = tuple(rng.choice(["1", "3/2", "2", "3", "inf"]) for _ in range(frame.J))
        for haar in (P, C):
            d = frame_datum(frame, p, haar)
            base = constant(d).value
            for N in lattice(d.G):
                if normality_witness(d.G, N) is not None:
                    continue
                try:
                    restricted, quot = quotient_split(d, N)
                except GroupStructureError:
                    continue  # some image is not normal in its codomain
                bound = constant(restricted).value * constant(quot).value
                assert base.compare(bound) <= 0, (frame.name, p, N.members)
                checked += 1
    assert checked >= 40
    report(4, f"{checked} (datum, normal subgroup) splits verified exactly")


# -- 5: reductions preserve the constant exactly ------------------------------


def test_reduction_exactness():
    """Deleting an infinite index never changes the constant; reducing at an
    index with p = 1 preserves it whenever the prescribed measures are
    representable (always, for counting data)."""
    frames = [f for f in corpus_frames() if f.group.order <= 16]
    dropped = reduced = skipped = 0
    for frame in frames:
        grid = [p for p in exponent_grid(frame.J)
                if any(x.is_infinite for x in p) or any(x.value == 1 for x in p if not x.is_infinite)]
        for p in grid[:: max(1, len(grid) // 12)]:
            for haar in (P, C):
                d = frame_datum(frame, p, haar)
                base = constant(d).value
                for k, x in enumerate(p):
                    if x.is_infinite:
                        out = drop_infinite_exponent(d, k)
                        assert constant(out).value.compare(base) == 0, (
                            frame.name, [str(t) for t in p], k, haar)
                        dropped += 1
                    elif x.value == 1:
                        try:
                            out = reduce_p1(d, k)
                        except NormalizationError:
                            skipped += 1
                            continue
                        assert constant(out).value.compare(base) == 0, (
                            frame.name, [str(t) for t in p], k, haar)
                        reduced += 1
    assert dropped > 100 and reduced > 100
    report(5, f"{dropped} deletions and {reduced} p=1 reductions exact "
              f"({skipped} not representable, skipped)")


# -- 6: the Loomis-Whitney polytope ---------------------------------------------


def t3_loomis_whitney():
    def delete(j):
        rows = [[1 if c == r else 0 for c in range(3)] for r in range(3) if r != j]
        return LinearizedMap((), rows)

    return CompactLieDatum((), 3, (delete(0), delete(1), delete(2)))


def test_loomis_whitney_polytope():
    """Exact vertex set, membership of the symmetric point, and rejection of
    (3/2, 2, 2) with the zero ideal as violator at slack 1/3, in under 1s."""
    started = time.monotonic()
    d = t3_loomis_whitney()
    pool = closed_pool(d)[0]
    V = vertices(bl_polytope(d, pool))
    F = Fraction
    assert set(V) == {
        (F(0), F(0), F(0)),
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
        (F(1, 2), F(1, 2), F(1, 2)),
    }
    assert membership(bl_polytope(d, pool), [2, 2, 2])
    rep = finiteness(d, [Exponent.of("3/2"), Exponent.of(2), Exponent.of(2)])
    assert rep.verdict is Verdict.INFINITE
    assert rep.violator == zero_ideal()
    assert rep.slack == Fraction(1, 3)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    report(6, f"vertices, membership, and rejection exact in {elapsed * 1000:.0f}ms")


# -- 7: torus verdicts against dense brute force ---------------------------------


def random_torus_datum(rng):
    t = rng.randint(1, 3)
    J = rng.randint(1, 3)
    maps = []
    for _ in range(J):
        rows = rng.randint(1, 3)
        maps.append(
            LinearizedMap(
                (),
                [[rng.randint(-2, 2) for _ in range(t)] for _ in range(rows)],
            )
        )
    return CompactLieDatum((), t, tuple(maps))


def test_torus_bruteforce_agreement():
    """Pool verdicts against a scan of all subspaces with basis entries in
    [-3, 3]: FINITE and UNDECIDED require the scan to find no violator;
    INFINITE carries a self-verifying certificate."""
    started = time.monotonic()
    rng = random.Random(707)
    counts = {v: 0 for v in Verdict}
    for _ in range(36):
        d = random_torus_datum(rng)
        p = [rng.choice(["1", "3/2", "2", "3", "inf"]) for _ in range(d.J)]
        p = [Exponent.of(x) for x in p]
        rep = finiteness(d, p)
        brute = brute_force_torus_violator(d, p, box=3)
        counts[rep.verdict] += 1
        if rep.verdict is Verdict.INFINITE:
            assert codimension_defect(d, p, rep.violator) > 0
        else:
            assert brute is None, (
                f"brute-force violator missed by the pool: {brute} "
                f"(verdict {rep.verdict})"
            )
    elapsed = time.monotonic() - started
    assert counts[Verdict.FINITE] > 0 and counts[Verdict.INFINITE] > 0
    assert elapsed < 600, f"took {elapsed:.0f}s, budget 600s"
    report(
        7,
        f"36 verdicts ({counts[Verdict.FINITE]} finite, "
        f"{counts[Verdict.INFINITE]} infinite, "
        f"{counts[Verdict.UNDECIDED]} undecided) agree with the scan "
        f"in {elapsed:.0f}s",
    )


# -- 8: finite verdicts realize as constant exactly 1 ------------------------------


def mod_n_map(n, matrix, t):
    """The action of an integer matrix on Z_n^t as a group homomorphism."""
    src = make_cyclic_product([n] * t)
    rows = len(matrix)
    dst = make_cyclic_product([n] * rows)

    def digits(i, k):
        out = []
        for _ in range(k):
            i, r = divmod(i, n)
            out.append(r)
        return list(reversed(out))

    def index(ds):
        i = 0
        for v in ds:
            i = i * n + v
        return i

    images = []
    for x in range(src.order):
        xs = digits(x, t)
        images.append(index([sum(m * v for m, v in zip(row, xs)) % n for row in matrix]))
    return src, dst, Homomorphism(src, dst, tuple(images))


def realize_over_zn(d: CompactLieDatum, n: int):
    src = make_cyclic_product([n] * d.torus_dim)
    maps = []
    for m in d.maps:
        _, dst, h = mod_n_map(n, [[int(v) for v in row] for row in m.torus_matrix],
                              d.torus_dim)
        maps.append(h)
    return src, maps


def test_finite_verdicts_give_constant_one():
    """Every FINITE-verdict torus datum in the curated list, realized over
    Z_n with probability Haar, has constant exactly 1."""
    cases = [
        (t3_loomis_whitney(), ("2", "2", "2"), (2, 3, 4)),
        (t3_loomis_whitney(), ("1", "inf", "inf"), (2, 3)),
        (
            CompactLieDatum(
                (), 2, (LinearizedMap((), [[1, 0]]), LinearizedMap((), [[0, 1]]))
            ),
            ("2", "2"),
            (3, 5),
        ),
        (CompactLieDatum((), 1, (LinearizedMap((), [[1]]),)), ("1",), (4, 6)),
        (
            CompactLieDatum(
                (), 2, (LinearizedMap((), [[1, 0], [0, 1]]),)
            ),
            ("1",),
            (3, 4),
        ),
    ]
    checked = 0
    for d, p, ns in cases:
        rep = finiteness(d, [Exponent.of(x) for x in p])
        assert rep.verdict is Verdict.FINITE, (p, rep.verdict)
        for n in ns:
            src, maps = realize_over_zn(d, n)
            datum = make_datum(src, maps, p)
            got = bl_constant(datum).value
            assert got.is_one, (p, n, str(got))
            checked += 1
    report(8, f"{checked} finite-group realizations all have constant 1")


# -- 9: the divergence construction ----------------------------------------------


def test_heisenberg_divergence():
    """For steps (1, 1/2) and (1, 2/3) and box volume 1, the witness beats
    M = 10, 100, 1000 with an exact lower bound, well under 30s each."""
    F = Fraction
    for alphas in ([F(1), F(1, 2)], [F(1), F(2, 3)]):
        for M in (10, 100, 1000):
            started = time.monotonic()
            dv = divergence_witness(1, alphas, F(M), F(1, 2), F(1, 10))
            elapsed = time.monotonic() - started
            assert dv.box_volume == 1
            assert dv.lower_bound > M
            assert dv.witness.verify(alphas)
            assert elapsed < 30, f"took {elapsed:.1f}s, budget 30s"
    report(9, "6 witnesses exceed their targets with exact arithmetic")


# -- 10: ascent traces never decrease ----------------------------------------------


def test_ascent_monotonicity():
    """10^3 seeded ascent runs: every sweep trace is nondecreasing up to
    1e-15 renormalization jitter."""
    rng = random.Random(1010)
    frames = [f for f in corpus_frames() if f.group.order <= 12]
    runs = 0
    for _ in range(1000):
        frame = rng.choice(frames)
        p = tuple(rng.choice(["1", "3/2", "2", "3", "inf"]) for _ in range(frame.J))
        d = frame_datum(frame, p)
        init = InputTuple(
            [[rng.random() + 0.02 for _ in range(c.order)] for c in d.codomains]
        )
        _, _, trace = alternating_ascent(d, init, max_sweeps=40)
        for a, b in zip(trace.values, trace.values[1:]):
            assert b >= a - 1e-15 * max(1.0, abs(a)), (frame.name, p, trace.values)
        runs += 1
    assert runs == 1000
    report(10, "1000 ascent traces are monotone within 1e-15 jitter")
