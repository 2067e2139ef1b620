import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blgroups.heisenberg import (
    ApproximationWitness,
    DilationStructure,
    HeisenbergElement,
    ScanBudgetError,
    _rational_lcm,
    divergence_witness,
    heisenberg_commutator,
    heisenberg_multiply,
    kronecker_sequence,
    scaling_condition,
)

F = Fraction

small_rationals = st.fractions(
    min_value=F(-8), max_value=F(8), max_denominator=12
)


def elem(re, im, t):
    return HeisenbergElement(((F(re), F(im)),), F(t))


# -- dilations and scaling ----------------------------------------------------


def test_homogeneous_dimension_euclidean():
    assert DilationStructure((1, 1, 1)).Q() == 3


def test_homogeneous_dimension_heisenberg():
    # weights (1, 1, 2) for C x R; Q = 2n + 2 at n = 1
    assert DilationStructure((1,) * 2 + (2,)).Q() == 4
    assert DilationStructure((1,) * 6 + (2,)).Q() == 8


def test_homogeneous_dimension_rational_weights():
    assert DilationStructure((F(1, 2), F(3, 2))).Q() == 2


def test_scaling_condition_examples():
    assert scaling_condition(4, [4, 4], [2, 2]) == (True, 0)
    holds, defect = scaling_condition(4, [4, 4], [2, 3])
    assert not holds and defect == F(-2, 3)
    assert scaling_condition(0, [], []) == (True, 0)


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        DilationStructure((1, 0))


# -- group law -----------------------------------------------------------------


def test_multiply_parallel_vectors_commute():
    a = elem(1, 0, 0)
    prod = heisenberg_multiply(a, a)
    assert prod.z == ((F(2), F(0)),) and prod.t == 0


def test_commutator_of_orthogonal_directions():
    a = elem(1, 0, 0)
    b = elem(0, 1, 0)
    assert heisenberg_commutator(a, b).t == 1


def test_commutator_of_equal_elements_vanishes():
    a = elem(F(3, 2), F(-1, 3), F(7))
    c = heisenberg_commutator(a, a)
    assert c.t == 0 and all(v == 0 for pair in c.z for v in pair)


def test_commutator_self_check_raises(monkeypatch):
    # the check must survive python -O, so it cannot be an assert
    import blgroups.heisenberg as heis

    def off_centre(a, b):
        return HeisenbergElement(((a.z[0][0] + 1, F(0)),), a.t + b.t)

    monkeypatch.setattr(heis, "heisenberg_multiply", off_centre)
    with pytest.raises(ArithmeticError, match="central formula"):
        heisenberg_commutator(elem(1, 0, 0), elem(0, 1, 0))


def test_dimension_mismatch():
    a = elem(1, 0, 0)
    b = HeisenbergElement(((F(1), F(0)), (F(0), F(0))), F(0))
    with pytest.raises(ValueError):
        heisenberg_multiply(a, b)


@settings(max_examples=150, deadline=None)
@given(*[small_rationals] * 9)
def test_associativity_exact(ax, ay, at, bx, by, bt, cx, cy, ct):
    a, b, c = elem(ax, ay, at), elem(bx, by, bt), elem(cx, cy, ct)
    lhs = heisenberg_multiply(heisenberg_multiply(a, b), c)
    rhs = heisenberg_multiply(a, heisenberg_multiply(b, c))
    assert lhs == rhs


def test_associativity_thousand_random_triples():
    import random

    rng = random.Random(99)

    def rand_elem(n):
        return HeisenbergElement(
            tuple(
                (F(rng.randint(-60, 60), rng.randint(1, 12)),
                 F(rng.randint(-60, 60), rng.randint(1, 12)))
                for _ in range(n)
            ),
            F(rng.randint(-60, 60), rng.randint(1, 12)),
        )

    for _ in range(1000):
        n = rng.randint(1, 3)
        a, b, c = rand_elem(n), rand_elem(n), rand_elem(n)
        lhs = heisenberg_multiply(heisenberg_multiply(a, b), c)
        rhs = heisenberg_multiply(a, heisenberg_multiply(b, c))
        assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(*[small_rationals] * 6)
def test_commutator_is_central_with_exact_value(ax, ay, bx, by, at, bt):
    a, b = elem(ax, ay, at), elem(bx, by, bt)
    c = heisenberg_commutator(a, b)
    assert all(v == 0 for pair in c.z for v in pair)
    assert c.t == ax * by - ay * bx


def test_inverse():
    a = elem(2, -3, F(1, 2))
    e = heisenberg_multiply(a, a.inverse())
    assert e.t == 0 and all(v == 0 for pair in e.z for v in pair)


# -- simultaneous approximation ---------------------------------------------------


def test_kronecker_integer_steps():
    w = kronecker_sequence([F(1)], F(1, 10), 3, F(1))
    assert w.times == (F(1), F(2), F(3))
    assert w.integers == ((1,), (2,), (3,))
    assert w.verify([F(1)])


def test_kronecker_half_steps():
    w = kronecker_sequence([F(1), F(1, 2)], F(1, 10), 2, F(1))
    assert w.times == (F(1), F(2))
    assert w.integers == ((1, 2), (2, 4))


def test_kronecker_two_thirds():
    w = kronecker_sequence([F(1), F(2, 3)], F(1, 10), 2, F(1))
    assert w.times == (F(2), F(4))
    assert w.integers == ((2, 3), (4, 6))
    assert w.verify([F(1), F(2, 3)])


def test_kronecker_spacing_respected():
    w = kronecker_sequence([F(1, 3)], F(1, 100), 4, F(5, 4))
    gaps = [b - a for a, b in zip(w.times, w.times[1:])]
    assert all(g >= F(5, 4) for g in gaps)
    assert w.verify([F(1, 3)])


def test_kronecker_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kronecker_sequence([F(1)], F(0), 1, F(1))
    with pytest.raises(ValueError, match="^count must be at least 1$"):
        kronecker_sequence([F(1)], F(1, 10), 0, F(1))
    with pytest.raises(ValueError):
        kronecker_sequence([], F(1, 10), 1, F(1))
    with pytest.raises(ValueError):
        kronecker_sequence([F(-1)], F(1, 10), 1, F(1))


def test_kronecker_budget_error():
    with pytest.raises(ScanBudgetError):
        kronecker_sequence([F(1)], F(1, 10), 5, F(100), budget=3)


def reference_kronecker_sequence(alphas, eps, count, spacing, budget=10**8):
    """The grid scan that the closed form replaced: walk L m for m = 1, 2, ...
    and keep each time at least `spacing` past the last one kept."""
    alphas = [F(a) for a in alphas]
    L = _rational_lcm(alphas)
    times, integers, last, m = [], [], None, 0
    while len(times) < count:
        m += 1
        if m > budget:
            raise ScanBudgetError(
                f"scanned {budget} grid points but found only {len(times)} of "
                f"{count} witnesses"
            )
        t = L * m
        if last is not None and t - last < spacing:
            continue
        ks = [t / a for a in alphas]
        if any(k.denominator != 1 for k in ks):
            continue
        times.append(t)
        integers.append(tuple(int(k) for k in ks))
        last = t
    return tuple(times), tuple(integers)


def loop_rational_lcm(values):
    """lcm of positive rationals, folded one value at a time."""
    num, g = 1, 0
    for v in values:
        v = F(v)
        num = num * v.numerator // math.gcd(num, v.numerator)
        g = math.gcd(g, v.denominator)
    return F(num, g)


@given(st.lists(st.fractions(min_value=F(1, 50), max_value=F(50), max_denominator=50),
                min_size=1, max_size=6))
def test_rational_lcm_matches_the_folded_loop(alphas):
    L = _rational_lcm(alphas)
    assert L == loop_rational_lcm(alphas)
    assert all((L / a).denominator == 1 for a in alphas)


def test_kronecker_closed_form_matches_grid_scan():
    rationals = (F(1), F(1, 2), F(2, 3), F(3, 4), F(5), F(7, 6), F(1, 3))
    alpha_sets = [[a] for a in rationals] + [list(c) for c in combinations(rationals, 2)]
    spacings = (F(-1), F(0), F(1, 7), F(1), F(5, 2), F(13))
    outcomes = Counter()
    for alphas, spacing, count, budget in product(
            alpha_sets, spacings, (1, 2, 5), (0, 1, 3, 10, 10**8)):
        try:
            want = reference_kronecker_sequence(alphas, spacing=spacing, eps=F(1, 10),
                                                count=count, budget=budget)
        except ScanBudgetError as exc:
            with pytest.raises(ScanBudgetError) as got:
                kronecker_sequence(alphas, F(1, 10), count, spacing, budget=budget)
            assert str(got.value) == str(exc)
            outcomes["budget"] += 1
            continue
        w = kronecker_sequence(alphas, F(1, 10), count, spacing, budget=budget)
        assert (w.times, w.integers) == want
        assert all(type(t) is F for t in w.times)
        assert all(type(k) is int for ks in w.integers for k in ks)
        outcomes["found"] += 1
    assert sum(outcomes.values()) == 2520 and min(outcomes.values()) > 300, outcomes


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=F(1, 6), max_value=F(4), max_denominator=6),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_kronecker_witnesses_reverify(alphas, count):
    w = kronecker_sequence(alphas, F(1, 50), count, F(1, 2))
    assert len(w.times) == count
    assert w.verify(alphas)


# -- divergence ----------------------------------------------------------------------


def test_divergence_unit_box():
    dv = divergence_witness(1, [F(1)], F(10), F(1, 2), F(1, 10))
    assert dv.terms == 11 and dv.lower_bound == 11
    assert dv.box_volume == 1


def test_divergence_tiny_target():
    dv = divergence_witness(1, [F(1)], F(1, 2), F(1, 2), F(1, 10))
    assert dv.terms == 1 and dv.lower_bound == 1


def test_divergence_two_alphas():
    dv = divergence_witness(1, [F(1), F(1, 2)], F(5), F(1, 2), F(1, 10))
    assert dv.terms == 6 and dv.lower_bound == 6
    assert dv.witness.verify([F(1), F(1, 2)])


def test_divergence_translates_are_disjoint():
    dv = divergence_witness(2, [F(1), F(2, 3)], F(30), F(1, 2), F(1, 10))
    # central translates are disjoint iff times are spaced by the t-diameter
    diameter = 1
    gaps = [b - a for a, b in zip(dv.witness.times, dv.witness.times[1:])]
    assert all(g >= diameter for g in gaps)
    assert dv.lower_bound > 30


def test_divergence_monotone_and_unbounded():
    bounds = [
        divergence_witness(1, [F(1), F(1, 2)], M, F(1, 2), F(1, 10)).lower_bound
        for M in (1, 10, 100, 1000)
    ]
    assert bounds == sorted(bounds)
    assert all(b > m for b, m in zip(bounds, (1, 10, 100, 1000)))


def test_divergence_requires_eps_inside_box():
    with pytest.raises(ValueError):
        divergence_witness(1, [F(1)], F(10), F(1, 2), F(1, 2))


@pytest.mark.parametrize("M", [F(0), F(-3)])
def test_divergence_requires_positive_target(M):
    with pytest.raises(ValueError, match="^M must be positive$"):
        divergence_witness(1, [F(1)], M)


def test_divergence_requires_a_heisenberg_dimension():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        divergence_witness(0, [F(1)], F(10))


def test_witness_verify_fails_off_the_grid_and_below_the_spacing():
    w = kronecker_sequence([F(1, 2)], F(1, 10), 3, F(1))
    assert w.times == (F(1, 2), F(3, 2), F(5, 2)) and w.integers == ((1,), (3,), (5,))
    assert w.verify([F(1, 2)])
    # against 2/3 the first pair misses by |1/2 - 2/3| = 1/6 >= eps
    assert not w.verify([F(2, 3)])
    # the times are 1 apart, closer than a spacing of 2
    close = ApproximationWitness(w.times, w.integers, w.eps, F(2))
    assert not close.verify([F(1, 2)])


def test_scaling_defect_vanishes_at_balanced_polytope_vertices():
    # torus data: weights are all 1, so Q = dim and Q_j = image dimension;
    # at any polytope vertex where the zero-subspace constraint is tight the
    # scaling balance holds exactly
    from blgroups.lie import (
        CompactLieDatum,
        LinearizedMap,
        bl_polytope,
        _Sums,
        closed_pool,
        vertices,
    )

    def delete(j):
        rows = [[1 if c == r else 0 for c in range(3)] for r in range(3) if r != j]
        return LinearizedMap((), rows)

    data = [
        CompactLieDatum((), 3, (delete(0), delete(1), delete(2))),
        CompactLieDatum(
            (), 2, (LinearizedMap((), [[1, 0]]), LinearizedMap((), [[0, 1]]))
        ),
    ]
    checked = 0
    for d in data:
        g_dims = _Sums(d).ranks
        P = bl_polytope(d, closed_pool(d)[0])
        for v in vertices(P):
            if sum(x * g for x, g in zip(v, g_dims)) != d.torus_dim:
                continue
            p = ["inf" if x == 0 else 1 / x for x in v]
            holds, defect = scaling_condition(F(d.torus_dim), g_dims, p)
            assert holds and defect == 0
            checked += 1
    assert checked >= 2
