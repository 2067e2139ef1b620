import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blgroups.lie as lie
from blgroups.datum import Exponent
from blgroups.lie import (
    CompactLieDatum,
    FinitenessReport,
    IdealSpec,
    LinearizedMap,
    Verdict,
    bl_polytope,
    brute_force_torus_violator,
    closed_pool,
    codimension_check,
    codimension_defect,
    facet_status,
    finiteness,
    full_ideal,
    membership,
    membership_point,
    split_commutator_center,
    vertices,
    zero_ideal,
)
from blgroups.rational_linalg import (
    enumerate_box_subspaces,
    fractions,
    int_kernel,
    int_meet,
    int_solve,
    int_sum,
    primitive,
    rref,
    scaled,
)

E = Exponent.of


def t3_loomis_whitney():
    def delete(j):
        rows = [[1 if c == r else 0 for c in range(3)] for r in range(3) if r != j]
        return LinearizedMap((), rows)

    return CompactLieDatum((), 3, (delete(0), delete(1), delete(2)))


def t2_two_projections():
    return CompactLieDatum(
        (), 2, (LinearizedMap((), [[1, 0]]), LinearizedMap((), [[0, 1]]))
    )


# -- rational linear algebra ----------------------------------------------------


def test_rref_canonical():
    A = rref([[2, 4, 0], [1, 2, 1]])
    assert A == ((Fraction(1), Fraction(2), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)))
    assert rref(A) == A


def test_rank_and_nullspace():
    M = [[2, -1, 0], [0, 2, -1]]
    assert len(primitive(M)) == 2
    ns = fractions(int_kernel(scaled(M), 3))
    assert len(ns) == 1
    v = ns[0]
    assert 2 * v[0] - v[1] == 0 and 2 * v[1] - v[2] == 0


def reference_solve_square(A, b):
    """Fraction Gauss-Jordan elimination, the Fraction solver that int_solve
    replaced."""
    A = [list(map(Fraction, row)) for row in A]
    b = [Fraction(v) for v in b]
    n = len(A)
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return None
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        lead = A[col][col]
        A[col] = [v / lead for v in A[col]]
        b[col] /= lead
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [u - f * v for u, v in zip(A[r], A[col])]
                b[r] -= f * b[col]
    return tuple(b)


def test_int_solve_matches_fraction_elimination():
    rng = random.Random(4242)
    singular = 0
    for _ in range(2000):
        n = rng.randint(1, 4)
        A = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.3:  # a zero row or a scaled copy of another row
            i, j = rng.randrange(n), rng.randrange(n)
            A[i] = [2 * v for v in A[j]] if i != j else [Fraction(0)] * n
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        # one common factor keeps the solution of the augmented system
        aug = scaled([row + [v] for row, v in zip(A, b)])
        got = int_solve([row[:-1] for row in aug], [row[-1] for row in aug])
        want = reference_solve_square(A, b)
        if got is None:
            assert want is None
            singular += 1
            continue
        X, D = got
        assert type(D) is int and D > 0 and all(type(v) is int for v in X)
        assert tuple(Fraction(v, D) for v in X) == want
    assert 400 < singular < 1000


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
)
def test_subspace_dimension_formula(a_rows, b_rows):
    A = primitive(a_rows)
    B = primitive(b_rows)
    s = int_sum(A, B)
    i = int_meet(A, B, 3)
    assert len(s) + len(i) == len(A) + len(B)


def reference_rref(rows):
    """Gauss-Jordan elimination in Fraction arithmetic: the test oracle."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None
        )
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        lead = mat[pivot_row][col]
        mat[pivot_row] = [v / lead for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row] if any(row))


def reference_nullspace(M, ncols):
    R = reference_rref(M)
    pivots = [next(i for i, v in enumerate(row) if v != 0) for row in R]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, pcol in zip(R, pivots):
            vec[pcol] = -row[f]
        basis.append(vec)
    return reference_rref(basis)


def reference_image_basis(M, vectors):
    M = [list(map(Fraction, row)) for row in M]
    vecs = [list(map(Fraction, row)) for row in vectors]
    if not M or not vecs:
        return ()
    return reference_rref(
        [sum(m * v for m, v in zip(mrow, vec)) for mrow in M] for vec in vecs
    )


def reference_intersection(A, B, ncols):
    if not A or not B:
        return ()
    zero = (Fraction(0),) * ncols
    block = [tuple(row) + tuple(row) for row in A] + [tuple(row) + zero for row in B]
    R = reference_rref(block)
    return reference_rref([row[ncols:] for row in R if not any(row[:ncols])])


def random_rows(rng, count, ncols, rational):
    """Small entries, with zero and duplicate rows mixed in."""
    rows = []
    for _ in range(count):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(list(rng.choice(rows)))
        elif pick < 0.25:
            rows.append([0] * ncols)
        elif rational:
            rows.append([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6, 9)))
                         for _ in range(ncols)])
        else:
            rows.append([rng.randint(-3, 3) for _ in range(ncols)])
    return rows


def assert_same_matrix(got, want):
    assert got == want
    assert type(got) is tuple and all(type(row) is tuple for row in got)
    assert all(type(v) is Fraction for row in got for v in row)


def test_linear_algebra_matches_fraction_reference():
    rng = random.Random(7)
    assert rref([]) == reference_rref([]) == ()
    assert_same_matrix(rref([[0, 0], [0, 0]]), ())
    for trial in range(600):
        rational = trial % 2 == 1
        ncols = rng.randint(1, 5)
        rows = random_rows(rng, rng.randint(0, 6), ncols, rational)
        assert_same_matrix(rref(rows), reference_rref(rows))
        assert_same_matrix(fractions(int_kernel(scaled(rows), ncols)),
                           reference_nullspace(rows, ncols))
        # rank-nullity, as lie reads image dimensions: dim M(W) = dim(W + ker M) - dim ker M
        M = random_rows(rng, rng.randint(0, 4), ncols, rational)
        K = int_kernel(scaled(M), ncols)
        assert (len(reference_image_basis(M, rows))
                == len(int_sum(primitive(rows), K)) - len(K))
        A = rref(rows)
        B = rref(random_rows(rng, rng.randint(0, 6), ncols, not rational))
        assert_same_matrix(fractions(int_sum(primitive(A), primitive(B))),
                           reference_rref(list(A) + list(B)))
        assert_same_matrix(fractions(int_meet(primitive(A), primitive(B), ncols)),
                           reference_intersection(A, B, ncols))


def test_wide_zassenhaus_blocks():
    # six columns, so each block is twelve wide; A and B share two rows
    rng = random.Random(11)
    for _ in range(40):
        shared = random_rows(rng, 2, 6, True)
        A = rref(shared + random_rows(rng, 2, 6, True))
        B = rref(shared + random_rows(rng, 3, 6, False))
        assert_same_matrix(fractions(int_meet(primitive(A), primitive(B), 6)),
                           reference_intersection(A, B, 6))


# -- dimension counting -----------------------------------------------------------


def test_ideal_dims_zero_ideal():
    d = t3_loomis_whitney()
    dim_n, images = lie._Sums(d).ideal_dims(zero_ideal())
    assert dim_n == 0 and images == [0, 0, 0]


def test_ideal_dims_simple_factor_killed():
    d = CompactLieDatum((3, 3), 0, (LinearizedMap((0,), ()),))
    first = IdealSpec((0,), ())
    dim_n, images = lie._Sums(d).ideal_dims(first)
    assert dim_n == 3 and images == [3]
    second = IdealSpec((1,), ())
    assert lie._Sums(d).ideal_dims(second) == (3, [0])


def test_ideal_dims_torus_line():
    d = t3_loomis_whitney()
    line = IdealSpec((), [[1, 1, 1]])
    dim_n, images = lie._Sums(d).ideal_dims(line)
    assert dim_n == 1 and images == [1, 1, 1]


# -- codimension conditions --------------------------------------------------------


def test_codim_lw_at_half_exponents_tight():
    d = t3_loomis_whitney()
    p = [E(2), E(2), E(2)]
    pool = closed_pool(d)[0]
    assert codimension_check(d, p, pool).ok
    # equality at the zero ideal, the coordinate lines, and the planes
    for n in pool:
        if n == full_ideal(d):
            continue
        defect = codimension_defect(d, p, n)
        assert defect == 0


def test_codim_lw_violated():
    d = t3_loomis_whitney()
    rep = codimension_check(d, [E("3/2"), E(2), E(2)], closed_pool(d)[0])
    assert not rep.ok
    assert rep.violator == zero_ideal()
    assert rep.slack == Fraction(1, 3)


def test_exponent_count_must_match_the_maps():
    d = t3_loomis_whitney()
    pool = closed_pool(d)[0]
    for p in ([E("3/2")], [E(2)] * 4):
        with pytest.raises(ValueError, match="exponent count"):
            codimension_check(d, p, pool)
        with pytest.raises(ValueError, match="exponent count"):
            codimension_defect(d, p, zero_ideal())
        with pytest.raises(ValueError, match="exponent count"):
            finiteness(d, p)


def test_negative_closure_rounds_are_rejected():
    # a negative count would run no round and report an unclosed pool
    d = t3_loomis_whitney()
    with pytest.raises(ValueError, match="max_closure"):
        closed_pool(d, max_closure=-1)
    with pytest.raises(ValueError, match="max_closure"):
        finiteness(d, [E(2)] * 3, max_closure=-1)


def test_kept_simple_index_must_be_in_range():
    # a negative index must not be read as a summand counted from the end
    for kept in ((-1,), (2,)):
        with pytest.raises(ValueError, match="kept_simple"):
            CompactLieDatum((3, 8), 0, (LinearizedMap(kept, ()),))


def test_codim_simple_isomorphism():
    d = CompactLieDatum((3,), 0, (LinearizedMap((0,), ()),))
    rep = codimension_check(d, [E(1)], [zero_ideal()])
    assert rep.ok


# -- pools ---------------------------------------------------------------------------


def test_pool_lw_eight_subspaces():
    d = t3_loomis_whitney()
    pool, stabilized = closed_pool(d)
    assert stabilized and len(pool) == 8
    dims = sorted(len(n.torus_basis) for n in pool)
    assert dims == [0, 1, 1, 1, 2, 2, 2, 3]


def ideal_key(n):
    return (len(n.simple_part) + len(n.torus_basis), n.simple_part, n.torus_basis)


def all_pairs_closed_pool(d, max_closure):
    """All-pairs closure of {0} and the kernels, then a closedness probe."""

    def combine(pool):
        out = set()
        for a in pool:
            for b in pool:
                out.add(IdealSpec(a.simple_part + b.simple_part,
                                  int_sum(a.torus_rows, b.torus_rows)))
                out.add(IdealSpec(set(a.simple_part) & set(b.simple_part),
                                  int_meet(a.torus_rows, b.torus_rows, d.torus_dim)))
        return out

    pool = {zero_ideal()} | {lie._ideal(*K) for K in lie._Sums(d).kernels}
    for _ in range(max_closure):
        new = combine(pool) - pool
        if not new:
            break
        pool |= new
    return sorted(pool, key=ideal_key), combine(pool) <= pool


def random_lie_data(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        t = 1 + i % 4
        simple = tuple(rng.choice((3, 8)) for _ in range(rng.randint(1, 2))) if i % 3 == 2 else ()
        maps = []
        for _ in range(rng.randint(1, 3)):
            kept = tuple(k for k in range(len(simple)) if rng.random() < 0.5)
            rows = [[rng.randint(-2, 2) for _ in range(t)] for _ in range(rng.randint(1, 3))]
            maps.append(LinearizedMap(kept, rows))
        yield CompactLieDatum(simple, t, tuple(maps))


def test_closed_pool_matches_all_pairs_reference():
    data = list(random_lie_data(41, 36)) + [t3_loomis_whitney(), four_generic_planes()]
    for d in data:
        for max_closure in range(5):
            assert closed_pool(d, max_closure) == all_pairs_closed_pool(d, max_closure)


def pair(n):
    """An ideal as closed_pool combines it: (summand bitmask, integer torus rows)."""
    return sum(1 << i for i in n.simple_part), n.torus_rows


def test_closed_pool_members_are_canonical_and_shortcuts_match_zassenhaus():
    for d in random_lie_data(41, 36):
        pool, _ = closed_pool(d)
        for n in pool:
            again = IdealSpec(n.simple_part, n.torus_basis)
            assert again == n and hash(again) == hash(n)
        sums = lie._Sums(d)  # one table, so (b, a) reads the sum made for (a, b)
        for a in pool:
            for b in pool:
                s, meet = (lie._ideal(*c) for c in sums.sum_and_intersection(pair(a), pair(b)))
                assert s.torus_rows == int_sum(a.torus_rows, b.torus_rows)
                assert meet.torus_rows == int_meet(a.torus_rows, b.torus_rows, d.torus_dim)
                assert s.simple_part == tuple(sorted({*a.simple_part, *b.simple_part}))
                assert meet.simple_part == tuple(sorted({*a.simple_part} & {*b.simple_part}))


def test_pool_single_injective_map():
    d = CompactLieDatum((), 2, (LinearizedMap((), [[1, 0], [0, 1]]),))
    assert closed_pool(d) == ([zero_ideal()], True)


def test_pool_two_simple_factors():
    d = CompactLieDatum(
        (3, 3), 0, (LinearizedMap((0,), ()), LinearizedMap((1,), ()))
    )
    pool = closed_pool(d)[0]
    assert [n.simple_part for n in pool] == [(), (0,), (1,), (0, 1)]


def test_map_kernel_torus():
    d = t3_loomis_whitney()
    k0 = lie._ideal(*lie._Sums(d).kernels[0])
    assert k0.torus_basis == ((Fraction(1), Fraction(0), Fraction(0)),)


# -- polytope ------------------------------------------------------------------------


def test_polytope_lw_halfspaces():
    d = t3_loomis_whitney()
    P = bl_polytope(d, closed_pool(d)[0])
    assert set(P.halfspaces) == {
        ((2, 2, 2), 3),
        ((2, 1, 1), 2),
        ((1, 2, 1), 2),
        ((1, 1, 2), 2),
        ((1, 1, 0), 1),
        ((1, 0, 1), 1),
        ((0, 1, 1), 1),
    }


def test_polytope_lw_vertices():
    d = t3_loomis_whitney()
    V = vertices(bl_polytope(d, closed_pool(d)[0]))
    F = Fraction
    assert set(V) == {
        (F(0), F(0), F(0)),
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
        (F(1, 2), F(1, 2), F(1, 2)),
    }


def test_polytope_single_isomorphism_is_interval():
    d = CompactLieDatum((3,), 0, (LinearizedMap((0,), ()),))
    P = bl_polytope(d, [zero_ideal()])
    assert P.halfspaces == (((3,), 3),)
    assert vertices(P) == [(Fraction(0),), (Fraction(1),)]


def test_polytope_t2_unit_square():
    d = t2_two_projections()
    pool = closed_pool(d)[0]
    P = bl_polytope(d, pool)
    V = vertices(P)
    F = Fraction
    assert set(V) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))}


def test_membership_inside_and_outside():
    d = t3_loomis_whitney()
    P = bl_polytope(d, closed_pool(d)[0])
    assert membership(P, [2, 2, 2])
    assert membership(P, ["inf", "inf", "inf"])
    assert not membership_point(P, [Fraction(2, 3), Fraction(1, 2), Fraction(1, 2)])


def test_every_vertex_is_member_and_facets_are_tight_or_flagged():
    for d in (t3_loomis_whitney(), t2_two_projections()):
        P = bl_polytope(d, closed_pool(d)[0])
        verts = vertices(P)
        for v in verts:
            assert membership_point(P, v)
        status = facet_status(P, verts)
        for (coeffs, bound), tight in zip(P.halfspaces, status):
            if not tight:
                continue
            # stepping out of a tight facet leaves the polytope
            on_facet = [v for v in verts
                        if sum(c * x for c, x in zip(coeffs, v)) == bound]
            centroid = [
                sum(v[j] for v in on_facet) / Fraction(len(on_facet))
                for j in range(P.dim)
            ]
            eps = Fraction(1, 1000)
            outside = [x + eps * c for x, c in zip(centroid, coeffs)]
            assert not membership_point(P, outside)


# -- split and finiteness ----------------------------------------------------------------


def test_split_pure_semisimple():
    d = CompactLieDatum((3, 8), 0, (LinearizedMap((0, 1), ()),))
    s, z = split_commutator_center(d)
    assert s.simple_dims == (3, 8) and z.torus_dim == 0


def test_split_pure_torus():
    d = t3_loomis_whitney()
    s, z = split_commutator_center(d)
    assert s.simple_dims == () and z.torus_dim == 3
    assert z.maps == d.maps


def test_split_mixed_verdict_is_conjunction():
    # su(2) + T^1 with one map keeping everything, one killing the torus
    d = CompactLieDatum(
        (3,),
        1,
        (
            LinearizedMap((0,), [[1]]),
            LinearizedMap((0,), ()),
        ),
    )
    s, z = split_commutator_center(d)
    fin = finiteness(d, [E(1), E(1)])
    # torus side: only the first map sees the torus; at p=(1,1) the zero
    # subspace needs 1*1 + 1*0 <= 1: fine; semisimple side: s_0 must satisfy
    # 3+3 <= 3 at the zero ideal: violated
    assert fin.verdict is Verdict.INFINITE


def test_finiteness_two_simple_factors():
    d = CompactLieDatum(
        (3, 3), 0, (LinearizedMap((0,), ()), LinearizedMap((1,), ()))
    )
    p = [E(1), E(1)]
    fin = finiteness(d, p)
    assert fin.verdict is Verdict.FINITE
    # equality at each single factor
    assert codimension_defect(d, p, IdealSpec((0,), ())) == 0
    assert codimension_defect(d, p, IdealSpec((1,), ())) == 0


def test_finiteness_lw():
    d = t3_loomis_whitney()
    assert finiteness(d, [E(2)] * 3).verdict is Verdict.FINITE
    rep = finiteness(d, [E("3/2"), E(2), E(2)])
    assert rep.verdict is Verdict.INFINITE
    assert rep.violator == zero_ideal()
    assert rep.slack == Fraction(1, 3)


def test_finiteness_semisimple_violation():
    d = CompactLieDatum(
        (3, 3), 0, (LinearizedMap((0,), ()), LinearizedMap((0,), ()))
    )
    rep = finiteness(d, [E(1), E(1)])
    assert rep.verdict is Verdict.INFINITE
    assert rep.violator.simple_part == (1,)


def test_finiteness_t4_identity_is_finite():
    # codim W >= codim W with equality everywhere; the pool {0} is closed and
    # holds the kernel, so the lattice theorem proves FINITE on T^4
    d = CompactLieDatum((), 4, (LinearizedMap((), [[1, 0, 0, 0], [0, 1, 0, 0],
                                                   [0, 0, 1, 0], [0, 0, 0, 1]]),))
    rep = finiteness(d, [E(1)])
    assert rep.verdict is Verdict.FINITE


def four_generic_planes():
    # kernels: the coordinate planes of T^3 and x + y + z = 0
    rows = ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])
    return CompactLieDatum((), 3, tuple(LinearizedMap((), [r]) for r in rows))


def test_finiteness_reports_first_failing_torus_part():
    # su(3) + su(2) + T^3: in the unclosed pool a torus plane fails before a
    # torus line does, but parts are reported in (dim T, T) order
    d = CompactLieDatum((8, 3), 3, (LinearizedMap((0, 1), [[0, 1, -1]]),
                                    LinearizedMap((), [[1, 0, 0], [1, 0, 1], [1, 1, -1]]),
                                    LinearizedMap((0,), [[0, 1, -1], [1, 0, 1]])))
    p = [E("5/2"), E(2), E(3)]
    rep = finiteness(d, p, max_closure=0)
    assert rep.certification == "violating torus subspace found in the pool"
    assert rep.violator == IdealSpec((0, 1), [[1, -1, -1]])
    assert rep.slack == Fraction(1, 15) == codimension_defect(d, p, rep.violator)
    assert repr(rep) == repr(reference_finiteness(d, p, 0))
    closed = finiteness(d, p, max_closure=1)
    assert closed.certification == "violating ideal found in the pool"
    assert closed.violator == rep.violator


def test_finiteness_unclosed_pool_stays_undecided():
    d = four_generic_planes()
    p = [E(4)] * 4
    pool, stabilized = closed_pool(d)
    assert not stabilized and codimension_check(d, p, pool).ok
    rep = finiteness(d, p)
    assert rep.verdict is Verdict.UNDECIDED
    assert "did not stabilize" in rep.certification
    # Loomis-Whitney closes, but not within zero rounds
    lw = t3_loomis_whitney()
    assert finiteness(lw, [E(2)] * 3, max_closure=0).verdict is Verdict.UNDECIDED


def finiteness_count_cases():
    """(datum, exponents, verdict or None) for the elimination-count tests."""
    lw = t3_loomis_whitney()
    mixed = CompactLieDatum((3,), 2, (LinearizedMap((0,), [[1, 0]]),
                                      LinearizedMap((), [[0, 1]])))
    cases = [(lw, [E(2)] * 3, Verdict.FINITE), (lw, [E("3/2"), E(2), E(2)], Verdict.INFINITE),
             (mixed, [E(2), E(2)], Verdict.FINITE), (mixed, [E(1), E(1)], None)]
    cases += [(d, p, None) for d, p in random_mixed_lie_data(47, 30)]
    cases += [(d, [E(2)] * d.J, None) for d in random_lie_data(41, 12)]
    return cases


def counted_finiteness(tables):
    """Yield (datum, report) for each count case and closure depth, each
    table cleared before its call."""
    for d, p, verdict in finiteness_count_cases():
        for max_closure in (0, 3):
            for table in tables:
                table.clear()
            rep = finiteness(d, p, max_closure)
            assert verdict is None or max_closure == 0 or rep.verdict is verdict
            yield d, rep


def test_finiteness_checks_each_ideal_once(monkeypatch):
    # the part checks reuse the pool's defects: the halfspace of each proper
    # pool ideal is taken once, with no split datum
    halfspaces = Counter()
    real_halfspace = lie._Sums.halfspace

    def halfspace(self, n):
        halfspaces[self.d, n] += 1
        return real_halfspace(self, n)

    monkeypatch.setattr(lie._Sums, "halfspace", halfspace)
    checked = 0
    for d, rep in counted_finiteness([halfspaces]):
        assert {dd for dd, _ in halfspaces} <= {d}
        assert max(halfspaces.values(), default=1) == 1
        if rep.verdict is Verdict.FINITE:
            assert {n for _, n in halfspaces} == {
                n for n in rep.pool if n != full_ideal(d)}
        checked += len(halfspaces)
    assert checked > 0


def test_finiteness_eliminates_each_pair_once(monkeypatch):
    # one finiteness call finds each map kernel once and each sum of two
    # distinct nonzero torus parts at most once: its defect loop reads the
    # sums T + K_j that its closure made, and a pair met under several
    # summand masks is summed once
    sums, kernels = Counter(), Counter()
    real_sum, real_kernel = lie.int_sum, lie.int_kernel

    def int_sum(A, B):
        assert A and B and A != B
        sums[frozenset((A, B))] += 1
        return real_sum(A, B)

    def int_kernel(M, ncols):
        kernels[M] += 1
        return real_kernel(M, ncols)

    monkeypatch.setattr(lie, "int_sum", int_sum)
    monkeypatch.setattr(lie, "int_kernel", int_kernel)
    summed = 0
    for d, _ in counted_finiteness([sums, kernels]):
        assert max(sums.values(), default=1) == 1
        assert sum(kernels.values()) == d.J
        summed += len(sums)
    assert summed > 0


def test_finiteness_builds_full_ideal_and_image_dims_once_per_datum(monkeypatch):
    # one finiteness call builds the full ideal of its datum at most once,
    # and the image dimensions of its datum once, with its one table
    fulls, tables = Counter(), Counter()
    real_full, real_init = lie.full_ideal, lie._Sums.__init__

    def full_ideal(d):
        fulls[d] += 1
        return real_full(d)

    def init(self, d):
        tables[d] += 1
        real_init(self, d)

    monkeypatch.setattr(lie, "full_ideal", full_ideal)
    monkeypatch.setattr(lie._Sums, "__init__", init)
    for d, _ in counted_finiteness([fulls, tables]):
        assert set(fulls) <= {d} and max(fulls.values(), default=1) == 1
        assert tables == {d: 1}

    def refuse(rows):
        raise AssertionError("the identity basis is in RREF already")

    mixed = CompactLieDatum((3,), 2, (LinearizedMap((0,), [[1, 0]]),
                                      LinearizedMap((), [[0, 1]])))
    expected = IdealSpec((0,), [[1, 0], [0, 1]])
    monkeypatch.setattr(lie, "primitive", refuse)
    assert real_full(mixed) == expected


def test_finiteness_reports_failing_summand_subset():
    # su(2)^4; map j keeps every summand but j + 1, so summand 0 is kept by
    # all three maps: R_0 = 6/5 and c_0 = 3/5 > 0, while c_1 = c_2 = c_3 =
    # -3/5 hide it from the zero ideal and the kernels
    for torus_dim in (0, 1):
        maps = tuple(LinearizedMap(tuple(i for i in range(4) if i != j),
                                   [[1]] if torus_dim else ())
                     for j in (1, 2, 3))
        d = CompactLieDatum((3, 3, 3, 3), torus_dim, maps)
        p = [E("5/2")] * 3
        rep = finiteness(d, p, max_closure=0)
        assert rep.verdict is Verdict.INFINITE
        assert rep.violator == IdealSpec((1, 2, 3), [[1]] if torus_dim else ())
        assert rep.slack == Fraction(3, 5)
        assert rep.certification == "violating ideal found among simple summand subsets"
        assert codimension_defect(d, p, rep.violator) == rep.slack
        # the closed pool holds U = the sum of the kernels, which omits summand 0
        closed = finiteness(d, p, max_closure=3)
        assert closed.verdict is Verdict.INFINITE
        assert closed.certification == "violating ideal found in the pool"
        assert 0 not in closed.violator.simple_part


def test_finiteness_runs_no_dense_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense scan on the verdict path")

    for name in ("brute_force_torus_violator", "enumerate_box_subspaces", "vertices"):
        monkeypatch.setattr(lie, name, refuse)
    assert finiteness(t3_loomis_whitney(), [E(2)] * 3).verdict is Verdict.FINITE


def test_brute_force_scan_matches_pool_verdicts():
    d = t3_loomis_whitney()
    assert brute_force_torus_violator(d, [E(2)] * 3, box=3) is None
    n = brute_force_torus_violator(d, [E("3/2"), E(2), E(2)], box=3)
    assert n is not None and codimension_defect(d, [E("3/2"), E(2), E(2)], n) > 0


def test_brute_force_scan_finds_kernel_line_violator():
    # two copies of the same projection of T^3: their common kernel violates
    m = [[1, 0, 0], [0, 1, 0]]
    d = CompactLieDatum((), 3, (LinearizedMap((), m), LinearizedMap((), m)))
    p = [E("3/2"), E(2)]
    n = brute_force_torus_violator(d, p, box=3)
    assert n is not None
    assert codimension_defect(d, p, n) > 0
    assert finiteness(d, p).verdict is Verdict.INFINITE


@pytest.mark.parametrize("case", ["lw", "kernel line"])
def test_brute_force_scan_stops_at_its_first_violator(monkeypatch, case):
    # the scan draws box subspaces one at a time and takes one halfspace per
    # subspace, up to the violator it returns
    m = [[1, 0, 0], [0, 1, 0]]
    d, p = {"lw": (t3_loomis_whitney(), [E("3/2"), E(2), E(2)]),
            "kernel line": (CompactLieDatum((), 3, (LinearizedMap((), m),) * 2),
                            [E("3/2"), E(2)])}[case]
    order = list(enumerate_box_subspaces(3, 3, 2))
    drawn, halfspaces = [], Counter()
    real_enumerate, real_halfspace = lie.enumerate_box_subspaces, lie._Sums.halfspace

    def enumerate_counted(*args):
        for basis in real_enumerate(*args):
            drawn.append(basis)
            yield basis

    def halfspace(self, n):
        halfspaces[n] += 1
        return real_halfspace(self, n)

    monkeypatch.setattr(lie, "enumerate_box_subspaces", enumerate_counted)
    monkeypatch.setattr(lie._Sums, "halfspace", halfspace)
    n = brute_force_torus_violator(d, p, box=3)
    position = order.index(n.torus_basis)
    assert drawn == order[:position + 1]
    assert sum(halfspaces.values()) == len(halfspaces) == position + 1
    assert case == "lw" or position > 0


def test_closed_pool_is_decided_by_the_scan_alone():
    # on a closed pool the part checks never fire (lie module docstring), so
    # only an unclosed pool reaches them
    by_pool = Counter()
    for d, p in tentpole_cases():
        for max_closure in range(5):
            closed = closed_pool(d, max_closure)[1]
            kind = finiteness(d, p, max_closure).certification
            by_pool[closed, kind.split(":")[0].split(" within")[0]] += 1
    assert {kind for closed, kind in by_pool if closed} <= {
        "violating ideal found in the pool", "semisimple datum",
        "the closed kernel-lattice pool passes, so every torus subspace passes"}
    for part_check in ("violating ideal found among simple summand subsets",
                       "violating torus subspace found in the pool"):
        assert by_pool[False, part_check] > 0


def reference_semisimple_ideals(d):
    """Every ideal of a datum with no torus: all subsets of simple summands."""
    s = len(d.simple_dims)
    subsets = (tuple(i for i in range(s) if mask >> i & 1) for mask in range(2**s))
    return sorted((IdealSpec(S, ()) for S in subsets), key=ideal_key)


def reference_finiteness(d, p, max_closure):
    """The pool, then all 2^s subsets of simple summands, then the torus
    projection of the pool, each checked by codimension_check on a split
    datum; a part ideal whose lift is a pool member is skipped.  The report
    strings are the library's current ones."""
    pool, complete = closed_pool(d, max_closure)
    pool_tuple = tuple(pool)
    report = codimension_check(d, p, pool)
    if not report.ok:
        return FinitenessReport(Verdict.INFINITE, report.violator, report.slack,
                                pool_tuple, "violating ideal found in the pool")
    full = full_ideal(d)
    semisimple, torus = split_commutator_center(d)
    lifted_s = {n.simple_part for n in pool if n.torus_basis == full.torus_basis}
    s_ideals = [n for n in reference_semisimple_ideals(semisimple)
                if n.simple_part not in lifted_s]
    s_report = codimension_check(semisimple, p, s_ideals)
    if not s_report.ok:
        violator = IdealSpec(s_report.violator.simple_part, full.torus_basis)
        return FinitenessReport(Verdict.INFINITE, violator, s_report.slack, pool_tuple,
                                "violating ideal found among simple summand subsets")
    if d.torus_dim == 0:
        return FinitenessReport(Verdict.FINITE, None, None, pool_tuple,
                                "semisimple datum: every ideal passes, summand by "
                                "summand")
    lifted_t = {n.torus_basis for n in pool if n.simple_part == full.simple_part}
    torus_pool = {IdealSpec((), n.torus_basis) for n in pool
                  if n.torus_basis not in lifted_t}
    t_report = codimension_check(torus, p, sorted(torus_pool, key=ideal_key))
    if not t_report.ok:
        violator = IdealSpec(full.simple_part, t_report.violator.torus_basis)
        return FinitenessReport(Verdict.INFINITE, violator, t_report.slack, pool_tuple,
                                "violating torus subspace found in the pool")
    if complete:
        return FinitenessReport(Verdict.FINITE, None, None, pool_tuple,
                                "the closed kernel-lattice pool passes, so every torus "
                                "subspace passes")
    return FinitenessReport(Verdict.UNDECIDED, None, None, pool_tuple,
                            f"pool passes but the pool closure did not stabilize "
                            f"within {max_closure} rounds")


def test_semisimple_ideals_enumeration():
    d = CompactLieDatum((3, 3, 8), 0, (LinearizedMap((0, 1, 2), ()),))
    ideals = reference_semisimple_ideals(d)
    assert len(ideals) == 8
    assert [n.simple_part for n in ideals[:4]] == [(), (0,), (1,), (2,)]


def random_mixed_lie_data(seed, count):
    """Data with 1 to 9 simple summands and a torus of dimension 0 to 2, with
    exponents.  Beside random data, every third datum has each summand killed
    by at most one map, so subset violators occur, and every third has each
    summand kept by at most one map, so summands hide torus violators from
    an unclosed pool."""
    rng = random.Random(seed)
    for i in range(count):
        s, t = rng.randint(1, 9), rng.randint(0, 2)
        simple = tuple(rng.choice((3, 8, 10)) for _ in range(s))
        J = rng.randint(1 + 2 * (i % 3 == 1), 4)
        owner = [rng.randrange(J + 1) for _ in range(s)]
        maps = []
        for j in range(J):
            if i % 3 == 0:
                q = rng.random()
                kept = tuple(k for k in range(s) if rng.random() < q)
            else:
                kept = tuple(k for k in range(s) if (owner[k] == j) == (i % 3 == 2))
            rows = [[rng.randint(-2, 2) for _ in range(t)]
                    for _ in range(rng.randint(1 if i % 3 == 2 else 0, 2) if t else 0)]
            maps.append(LinearizedMap(kept, rows))
        choices = (("1", "3/2", "2", "5/2", "3", "4", "inf"), ("5/2", "3"),
                   ("3/2", "2", "5/2"))[i % 3]
        yield CompactLieDatum(simple, t, tuple(maps)), [E(rng.choice(choices)) for _ in maps]


def test_finiteness_matches_subset_enumeration_reference():
    rng = random.Random(43)
    choices = ("1", "3/2", "2", "5/2", "3", "4", "inf")
    cases = [(d, [E(rng.choice(choices)) for _ in d.maps]) for d in random_lie_data(41, 36)]
    cases += list(random_mixed_lie_data(47, 90))
    seen = Counter()
    for d, p in cases:
        for max_closure in range(5):
            got = finiteness(d, p, max_closure=max_closure)
            assert repr(got) == repr(reference_finiteness(d, p, max_closure))
            seen[got.certification.split(" within")[0]] += 1
    # every branch of the verdict is reached, the two part checks included
    assert len(seen) == 6, seen


def reference_closed_pool(d, max_closure):
    """The Fraction closure that the integer form replaced: semi-naive rounds
    with the dimension shortcuts on (summands, RREF basis) pairs, every
    elimination by reference_rref."""

    def combine(a, b):
        (sa, A), (sb, B) = a, b
        s = reference_rref(list(A) + list(B))
        if len(s) == len(A):
            meet = B
        elif len(s) == len(B):
            meet = A
        elif len(s) == len(A) + len(B):
            meet = ()
        else:
            meet = reference_intersection(A, B, d.torus_dim)
        return ((tuple(sorted(set(sa) | set(sb))), s),
                (tuple(sorted(set(sa) & set(sb))), meet))

    pool = {((), ())}
    for m in d.maps:
        killed = tuple(i for i in range(len(d.simple_dims)) if i not in m.kept_simple)
        pool.add((killed, reference_nullspace(m.torus_matrix, d.torus_dim)))
    old, fresh = [], list(pool)
    for done in range(max_closure + 1):
        new = {c for i, a in enumerate(fresh) for b in old + fresh[i + 1:]
               for c in combine(a, b)} - pool
        if not new or done == max_closure:
            break
        pool |= new
        old += fresh
        fresh = list(new)
    return sorted((IdealSpec(S, T) for S, T in pool), key=ideal_key), not new


def reference_ideal_dims(d, n):
    """The Fraction _Sums.ideal_dims: image ranks from reference_image_basis."""
    dim_n = sum(d.simple_dims[i] for i in n.simple_part) + len(n.torus_basis)
    return dim_n, [sum(d.simple_dims[i] for i in n.simple_part if i in m.kept_simple)
                   + len(reference_image_basis(m.torus_matrix, n.torus_basis))
                   for m in d.maps]


def test_integer_closure_matches_fraction_reference():
    # IdealSpec equality reads the integer form only, so the Fraction bases
    # are compared through repr as well; the reference verdict runs no
    # library elimination
    rng = random.Random(43)
    choices = ("1", "3/2", "2", "5/2", "3", "4", "inf")
    cases = [(d, [E(rng.choice(choices)) for _ in d.maps]) for d in random_lie_data(41, 36)]
    cases += list(random_mixed_lie_data(47, 90))
    cases += [(t3_loomis_whitney(), [E("3/2"), E(2), E(2)]),
              (four_generic_planes(), [E(4)] * 4)]
    got = {}
    for k, (d, p) in enumerate(cases):
        for max_closure in range(5):
            pool = closed_pool(d, max_closure)
            want = reference_closed_pool(d, max_closure)
            assert pool == want and repr(pool) == repr(want)
            assert all(type(v) is Fraction
                       for n in pool[0] for row in n.torus_basis for v in row)
    verdicts = Counter()
    for d, p in cases:
        for max_closure in range(5):
            rep = finiteness(d, p, max_closure)
            want = fraction_finiteness(d, p, max_closure, reference_closed_pool)
            assert rep == want and repr(rep) == repr(want)
            verdicts[want.verdict] += 1
    assert set(verdicts) == set(Verdict), verdicts


# -- Fraction references for the integer defects and vertices ------------------------


def fraction_defect(d, recips, n):
    """The codimension defect at n in Fraction arithmetic, recips the 1/p_j,
    every dimension from reference_ideal_dims."""
    dim_n, images = reference_ideal_dims(d, n)
    dim_g, g_images = reference_ideal_dims(d, full_ideal(d))
    return sum((r * (g - i) for r, g, i in zip(recips, g_images, images)),
               Fraction(0)) - (dim_g - dim_n)


def fraction_finiteness(d, p, max_closure, pool_of=closed_pool):
    """finiteness with its defect loop in Fraction arithmetic, as it was before
    the defects became ints over one denominator, on the pool that pool_of
    builds; dimensions come from reference_ideal_dims, and a failing summand
    subset is the first in (|S|, S) order."""
    recips = [E(pj).reciprocal() for pj in p]
    pool, complete = pool_of(d, max_closure)
    pool_tuple = tuple(pool)
    R = [sum((r for r, m in zip(recips, d.maps) if i in m.kept_simple), Fraction(0))
         for i in range(len(d.simple_dims))]
    c = [dim * (Ri - 1) for dim, Ri in zip(d.simple_dims, R)]
    total = sum(c)
    full = full_ideal(d)
    failing_tori = []
    for n in pool:
        if n == full:
            continue
        defect = fraction_defect(d, recips, n)
        if defect > 0:
            return FinitenessReport(Verdict.INFINITE, n, defect, pool_tuple,
                                    "violating ideal found in the pool")
        t = defect - total + sum(c[i] for i in n.simple_part)
        if t > 0:
            failing_tori.append((len(n.torus_basis), n.torus_basis, t))
    if any(ci > 0 for ci in c):
        S = next(n.simple_part for n in reference_semisimple_ideals(d)
                 if total - sum(c[i] for i in n.simple_part) > 0)
        return FinitenessReport(Verdict.INFINITE, IdealSpec(S, full.torus_basis),
                                total - sum(c[i] for i in S), pool_tuple,
                                "violating ideal found among simple summand subsets")
    if d.torus_dim == 0:
        return FinitenessReport(Verdict.FINITE, None, None, pool_tuple,
                                "semisimple datum: every ideal passes, summand by "
                                "summand")
    if failing_tori:
        _, T, slack = min(failing_tori)
        return FinitenessReport(Verdict.INFINITE, IdealSpec(full.simple_part, T), slack,
                                pool_tuple, "violating torus subspace found in the pool")
    if complete:
        return FinitenessReport(Verdict.FINITE, None, None, pool_tuple,
                                "the closed kernel-lattice pool passes, so every torus "
                                "subspace passes")
    return FinitenessReport(Verdict.UNDECIDED, None, None, pool_tuple,
                            f"pool passes but the pool closure did not stabilize "
                            f"within {max_closure} rounds")


def fraction_inside(cons, x):
    return all(sum(c * v for c, v in zip(coeffs, x)) <= b for coeffs, b in cons)


def fraction_vertices(P):
    """Vertex enumeration with Fraction feasibility tests, as before vertices
    tested on ints: each solution as Fractions (int_solve is checked against
    reference_solve_square above), then fraction_inside."""
    cons = lie._all_constraints(P)
    out = set()
    for subset in itertools.combinations(cons, P.dim):
        sol = int_solve([c for c, _ in subset], [b for _, b in subset])
        if sol is not None:
            x = tuple(Fraction(v, sol[1]) for v in sol[0])
            if fraction_inside(cons, x):
                out.add(x)
    return sorted(out)


def fraction_facet_status(P, verts):
    return [any(sum(c * v for c, v in zip(coeffs, x)) == b for x in verts)
            for coeffs, b in P.halfspaces]


def tentpole_cases():
    """The seeded torus and mixed data of this module, LW and the four planes."""
    rng = random.Random(43)
    choices = ("1", "3/2", "2", "5/2", "3", "4", "inf")
    cases = [(d, [E(rng.choice(choices)) for _ in d.maps]) for d in random_lie_data(41, 36)]
    cases += list(random_mixed_lie_data(47, 90))
    lw = t3_loomis_whitney()
    return cases + [(lw, [E(2)] * 3), (lw, [E("3/2"), E(2), E(2)]),
                    (four_generic_planes(), [E(4)] * 4)]


def test_integer_defects_match_fraction_reference():
    verdicts, scaled_slacks = Counter(), 0
    for d, p in tentpole_cases():
        recips = [E(pj).reciprocal() for pj in p]
        for max_closure in range(5):
            rep = finiteness(d, p, max_closure)
            want = fraction_finiteness(d, p, max_closure)
            assert rep == want and repr(rep) == repr(want)
            assert rep.slack is None or type(rep.slack) is Fraction
            verdicts[rep.certification.split(" within")[0]] += 1
            scaled_slacks += rep.slack is not None and rep.slack.denominator > 1
            pool = closed_pool(d, max_closure)[0]
            defects = [codimension_defect(d, p, n) for n in pool]
            assert defects == [fraction_defect(d, recips, n) for n in pool]
            assert all(type(v) is Fraction for v in defects)
            first = next(((n, v) for n, v in zip(pool, defects)
                          if v > 0 and n != full_ideal(d)), None)
            want = lie.CodimReport(True) if first is None else lie.CodimReport(False, *first)
            report = codimension_check(d, p, pool)
            assert report == want and repr(report) == repr(want)
    assert len(verdicts) == 6, verdicts
    assert scaled_slacks > 0


def test_dimensions_of_ideals_outside_the_pool():
    # ideals that no closure forms miss the table of sums, so each runs its
    # own eliminations: box-1 subspaces up to T^3 and random rows on T^4,
    # under random summand sets, checked against the Fraction reference
    # through _Sums.ideal_dims, codimension_defect and bl_polytope
    rng = random.Random(71)
    choices = ("1", "3/2", "2", "5/2", "3", "4", "inf")
    outside = 0
    for d in list(random_lie_data(41, 36)) + [t3_loomis_whitney(), four_generic_planes()]:
        pool = set(closed_pool(d)[0])
        s, t = len(d.simple_dims), d.torus_dim
        bases = (list(enumerate_box_subspaces(t, 1, t)) if t <= 3 else
                 [random_rows(rng, rng.randint(1, 3), t, k % 2 == 1) for k in range(12)])
        ideals = [IdealSpec([i for i in range(s) if rng.random() < 0.5], basis)
                  for basis in bases]
        ideals = [n for n in ideals if n not in pool]
        outside += len(ideals)
        p = [E(rng.choice(choices)) for _ in d.maps]
        recips = [pj.reciprocal() for pj in p]
        for n in ideals:
            assert lie._Sums(d).ideal_dims(n) == reference_ideal_dims(d, n)
            assert codimension_defect(d, p, n) == fraction_defect(d, recips, n)
        dim_g, g_images = reference_ideal_dims(d, full_ideal(d))
        halfspaces = set()
        for n in ideals + [zero_ideal()]:
            if n != full_ideal(d):
                dim_n, images = reference_ideal_dims(d, n)
                halfspaces.add((tuple(g - i for g, i in zip(g_images, images)), dim_g - dim_n))
        P = bl_polytope(d, ideals + [zero_ideal()])
        assert P == lie.RationalPolytope(d.J, tuple(sorted(halfspaces)))
    assert outside > 500


def test_integer_vertices_match_fraction_reference():
    # the Fraction reference is slow, so the seeded data contribute only
    # their polytopes with at most 300 constraint subsets; the last three
    # cases (LW and the four planes) enter at every closure
    rng = random.Random(61)
    cases = tentpole_cases()
    seen = set()
    for k, (d, p) in enumerate(cases):
        for max_closure in range(5):
            P = bl_polytope(d, closed_pool(d, max_closure)[0])
            subsets = math.comb(len(P.halfspaces) + 2 * P.dim, P.dim)
            if P in seen or (subsets > 300 and k < len(cases) - 3):
                continue
            seen.add(P)
            verts = vertices(P)
            assert verts == fraction_vertices(P)
            assert all(type(v) is Fraction for x in verts for v in x)
            assert facet_status(P, verts) == fraction_facet_status(P, verts)
            cons = lie._all_constraints(P)
            points = verts + [[Fraction(rng.randint(-1, 7), rng.choice((1, 2, 3, 6)))
                               for _ in range(P.dim)] for _ in range(20)]
            for x in points:
                assert membership_point(P, x) == fraction_inside(cons, x)
    assert len(seen) > 120 and {P.dim for P in seen} == {1, 2, 3, 4}


def test_polytope_with_no_maps_has_the_empty_vertex():
    d = CompactLieDatum((3,), 2, ())
    P = bl_polytope(d, [zero_ideal()])
    assert P.dim == 0 and P.halfspaces == (((), 5),)
    assert vertices(P) == fraction_vertices(P) == [()]
    assert facet_status(P, vertices(P)) == [False] and membership_point(P, [])
    assert finiteness(d, []).verdict is Verdict.FINITE


def spanning_sets(rng, basis):
    """Other spanning sets of span(basis): shuffled, grown by integer
    combinations, and rescaled row by row by negative or fractional factors."""
    shuffled = rng.sample(basis, len(basis))
    combos = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        combos.append([sum(a * row[c] for a, row in zip(coeffs, basis))
                       for c in range(len(basis[0]))])
    factors = (-1, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4), -6)
    rescaled = [[f * v for v in row]
                for f, row in zip(rng.choices(factors, k=len(basis)), basis)]
    return [shuffled, combos + basis + [[0] * len(basis[0])], rng.sample(rescaled, len(basis))]


def test_integer_form_is_canonical():
    rng = random.Random(59)
    for _ in range(400):
        ncols = rng.randint(1, 5)
        basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        want = primitive(basis)
        assert want == primitive(want) and len(want) == len(rref(basis))
        for row in want:
            assert type(row) is tuple and all(type(v) is int for v in row)
            assert gcd(*row) == 1 and next(v for v in row if v) > 0
        for rows in spanning_sets(rng, basis):
            assert primitive(rows) == want
        # one subspace as int, Fraction and string rows, the last as JSON gives them
        scaled = spanning_sets(rng, basis)[2]
        ideals = [IdealSpec((0,), basis), IdealSpec((0,), scaled),
                  IdealSpec((0,), [[str(v) for v in row] for row in scaled])]
        for n in ideals:
            assert n == ideals[0] and hash(n) == hash(ideals[0])
            assert n.torus_rows == want and n.torus_basis == rref(basis)
            assert repr(n) == repr(ideals[0])


def test_rational_maps_are_stored_as_their_integer_multiple():
    rows = ((2, -1, 0), (0, 3, 1))
    m = LinearizedMap((), [list(row) for row in rows])
    assert m.torus_matrix == rows  # integer input is kept as given
    assert all(type(v) is int for row in m.torus_matrix for v in row)
    rng = random.Random(83)
    choices = ["1", "4/3", "3/2", "2", "3", "inf"]
    for d in random_lie_data(83, 40):
        rational, doubled = [], []
        for m in d.maps:
            R = [[Fraction(v, rng.randint(1, 6)) for v in row] for row in m.torus_matrix]
            L = math.lcm(*[v.denominator for row in R for v in row])
            multiple = [[int(v * L) for v in row] for row in R]
            # the Fraction and the string forms equal the integer multiple
            for form in (R, [[str(v) for v in row] for row in R]):
                assert LinearizedMap(m.kept_simple, form) == LinearizedMap(m.kept_simple, multiple)
            rational.append(LinearizedMap(m.kept_simple, R))
            doubled.append(LinearizedMap(m.kept_simple, [[2 * v for v in row] for row in multiple]))
        rd = CompactLieDatum(d.simple_dims, d.torus_dim, tuple(rational))
        # a different integer multiple: not an equal map, the same kernels
        dd = CompactLieDatum(d.simple_dims, d.torus_dim, tuple(doubled))
        pool, closed = closed_pool(rd)
        assert closed_pool(dd) == (pool, closed)
        assert bl_polytope(dd, pool) == bl_polytope(rd, pool)
        for _ in range(3):
            p = [E(rng.choice(choices)) for _ in d.maps]
            assert finiteness(dd, p) == finiteness(rd, p)


def test_torus_scan_script_runs(package_env):
    import subprocess
    import sys
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "torus_scan.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--count", "8", "--max-dim", "2",
         "--scan-box", "1", "--audit"],
        capture_output=True, text=True, env=package_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "no violator missed by the pool" in proc.stdout
