"""Finiteness analysis for compact Lie group data in exact rational arithmetic.

A compact Lie algebra splits as (sum of simple ideals) + (central torus), and
every ideal is a subset of the simple summands plus a rational subspace of
the torus.  A homomorphism kills or keeps each simple summand and acts on the
torus by an integer matrix, so all the dimension counting in the codimension
conditions reduces to subset bookkeeping plus sums of torus subspaces
(below: no image is built).

The codimension defect is additive over the simple summands and the torus.
With r_j = 1/p_j, R_i the sum of r_j over the maps that keep summand i, and
c_i = d_i (R_i - 1), a summand i outside an ideal adds d_i to its
codimension and to the image codimension of each map that keeps i, so
defect(S, T) = sum_{i not in S} c_i + defect_T(T), with defect_T the torus
part's own defect (see split_commutator_center), and every subset S passes
iff every c_i <= 0.  The torus subspaces are settled by the theorem below: a
FINITE verdict is a proof, not a sample, and what is not proved is UNDECIDED.

Torus certificate
-----------------
Let V = Q^n be the Lie algebra of T^n, K_j = ker dsigma_j and r_j = 1/p_j in
[0, 1].  By rank-nullity on W, then dim(W cap K_j) = dim W + dim K_j -
dim(W + K_j),

    dim dsigma_j(W) = dim W - dim(W cap K_j) = dim(W + K_j) - dim K_j,

so the rank of map j on V is n - dim K_j, every image dimension is read off a
sum with a kernel (_Sums), and the codimension inequality at W reads

    (C_W)    codim W >= sum_j r_j codim(W + K_j).

(If sum_j r_j <= 1 it holds for every W, as codim(W + K_j) <= codim W.)

Theorem.  Let P be a set of subspaces of V that contains 0 and every K_j and
is closed under sum and intersection.  If (C_W) holds for every W in P, then
it holds for every subspace W of V.  The argument uses only linear
algebra over a field, so real subspaces are covered as well.

Proof.  Pass to the dual space V*.  For U = W^perp, dim U = codim W and
(W + K_j)^perp = U cap E_j with E_j = K_j^perp, so (C_W) becomes phi(U) <= 0
for

    phi(U) = sum_j r_j dim(U cap E_j) - dim U,

a dimension condition with no scaling equality.  The set L of annihilators
of P and of V is closed under sum and intersection (perp swaps the two) and
contains 0, V* and every E_j; phi <= 0 on L by hypothesis (phi = 0 at the
annihilator 0 of V).  Fix U and put h(T) = dim(U cap T) for T in L.  Since
(A cap E) + (B cap E) lies in (A + B) cap E, any subspaces A, B, E satisfy

    (a)  dim((A + B) cap E) + dim(A cap B cap E) >= dim(A cap E) + dim(B cap E),

so h is supermodular on L, while dim is modular.

1. A chain in L.  Starting from T_0 = 0, while T_{i-1} != V* let lambda_i be
   the largest slope (h(T) - h(T_{i-1})) / (dim T - dim T_{i-1}) over T in L
   properly containing T_{i-1}, and T_i the sum of all T attaining it.  By
   (a) the sum of two attaining T attains it again, so T_i is in L and
   attains lambda_i.  Then 0 <= lambda_i <= 1 (h is monotone and h(T) <= dim T), and
     (i)  h(T_i) - h(T_{i-1}) = lambda_i (dim T_i - dim T_{i-1}),
     (ii) h(T) - h(T_{i-1}) <= lambda_i (dim T - dim T_{i-1}) for every T in
          L containing T_{i-1}.
   The slopes strictly decrease: a T properly containing T_i with slope
   >= lambda_i over T_i would, by (i), attain lambda_i over T_{i-1} without
   lying in T_i.
   The chain ends at T_q = V*.
2. Domination.  For each j, T = (E_j cap T_i) + T_{i-1} is in L and contains
   T_{i-1}, and U cap E_j cap T_i and U cap T_{i-1} are subspaces of
   U cap T meeting in U cap E_j cap T_{i-1}.  So, by (ii),
     dim(U cap E_j cap T_i) - dim(U cap E_j cap T_{i-1})
         <= h(T) - h(T_{i-1}) <= lambda_i (dim T - dim T_{i-1})
         =  lambda_i (dim(E_j cap T_i) - dim(E_j cap T_{i-1})).
   Summing over i, dim(U cap E_j) <= sum_i lambda_i D_i(dim(E_j cap .)),
   and by (i) dim U = sum_i lambda_i D_i(dim), where D_i(g) means
   g(T_i) - g(T_{i-1}).
3. Convexity.  The weights mu_0 = 1 - lambda_1, mu_i = lambda_i -
   lambda_{i+1} and mu_q = lambda_q are >= 0 and sum to 1, and Abel
   summation gives sum_i mu_i g(T_i) = sum_i lambda_i D_i(g) for every g with
   g(0) = 0.  With g = phi and r_j >= 0, step 2 gives
     phi(U) <= sum_i mu_i phi(T_i) <= max_i phi(T_i) <= 0.            QED

The same chain shows that the maximum of phi over all subspaces is attained
in L, so for torus data the bl_polytope of a closed pool is the exact
feasibility polytope.  This is the codimension counterpart of the reduction to the
lattice generated by the kernels in Valdimarsson, "The Brascamp-Lieb
polyhedron", Canad. J. Math. 62 (2010).  That paper works with the scaling
condition in force, so the argument is given here in full; it needs none.

closed_pool builds exactly such a P, with the Lie algebra g in place of V:
sum and intersection of ideals act component by component, so the pool is a
set of subspaces of g that holds 0 and every kernel.  `stabilized` means it
closed within max_closure rounds; a pool that did not close gives UNDECIDED.
Hence the part checks of finiteness never fire on a closed pool: its passing
covers each ideal (all summands, T), whose defect is defect_T(T), and if
R_i > 1, the sum U of the kernels K_j of the maps that keep i omits summand
i, so defect(U) >= (R_i - 1) codim U > 0, as codim(U + K_j) = codim U for
those j, and the pool check reports U first.  So finiteness decides a closed
pool by the pool check alone; only an unclosed pool reaches the torus part
check, which can turn its UNDECIDED into INFINITE.  Every ideal check
(finiteness, codimension_check, brute_force_torus_violator) reads one scan,
_Sums.defects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .datum import Exponent
from .exact import _over_lcm
from .groups import SizeCapError, _semi_naive_closure
from .rational_linalg import (
    IntMatrix,
    Matrix,
    enumerate_box_subspaces,
    fractions,
    int_kernel,
    int_meet,
    int_solve,
    int_sum,
    primitive,
    scaled,
)

POOL_CAP = 10_000
VERTEX_DIM_CAP = 8


@dataclass(frozen=True)
class LinearizedMap:
    """A homomorphism at the Lie algebra level.

    Simple summands are either killed or mapped isomorphically (a simple
    algebra has no other images), so kept_simple lists the surviving ones;
    the torus block is an integer matrix, one row per dimension of the
    target's central torus.  Integer input is stored as given; rational
    input is stored as its integer multiple, the matrix times the lcm of its
    denominators (rational_linalg.scaled), which has the same kernel and
    image dimensions, so a rational map and that multiple are equal maps
    with the same verdicts, pools and polytopes.
    """

    kept_simple: tuple[int, ...]
    torus_matrix: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "kept_simple", tuple(sorted(set(self.kept_simple))))
        object.__setattr__(self, "torus_matrix", scaled(self.torus_matrix))


@dataclass(frozen=True)
class CompactLieDatum:
    simple_dims: tuple[int, ...]
    torus_dim: int
    maps: tuple[LinearizedMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "simple_dims", tuple(self.simple_dims))
        object.__setattr__(self, "maps", tuple(self.maps))
        if any(d <= 0 for d in self.simple_dims) or self.torus_dim < 0:
            raise ValueError("simple dimensions must be positive, torus_dim >= 0")
        for m in self.maps:
            if any(not 0 <= i < len(self.simple_dims) for i in m.kept_simple):
                raise ValueError("kept_simple index out of range")
            for row in m.torus_matrix:
                if len(row) != self.torus_dim:
                    raise ValueError("torus matrix row width must equal torus_dim")

    @property
    def J(self) -> int:
        return len(self.maps)

    def group_dim(self) -> int:
        return sum(self.simple_dims) + self.torus_dim


@dataclass(frozen=True)
class IdealSpec:
    """An ideal: a set of simple summands plus a rational torus subspace, as
    its RREF `torus_basis` and its integer form `torus_rows` (rational_linalg),
    on which equality, hashing and every rank run."""

    simple_part: tuple[int, ...]
    torus_basis: Matrix = field(default=(), compare=False)
    torus_rows: IntMatrix = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "simple_part", tuple(sorted(set(self.simple_part))))
        object.__setattr__(self, "torus_rows", primitive(self.torus_basis))
        object.__setattr__(self, "torus_basis", fractions(self.torus_rows))

    @classmethod
    def _canonical(cls, simple_part: tuple[int, ...], torus_rows: IntMatrix) -> IdealSpec:
        """An ideal from parts already in canonical form, which are not reduced
        again: a sorted tuple of distinct summands and integer-form rows."""
        n = object.__new__(cls)
        object.__setattr__(n, "simple_part", simple_part)
        object.__setattr__(n, "torus_rows", torus_rows)
        object.__setattr__(n, "torus_basis", fractions(torus_rows))
        return n


def zero_ideal() -> IdealSpec:
    return IdealSpec._canonical((), ())


def full_ideal(d: CompactLieDatum) -> IdealSpec:
    eye = tuple([tuple([int(i == j) for j in range(d.torus_dim)])
                 for i in range(d.torus_dim)])
    return IdealSpec._canonical(tuple(range(len(d.simple_dims))), eye)


def _is_full(d: CompactLieDatum, n: IdealSpec) -> bool:
    """Whether n == full_ideal(d), without building it: the integer form of
    a subspace of dimension torus_dim in width torus_dim is the identity."""
    t = d.torus_dim
    return (n.simple_part == tuple(range(len(d.simple_dims))) and len(n.torus_rows) == t
            and all(len(row) == t for row in n.torus_rows))


class _Sums:
    """One call's eliminations on a datum, each made once: the map kernels as
    (bitmask of the summands the map kills, integer-form torus rows), the map
    ranks (image dimensions) read off them, and every torus sum, kept by the
    unordered pair of integer-form parts (module docstring).  It lives for
    one call, so no state outlives the call."""

    def __init__(self, d: CompactLieDatum):
        self.d, self._sums = d, {}
        summands = range(len(d.simple_dims))
        self.kernels = [(sum(1 << i for i in summands if i not in m.kept_simple),
                         int_kernel(m.torus_matrix, d.torus_dim)) for m in d.maps]
        self.ranks = [sum(d.simple_dims[i] for i in m.kept_simple) + d.torus_dim - len(K)
                       for m, (_, K) in zip(d.maps, self.kernels)]

    def torus_sum(self, A: IntMatrix, B: IntMatrix) -> IntMatrix:
        """A + B; a sum with 0, or of a part with itself, needs no elimination."""
        if not A or not B or A == B:
            return A or B
        key = (A, B) if A < B else (B, A)
        if key not in self._sums:
            self._sums[key] = int_sum(A, B)
        return self._sums[key]

    def sum_and_intersection(self, a, b) -> tuple:
        """(a + b, a cap b) for ideals as (summand bitmask, integer-form torus
        rows), the meet read off dimensions where it can be (closed_pool)."""
        (sa, A), (sb, B) = a, b
        s = self.torus_sum(A, B)
        if len(s) == len(A):
            meet = B
        elif len(s) == len(B):
            meet = A
        elif len(s) == len(A) + len(B):
            meet = ()
        else:
            meet = int_meet(A, B, self.d.torus_dim)
        return (sa | sb, s), (sa & sb, meet)

    def ideal_dims(self, n: IdealSpec) -> tuple[int, list[int]]:
        d, T = self.d, n.torus_rows
        if any(len(row) != d.torus_dim for row in T):
            raise ValueError("torus basis rows must have torus_dim entries")
        dim_n = sum(d.simple_dims[i] for i in n.simple_part) + len(T)
        return dim_n, [sum(d.simple_dims[i] for i in n.simple_part if i in m.kept_simple)
                       + len(self.torus_sum(T, K)) - len(K)
                       for m, (_, K) in zip(d.maps, self.kernels)]

    def halfspace(self, n: IdealSpec) -> tuple[tuple[int, ...], int]:
        """(coeffs, bound) with the codimension inequality at n as r . coeffs <= bound."""
        dim_n, image_dims = self.ideal_dims(n)
        return (tuple([g - i for g, i in zip(self.ranks, image_dims)]),
                self.d.group_dim() - dim_n)

    def defect(self, R, D: int, n: IdealSpec) -> int:
        """D times the codimension defect at n, for 1/p_j = R_j / D."""
        coeffs, bound = self.halfspace(n)
        return sum([r * c for r, c in zip(R, coeffs)]) - bound * D

    def defects(self, R, D: int, ideals):
        """(n, D times the codimension defect at n) for each proper ideal n of
        `ideals`, in order: the one scan over ideals (module docstring)."""
        for n in ideals:
            if not _is_full(self.d, n):
                yield n, self.defect(R, D, n)


@dataclass(frozen=True)
class CodimReport:
    ok: bool
    violator: Optional[IdealSpec] = None
    slack: Optional[Fraction] = None


def _reciprocals(d: CompactLieDatum, p: Sequence[Exponent]) -> tuple[list[int], int]:
    """(R, D) with 1/p_j = R_j / D for each map (exact._over_lcm); p must
    hold exactly one exponent per map."""
    if len(p) != d.J:
        raise ValueError("exponent count must match the number of maps")
    return _over_lcm([Exponent.of(pj).reciprocal() for pj in p])


def codimension_defect(d: CompactLieDatum, p: Sequence[Exponent], n: IdealSpec) -> Fraction:
    """lhs - rhs of the codimension inequality at the ideal n (<= 0 means ok)."""
    R, D = _reciprocals(d, p)
    return Fraction(_Sums(d).defect(R, D, n), D)


def codimension_check(
    d: CompactLieDatum, p: Sequence[Exponent], ideals: Iterable[IdealSpec]
) -> CodimReport:
    """The first proper ideal in `ideals`, read lazily, that violates the inequality."""
    R, D = _reciprocals(d, p)
    for n, defect in _Sums(d).defects(R, D, ideals):
        if defect > 0:
            return CodimReport(False, n, Fraction(defect, D))
    return CodimReport(True)


# -- pools ----------------------------------------------------------------


def _ideal(mask: int, rows: IntMatrix) -> IdealSpec:
    summands = tuple([i for i in range(mask.bit_length()) if mask >> i & 1])
    return IdealSpec._canonical(summands, rows)


def closed_pool(
    d: CompactLieDatum, max_closure: int = 3
) -> tuple[list[IdealSpec], bool]:
    """Close the kernels and {0} under pairwise sum and intersection.

    Returns the pool (canonically sorted) and whether the closure reached a
    fixed point within max_closure rounds.  The closure is the semi-naive
    one that `constant` also runs (groups._semi_naive_closure): each round
    combines only pairs with a member added by the round before, a round
    that adds nothing proves the pool closed, and one round beyond
    max_closure is run only to find out whether it would.

    The closure adds, intersects and hashes (summand bitmask, integer-form
    torus rows) pairs, all ints; each member becomes an IdealSpec, with its
    Fraction basis, at the end, sorted by (dimension, summands, RREF basis).
    A pair of torus parts costs one elimination for s = A + B, kept in the
    _Sums that finiteness shares with its defect scan, whose sums T + K_j
    the closure has all made.  Since dim(A cap B) = dim A + dim B - dim s,
    the meet is read off the dimensions where they pin it down: dim s =
    dim A means B lies in A, so A cap B = B; dim s = dim B means A cap B = A;
    dim s = dim A + dim B means A cap B = 0.  Only the other pairs run
    Zassenhaus.
    """
    return _closed_pool(_Sums(d), max_closure)


def _closed_pool(sums: _Sums, max_closure: int) -> tuple[list[IdealSpec], bool]:
    if max_closure < 0:
        raise ValueError("max_closure must be >= 0")
    pool, closed = _semi_naive_closure([(0, ()), *sums.kernels], sums.sum_and_intersection,
                                       max_closure, POOL_CAP, "ideal pool")
    return sorted([_ideal(*c) for c in pool], key=_ideal_key), closed


def _ideal_key(n: IdealSpec):
    return len(n.simple_part) + len(n.torus_basis), n.simple_part, n.torus_basis


# -- polytope --------------------------------------------------------------


@dataclass(frozen=True)
class RationalPolytope:
    """{ x in [0,1]^J : c . x <= b for each halfspace }, integer data."""

    dim: int
    halfspaces: tuple[tuple[tuple[int, ...], int], ...]


def bl_polytope(d: CompactLieDatum, ideals: Sequence[IdealSpec]) -> RationalPolytope:
    """One halfspace per distinct dimension vector over the given ideals."""
    if not any(n == zero_ideal() for n in ideals):
        raise ValueError("the ideal list must contain the zero ideal")
    sums = _Sums(d)
    halfspaces = {sums.halfspace(n) for n in ideals if not _is_full(d, n)}
    return RationalPolytope(d.J, tuple(sorted(halfspaces)))


def _all_constraints(P: RationalPolytope):
    """Halfspaces plus the box, uniformly as (coeffs, bound) with c.x <= b."""
    cons = list(P.halfspaces)
    for j in range(P.dim):
        unit = [0] * P.dim
        unit[j] = 1
        cons += [(tuple(unit), 1), (tuple([-v for v in unit]), 0)]
    return cons


def _inside(cons, X, D: int) -> bool:
    """Whether X / D satisfies every c . x <= b, tested as c . X <= b D."""
    return all(sum([c * v for c, v in zip(coeffs, X)]) <= b * D for coeffs, b in cons)


def membership_point(P: RationalPolytope, point: Sequence) -> bool:
    X, D = _over_lcm([Fraction(v) for v in point])
    if len(X) != P.dim:
        raise ValueError("point dimension mismatch")
    return _inside(_all_constraints(P), X, D)


def membership(P: RationalPolytope, p: Sequence) -> bool:
    """Membership of the reciprocal tuple of a list of exponents."""
    return membership_point(P, [Exponent.of(pj).reciprocal() for pj in p])


def vertices(P: RationalPolytope) -> list[tuple[Fraction, ...]]:
    """Exact vertices: feasible solutions of full-rank J-subsets of constraints.

    Each solution is tested on ints, as numerators over one denominator;
    only the feasible ones become Fractions."""
    if P.dim > VERTEX_DIM_CAP:
        raise SizeCapError(f"vertex enumeration capped at dimension {VERTEX_DIM_CAP}")
    cons = _all_constraints(P)
    out = set()
    for subset in combinations(cons, P.dim):
        x = int_solve([c for c, _ in subset], [b for _, b in subset])
        if x is not None and _inside(cons, *x):
            out.add(tuple([Fraction(v, x[1]) for v in x[0]]))
    return sorted(out)


def facet_status(P: RationalPolytope, verts) -> list[bool]:
    """Per halfspace: True if tight at some vertex of verts = vertices(P),
    False if redundant."""
    points = [_over_lcm(x) for x in verts]
    return [any(sum([c * v for c, v in zip(coeffs, X)]) == b * D for X, D in points)
            for coeffs, b in P.halfspaces]


# -- finiteness -------------------------------------------------------------


class Verdict(enum.Enum):
    FINITE = "FINITE"
    INFINITE = "INFINITE"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class FinitenessReport:
    verdict: Verdict
    violator: Optional[IdealSpec] = None
    slack: Optional[Fraction] = None
    pool: tuple[IdealSpec, ...] = ()
    certification: str = ""
    note: str = (
        "FINITE is proved: simple summand subsets are checked summand by "
        "summand, as the defect is additive over them, and a torus "
        "pool that contains 0 and every map kernel and is closed under sum "
        "and intersection passes every subspace once it passes its own "
        "members (lattice theorem in blgroups.lie); a pool that is not "
        "closed leaves the verdict UNDECIDED"
    )


def split_commutator_center(
    d: CompactLieDatum,
) -> tuple[CompactLieDatum, CompactLieDatum]:
    """Split into the semisimple part and the central torus part.

    The codimension defect of any ideal is the sum of the defects of its two
    parts in the part data, so the full datum passes iff both parts pass.
    """
    semisimple = CompactLieDatum(
        d.simple_dims,
        0,
        tuple(LinearizedMap(m.kept_simple, ()) for m in d.maps),
    )
    torus = CompactLieDatum(
        (),
        d.torus_dim,
        tuple(LinearizedMap((), m.torus_matrix) for m in d.maps),
    )
    return semisimple, torus


def brute_force_torus_violator(
    d: CompactLieDatum, p: Sequence[Exponent], box: int = 3
) -> Optional[IdealSpec]:
    """Scan the subspaces spanned by vectors in [-box, box]^n to the first violator.

    An independent test oracle, off the verdict path: it samples subspaces
    and knows nothing of the kernel lattice.
    """
    if d.simple_dims:
        raise ValueError("brute force scan applies to pure torus data")
    bases = enumerate_box_subspaces(d.torus_dim, box, max(0, d.torus_dim - 1))
    return codimension_check(d, p, (IdealSpec((), b) for b in bases)).violator


def _first_failing_subset(c: list[int]) -> tuple[int, ...]:
    """The first proper S in (|S|, S) order with sum_{i not in S} c_i > 0,
    for c with a positive entry.  That holds iff sum_{i in S} c_i < sum(c),
    so |S| is the least k whose k smallest c_i sum below sum(c), and S takes,
    in index order, each i that still leaves a completion."""
    total, s = sum(c), len(c)
    k = next(k for k in range(s) if sum(sorted(c)[:k]) < total)
    S = []
    for i in range(s):
        rest = k - len(S) - 1  # members still to take after i
        if 0 <= rest <= s - 1 - i and (
                sum(c[j] for j in S) + c[i] + sum(sorted(c[i + 1 :])[:rest]) < total):
            S.append(i)
    return tuple(S)


def finiteness(
    d: CompactLieDatum, p: Sequence[Exponent], max_closure: int = 3
) -> FinitenessReport:
    """Decide finiteness of the constant at p, against the closed ideal pool.

    Every verdict is read off one scan of the proper pool ideals
    (_Sums.defects), on ints: D times the defect, with 1/p_j = R_j / D
    (_reciprocals), so only a reported slack becomes a Fraction.  The first
    positive one, in pool order, settles INFINITE.
    Else the first failing part is reported through its lift, (S, full
    torus) or (all summands, T): S in (|S|, S) order, found iff some c_i > 0
    (module docstring).  A closed pool then proves FINITE; only an unclosed
    one is checked for T in (dim T, T) order, at defect(n) minus the c_i
    outside S(n) for a pool member n with torus part T, and is UNDECIDED if
    no T fails.
    """
    R, D = _reciprocals(d, p)  # a wrong exponent count fails before the closure
    sums = _Sums(d)
    pool, complete = _closed_pool(sums, max_closure)
    pool_tuple = tuple(pool)

    scanned = []
    for n, defect in sums.defects(R, D, pool):
        if defect > 0:
            return FinitenessReport(
                Verdict.INFINITE, n, Fraction(defect, D), pool_tuple,
                "violating ideal found in the pool",
            )
        scanned.append((n, defect))

    c = [dim * (sum([r for r, m in zip(R, d.maps) if i in m.kept_simple]) - D)
         for i, dim in enumerate(d.simple_dims)]
    total = sum(c)
    if any(ci > 0 for ci in c):
        S = _first_failing_subset(c)
        return FinitenessReport(
            Verdict.INFINITE, IdealSpec._canonical(S, full_ideal(d).torus_rows),
            Fraction(total - sum(c[i] for i in S), D), pool_tuple,
            "violating ideal found among simple summand subsets",
        )
    if d.torus_dim == 0:
        return FinitenessReport(
            Verdict.FINITE, None, None, pool_tuple,
            "semisimple datum: every ideal passes, summand by summand",
        )
    if complete:
        return FinitenessReport(
            Verdict.FINITE, None, None, pool_tuple,
            "the closed kernel-lattice pool passes, so every torus subspace passes",
        )

    # (dim T, RREF of T, D defect_T(T), T) for each failing torus part
    failing_tori = [(len(n.torus_basis), n.torus_basis, t, n.torus_rows)
                    for n, defect in scanned
                    if (t := defect - total + sum(c[i] for i in n.simple_part)) > 0]
    if failing_tori:
        _, _, slack, T = min(failing_tori)
        return FinitenessReport(
            Verdict.INFINITE, IdealSpec._canonical(full_ideal(d).simple_part, T),
            Fraction(slack, D), pool_tuple, "violating torus subspace found in the pool",
        )
    return FinitenessReport(
        Verdict.UNDECIDED, None, None, pool_tuple,
        f"pool passes but the pool closure did not stabilize within "
        f"{max_closure} rounds",
    )
