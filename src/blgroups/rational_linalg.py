"""Small exact linear algebra over the rationals.

Subspaces of Q^n are represented by their reduced row echelon basis, which
is a canonical form: two subspaces are equal iff their RREF tuples are.
Inputs and outputs are Fractions, and nothing is approximated.  Elimination
runs on Python ints: each input row is scaled by the lcm of its
denominators, which keeps its span, and Gauss-Jordan elimination replaces a
row r by a r - b p for the pivot row p (a its leading entry, b the entry of r
in the pivot column), then divides r by the gcd of its entries.  Only the
result becomes Fractions, each pivot row divided by its leading entry; RREF
is unique, so it is the RREF that Fraction elimination gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_matrix(rows: Iterable[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def _rationals(row: Sequence) -> list:
    """The entries as ints or Fractions, the two types with exact numerators."""
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]


def _integer_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators."""
    vals = _rationals(row)
    den = lcm(*[v.denominator for v in vals])
    return [v.numerator * (den // v.denominator) for v in vals]


def _echelon(mat: list[list[int]]) -> list[tuple[int, list[int]]]:
    """Integer Gauss-Jordan elimination in place; (pivot column, row) per pivot.

    The returned rows are primitive, nonzero, sorted by pivot column, and zero
    in every pivot column but their own.
    """
    if not mat:
        return []
    cols = []
    done = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(done, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[done], mat[pivot] = mat[pivot], mat[done]
        prow = mat[done]
        g = gcd(*prow)
        if g != 1:
            prow = mat[done] = [x // g for x in prow]
        a = prow[col]
        for r, row in enumerate(mat):
            b = row[col]
            if b and r != done:
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                mat[r] = [x // g for x in row] if g > 1 else row
        cols.append(col)
        done += 1
        if done == len(mat):
            break
    return list(zip(cols, mat))


# Tuples are built from lists, not generators.  CPython sizes a tuple built
# from a generator by a guess and shrinks it; such a tuple is not taken from
# the free list for its final length but goes to it when freed, so that list
# fills to its cap of 2000 tuples, which raised the peak memory of long runs.
def _fraction_row(col: int, row: list[int]) -> Row:
    lead = row[col]
    return tuple(
        [_ZERO if not x else _ONE if x == lead else Fraction(x, lead) for x in row]
    )


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form with zero rows dropped; canonical per subspace."""
    pivots = _echelon([_integer_row(row) for row in rows])
    return tuple([_fraction_row(col, row) for col, row in pivots])


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows))


def image_basis(M: Iterable[Sequence], vectors: Iterable[Sequence]) -> Matrix:
    """RREF basis of { M v : v in span(vectors) }; vectors are rows.

    M is scaled by one common denominator, which scales the image and keeps
    it; scaling single rows of M would change it.  Each vector is scaled on
    its own, which keeps its span.
    """
    M = [_rationals(row) for row in M]
    vecs = [_integer_row(row) for row in vectors]
    if not M or not vecs:
        return ()
    den = lcm(*[v.denominator for row in M for v in row])
    M = [[v.numerator * (den // v.denominator) for v in row] for row in M]
    return rref([[sum(m * v for m, v in zip(mrow, vec)) for mrow in M] for vec in vecs])


def nullspace(M: Iterable[Sequence], ncols: int) -> Matrix:
    """RREF basis of the kernel of the matrix (rows act on column vectors)."""
    R = rref(M)
    pivots = []
    for row in R:
        pivots.append(next(i for i, v in enumerate(row) if v != 0))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, pcol in zip(R, pivots):
            vec[pcol] = -row[f]
        basis.append(tuple(vec))
    return rref(basis)


def subspace_sum(A: Matrix, B: Matrix) -> Matrix:
    return rref(list(A) + list(B))


def subspace_intersection(A: Matrix, B: Matrix, ncols: int) -> Matrix:
    """Zassenhaus: RREF [[A|A],[B|0]]; rows with zero left half span A cap B.

    Those rows come last in the RREF, and their right halves are an RREF
    basis already: each is zero in the others' pivot columns.
    """
    if not A or not B:
        return ()
    zero = (0,) * ncols
    block = [tuple(row) + tuple(row) for row in A]
    block += [tuple(row) + zero for row in B]
    return tuple([row[ncols:] for row in rref(block) if not any(row[:ncols])])


def solve_square(A: Iterable[Sequence], b: Sequence) -> Optional[Row]:
    """Unique solution of A x = b, or None if A is singular.

    The echelon form of [A | b] has pivot columns 0..n-1 exactly when A is
    nonsingular; row i then reads a x_i = c, with a its pivot, c its last entry.
    """
    rows = [_integer_row(list(row) + [v]) for row, v in zip(A, b)]
    pivots = _echelon(rows)
    if [col for col, _ in pivots] != list(range(len(rows))):
        return None
    return tuple([Fraction(row[-1], row[col]) for col, row in pivots])


def enumerate_box_subspaces(n: int, box: int, max_dim: Optional[int] = None):
    """All subspaces of Q^n spanned by vectors with entries in [-box, box].

    Yields canonical RREF bases, the zero subspace included, deduplicated.
    Spans of every subset of distinct lines are covered because any subspace
    spanned by box vectors contains an independent spanning subset of them.
    """
    if max_dim is None:
        max_dim = n
    lines = set()
    for vec in _box_vectors(n, box):
        if any(vec):
            lines.add(rref([vec]))
    lines = sorted(lines)
    seen = {(): ()}
    yield ()
    current = {(): ()}
    for dim in range(1, max_dim + 1):
        nxt = {}
        for basis in current.values():
            for line in lines:
                s = subspace_sum(basis, line)
                if len(s) == dim and s not in seen:
                    seen[s] = s
                    nxt[s] = s
                    yield s
        current = nxt


def _box_vectors(n: int, box: int):
    if n == 0:
        yield ()
        return
    for rest in _box_vectors(n - 1, box):
        for v in range(-box, box + 1):
            yield (Fraction(v),) + rest
