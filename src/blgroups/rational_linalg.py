"""Small exact linear algebra over the rationals.

A subspace of Q^n has one canonical integer form: its reduced row echelon
basis with each row scaled to a primitive integer vector (gcd 1) with a
positive pivot, so subspaces compare and hash as tuples of ints.  `primitive`
brings rational rows (ints, Fractions or strings) to it, all rows scaled by
the lcm of their denominators, which keeps their span.  The `int_*` functions
take integer rows and never build a Fraction: `int_kernel`, `int_sum` and
`int_meet` return the integer form, and `int_solve` returns a solution as
integer numerators over one common denominator.  Gauss-Jordan
elimination replaces a row r by a r - b p for the pivot row p (a its leading
entry, b the entry of r in the pivot column), then divides r by the gcd of
its entries.  Fractions are made only where values leave the integer form:
`fractions` divides each row by its pivot, giving the RREF (unique, so the
one Fraction elimination gives), which `rref` and `enumerate_box_subspaces`
return.  Nothing is approximated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]
IntMatrix = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def scaled(M: Iterable[Sequence]) -> IntMatrix:
    """M times the lcm of all its denominators, entries read as ints or
    Fractions (the types with exact numerators).  One common factor keeps the
    span of the rows and of every image M(W); scaling single rows of M would
    change the image."""
    M = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row] for row in M]
    den = lcm(*[v.denominator for row in M for v in row])
    return tuple([tuple([v.numerator * (den // v.denominator) for v in row]) for row in M])


def _echelon(mat: list) -> list[tuple[int, list[int]]]:
    """Integer Gauss-Jordan elimination; (pivot column, row) per pivot.

    Rows of mat are replaced, never changed in place, so they may be tuples.
    The returned rows are primitive, nonzero, sorted by pivot column, zero in
    every pivot column but their own, and positive in their own.
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
        g = gcd(*prow) if prow[col] > 0 else -gcd(*prow)
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


def _rows(pivots) -> IntMatrix:
    return tuple([tuple(row) for _, row in pivots])


def primitive(rows: Iterable[Sequence]) -> IntMatrix:
    """The canonical integer form of the span of rational rows."""
    return _rows(_echelon(list(scaled(rows))))


# Tuples are built from lists, not generators.  CPython sizes a tuple built
# from a generator by a guess and shrinks it; such a tuple is not taken from
# the free list for its final length but goes to it when freed, so that list
# fills to its cap of 2000 tuples, which raised the peak memory of long runs.
def _fraction_row(row: Sequence[int]) -> Row:
    lead = next(x for x in row if x)
    return tuple(
        [_ZERO if not x else _ONE if x == lead else Fraction(x, lead) for x in row]
    )


def fractions(P: IntMatrix) -> Matrix:
    """The RREF of a subspace from its integer form: each row over its pivot."""
    return tuple([_fraction_row(row) for row in P])


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form with zero rows dropped; canonical per subspace."""
    return fractions(primitive(rows))


def int_kernel(M: IntMatrix, ncols: int) -> IntMatrix:
    """Integer form of the kernel of M (rows act on column vectors): free
    column f gives L at f and -R[f] L / a at the pivot column of each pivot
    row R, with a its pivot and L the lcm of the pivots."""
    pivots = _echelon(list(M))
    L = lcm(*[row[col] for col, row in pivots])
    pcols = {col for col, _ in pivots}
    basis = []
    for f in (c for c in range(ncols) if c not in pcols):
        vec = [0] * ncols
        vec[f] = L
        for col, row in pivots:
            vec[col] = -row[f] * (L // row[col])
        basis.append(vec)
    return _rows(_echelon(basis))


def int_sum(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return _rows(_echelon(list(A + B)))


def int_meet(A: IntMatrix, B: IntMatrix, ncols: int) -> IntMatrix:
    """Zassenhaus: reduce [[A|A],[B|0]]; the rows pivoting right of column
    ncols span A cap B, and their right halves are its integer form already:
    primitive, positive pivot, zero in the others' pivot columns."""
    if not A or not B:
        return ()
    zero = (0,) * ncols
    block = [row + row for row in A] + [row + zero for row in B]
    return tuple([tuple(row[ncols:]) for col, row in _echelon(block) if col >= ncols])


def int_solve(A: IntMatrix, b: Sequence[int]) -> Optional[tuple[tuple[int, ...], int]]:
    """Unique solution of A x = b as (X, D) with x = X / D, or None if A is
    singular.

    The echelon form of [A | b] has pivot columns 0..n-1 exactly when A is
    nonsingular; row i then reads a x_i = c, with a its pivot, c its last
    entry, so x_i = c (D / a) / D with D the lcm of the pivots.
    """
    pivots = _echelon([list(row) + [v] for row, v in zip(A, b)])
    if [col for col, _ in pivots] != list(range(len(A))):
        return None
    D = lcm(*[row[col] for col, row in pivots])
    return tuple([row[-1] * (D // row[col]) for col, row in pivots]), D


def enumerate_box_subspaces(n: int, box: int, max_dim: int):
    """The subspaces of Q^n of dimension at most max_dim spanned by vectors
    with entries in [-box, box].

    Sums integer forms, deduplicates them, and yields each one's RREF basis,
    the zero subspace included, lines in RREF order.  Spans of every subset of
    distinct lines are covered because any subspace spanned by box vectors
    contains an independent spanning subset of them.
    """
    vectors = product(range(-box, box + 1), repeat=n)
    lines = sorted({primitive([v]) for v in vectors if any(v)}, key=fractions)
    yield ()
    seen, current = {()}, [()]
    for dim in range(1, max_dim + 1):
        nxt = []
        for basis in current:
            for line in lines:
                s = int_sum(basis, line)
                if len(s) == dim and s not in seen:
                    seen.add(s)
                    nxt.append(s)
                    yield fractions(s)
        current = nxt
