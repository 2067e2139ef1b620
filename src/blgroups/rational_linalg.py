"""Small exact linear algebra over the rationals.

Subspaces of Q^n are represented by their reduced row echelon basis, which
is a canonical form: two subspaces are equal iff their RREF tuples are.
Everything here is Fraction arithmetic; nothing is approximated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]


def as_matrix(rows: Iterable[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form with zero rows dropped; canonical per subspace."""
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


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows))


def image_basis(M: Iterable[Sequence], vectors: Iterable[Sequence]) -> Matrix:
    """RREF basis of { M v : v in span(vectors) }; vectors are rows."""
    M = as_matrix(M)
    vecs = as_matrix(vectors)
    if not M or not vecs:
        return ()
    images = tuple(
        tuple(sum(m * v for m, v in zip(mrow, vec)) for mrow in M) for vec in vecs
    )
    return rref(images)


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
    """Zassenhaus: RREF [[A|A],[B|0]]; rows with zero left half span A cap B."""
    if not A or not B:
        return ()
    block = [tuple(row) + tuple(row) for row in A]
    zero = (Fraction(0),) * ncols
    block += [tuple(row) + zero for row in B]
    R = rref(block)
    out = [row[ncols:] for row in R if not any(row[:ncols])]
    return rref(out)


def solve_square(A: Iterable[Sequence], b: Sequence) -> Optional[Row]:
    """Unique solution of A x = b, or None if A is singular."""
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
