"""Homogeneous-group scaling checks and the Heisenberg divergence witness.

A homogeneous group carries dilations with positive weights; the sum of the
weights is the homogeneous dimension Q, and a finite constant forces the
exact balance Q = sum_j Q_j / p_j.  The Heisenberg group C^n x R is the
model nilpotent case: its commutators are central, and translating a box
along the centre by times that are simultaneously near-multiples of given
step lengths makes the multilinear form blow up.  The witness construction
here is fully symbolic: each translate contributes exactly the box volume,
so the lower bound is a count times an exact rational, with no integration.

Only rational step lengths are supported; then simultaneous multiples exist
exactly (on the grid of common multiples) and every witness re-verifies in
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .datum import Exponent
from .groups import BudgetExceededError


class ScanBudgetError(BudgetExceededError):
    """The witness scan exceeded its grid budget."""


@dataclass(frozen=True)
class DilationStructure:
    """Dilation weights with multiplicity, sorted; Q is their exact sum."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(sorted(Fraction(w) for w in self.weights))
        if any(w <= 0 for w in ws):
            raise ValueError("dilation weights must be positive")
        object.__setattr__(self, "weights", ws)

    def Q(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def scaling_condition(
    Q: Fraction, Qj: Sequence[Fraction], p: Sequence
) -> tuple[bool, Fraction]:
    """defect = sum_j Q_j/p_j - Q; a nonzero defect rules out a finite constant."""
    defect = sum(
        (Exponent.of(pj).reciprocal() * Fraction(qj) for qj, pj in zip(Qj, p)),
        Fraction(0),
    ) - Fraction(Q)
    return defect == 0, defect


@dataclass(frozen=True)
class HeisenbergElement:
    """(z, t) with z a tuple of complex rationals as (re, im) pairs."""

    z: tuple[tuple[Fraction, Fraction], ...]
    t: Fraction

    def __post_init__(self):
        object.__setattr__(
            self,
            "z",
            tuple((Fraction(a), Fraction(b)) for a, b in self.z),
        )
        object.__setattr__(self, "t", Fraction(self.t))

    @property
    def n(self) -> int:
        return len(self.z)

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(tuple((-a, -b) for a, b in self.z), -self.t)


def _symplectic(z, w) -> Fraction:
    """Im(conj(z) . w) for tuples of (re, im) pairs."""
    return sum(
        (a * d - b * c for (a, b), (c, d) in zip(z, w)),
        Fraction(0),
    )


def heisenberg_multiply(
    a: HeisenbergElement, b: HeisenbergElement
) -> HeisenbergElement:
    if a.n != b.n:
        raise ValueError("elements of different Heisenberg groups")
    z = tuple((p + r, q + s) for (p, q), (r, s) in zip(a.z, b.z))
    return HeisenbergElement(z, a.t + b.t + Fraction(1, 2) * _symplectic(a.z, b.z))


def heisenberg_commutator(
    a: HeisenbergElement, b: HeisenbergElement
) -> HeisenbergElement:
    out = heisenberg_multiply(
        heisenberg_multiply(a.inverse(), b.inverse()),
        heisenberg_multiply(a, b),
    )
    # the central formula (0, Im(conj(z_a) . z_b)) must agree with the
    # elementwise computation; this is an internal consistency check
    central = _symplectic(a.z, b.z)
    if any(v for pair in out.z for v in pair) or out.t != central:
        raise ArithmeticError(
            f"commutator {out} disagrees with the central formula (0, {central})"
        )
    return out


@dataclass(frozen=True)
class ApproximationWitness:
    """Times t_m with integers k_{j,m} such that |t_m - alpha_j k_{j,m}| < eps."""

    times: tuple[Fraction, ...]
    integers: tuple[tuple[int, ...], ...]
    eps: Fraction
    spacing: Fraction

    def verify(self, alphas: Sequence[Fraction]) -> bool:
        for t, ks in zip(self.times, self.integers):
            for alpha, k in zip(alphas, ks):
                if abs(t - Fraction(alpha) * k) >= self.eps:
                    return False
        return all(
            b - a >= self.spacing for a, b in zip(self.times, self.times[1:])
        )


def _rational_lcm(values: Sequence[Fraction]) -> Fraction:
    """lcm of positive rationals: lcm of numerators over gcd of denominators."""
    values = [Fraction(v) for v in values]
    return Fraction(math.lcm(*[v.numerator for v in values]),
                    math.gcd(*[v.denominator for v in values]))


def kronecker_sequence(
    alphas: Sequence[Fraction],
    eps: Fraction,
    count: int,
    spacing: Fraction,
    budget: int = 10**8,
) -> ApproximationWitness:
    """Times that are simultaneous near-multiples of every alpha, spaced apart.

    With rational alphas every multiple of their lcm L is an exact common
    multiple, with approximation error zero.  Walking the grid L m from
    m = 1 and keeping each time at least `spacing` past the last one kept
    takes m = 1 + k s, s = max(1, ceil(spacing / L)), so the times are
    written down directly; `budget` caps the grid index the last one needs.
    """
    alphas = [Fraction(a) for a in alphas]
    eps = Fraction(eps)
    spacing = Fraction(spacing)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not alphas or any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive rationals")
    L = _rational_lcm(alphas)
    step = max(1, math.ceil(spacing / L))
    if 1 + (count - 1) * step > budget:
        found = (budget - 1) // step + 1 if budget >= 1 else 0
        raise ScanBudgetError(
            f"scanned {budget} grid points but found only {found} of "
            f"{count} witnesses"
        )
    times = tuple([L * (1 + k * step) for k in range(count)])
    integers = tuple([tuple([int(t / a) for a in alphas]) for t in times])
    return ApproximationWitness(times, integers, eps, spacing)


@dataclass(frozen=True)
class DivergenceWitness:
    terms: int
    lower_bound: Fraction
    box_volume: Fraction
    witness: ApproximationWitness


def divergence_witness(
    n: int,
    alphas: Sequence[Fraction],
    M: Fraction,
    box_halfwidth: Fraction = Fraction(1, 2),
    eps: Fraction = Fraction(1, 10),
    budget: int = 10**8,
) -> DivergenceWitness:
    """Disjoint central translates of a box forcing the form above M.

    The box U has half-width box_halfwidth in each of the 2n+1 coordinates
    of C^n x R.  Translating by (0, t_m)^{-1} shifts only the central
    coordinate, so translates at times spaced by the central diameter of U
    are disjoint and each contributes exactly vol(U) to the form against
    inputs that equal 1 on an eps-thickened copy of U.  The smallest m with
    m * vol(U) > M certifies that no constant below M works.
    """
    M = Fraction(M)
    box_halfwidth = Fraction(box_halfwidth)
    eps = Fraction(eps)
    if M <= 0:
        raise ValueError("M must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0 < eps < box_halfwidth):
        raise ValueError("need 0 < eps < box_halfwidth")
    volume = (2 * box_halfwidth) ** (2 * n + 1)
    terms = int(M / volume) + 1
    witness = kronecker_sequence(
        alphas, eps, terms, spacing=2 * box_halfwidth, budget=budget
    )
    return DivergenceWitness(terms, terms * volume, volume, witness)
