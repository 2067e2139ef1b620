"""Exact positive reals of the form prod p^(n_p) with rational exponents n_p.

Brascamp-Lieb constants of finite data are rational powers of integers
(masses of subgroups raised to reciprocal exponents), so they live in the
multiplicative group generated by the primes with rational exponents.
Representing them as prime -> exponent maps keeps multiplication, division
and rational powers exact, and makes multiplicativity identities testable
with no floating point at all.

A constant's candidate is a product of powers n^e of small integers n
(subgroup, image and group orders) with rational exponents e, built on
integers in two steps with one implementation each: `_over_lcm` puts
rationals over one denominator L as integer numerators (`lie` uses it
too), and `_from_prime_sums` turns per-prime integer sums over L into a
canonical value.  `ExactValue.from_powers` and `datum._QuotientTable` sum
valuation times numerator per prime, each n factorized once, and end in
the second step; the algebra below serves comparison and tests.

The public constructor and `from_json` check their input: bases prime and
sorted, exponents ints or Fractions and nonzero.  Two values are equal
exactly when their factor tuples are, so a composite base would break the
hash/eq contract.  Primality is decided by Miller-Rabin on the prime bases
up to 41, which is proven for n < 3.3e24 (Sorenson and Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 86, 2017); larger bases
are refused as unsupported.  Values built here (`from_powers`, `one` and
the algebra) are canonical by construction and take `_canonical`, which
skips the check.

Comparing two distinct values is finding the sign of x = sum_p a_p ln p,
with a_p = e_p*L the exponents of their quotient over the lcm L of its
denominators.  x != 0 for a != 0 (unique factorization; Baker, 1966, bounds
|x| below), so escalating precision decides it; a cap surfaces the failure
rather than guess.  `_log_interval` works at P = 3b/10 + 1 digits for b
bits in `decimal` contexts of its own, never the thread's.  `Decimal.ln` is
correctly rounded, so its neighbours bracket ln p; products and sums round
down for the lower end and up for the upper.  With u = 10^(1-P), n primes
and S = sum_p |a_p| ln p, the brackets err by 2uS, the products by uS and
the n - 1 additions by (n - 1)uS, to first order in u, so each end is within
(n + 3)uS of x, and every |x| > (n + 3)uS is decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

_START_BITS = 128
_MAX_BITS = 4096


class UndecidedComparisonError(ArithmeticError):
    """Interval comparison still straddles zero at the precision cap.

    Carries the two values compared and the highest precision tried, in bits.
    """

    def __init__(self, left: "ExactValue", right: "ExactValue", bits: int):
        super().__init__(f"cannot separate {left} from {right} at {bits} bits")
        self.left = left
        self.right = right
        self.bits = bits


def _over_lcm(values) -> tuple[list[int], int]:
    """(X, L) with values[i] = X[i] / L for ints and Fractions, L the lcm of
    their denominators: 1 for ints alone and for no values."""
    L = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (L // v.denominator) for v in values], L


def _factorize(n: int) -> dict[int, int]:
    if not isinstance(n, int) or n <= 0:
        raise ValueError(f"only positive integers factorize here, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin with these bases decides primality for every n below the
# limit, the least strong pseudoprime to all of them (psi_13).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic for 0 <= n < _PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ExactValue:
    """A positive real prod p^e_p, canonically sorted, zero exponents dropped."""

    factors: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        for p, e in self.factors:
            if type(p) is not int or p < 2:
                raise ValueError(f"base {p!r} is not an int >= 2")
            if p >= _PRIME_LIMIT:
                raise ValueError(f"base {p} is unsupported: primality is "
                                 f"proven here only below {_PRIME_LIMIT}")
            if not _is_prime(p):
                raise ValueError(f"base {p} is not prime")
            if isinstance(e, bool) or not isinstance(e, (int, Fraction)):
                raise ValueError(f"exponent {e!r} is not an int or a Fraction")
            if e == 0:
                raise ValueError("zero exponents must be dropped")
        primes = [p for p, _ in self.factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("factors must be sorted by prime and distinct")

    @classmethod
    def _canonical(cls, factors: tuple[tuple[int, Fraction], ...]) -> "ExactValue":
        """A value from factors already canonical, which are not checked
        again: distinct primes in increasing order, nonzero exponents."""
        v = object.__new__(cls)
        object.__setattr__(v, "factors", factors)
        return v

    # -- constructors --------------------------------------------------

    @staticmethod
    def one() -> "ExactValue":
        return ExactValue._canonical(())

    @staticmethod
    def from_rational(q) -> "ExactValue":
        q = Fraction(q)
        if q <= 0:
            raise ValueError(f"ExactValue is positive, got {q}")
        return ExactValue.from_powers([(q.numerator, 1), (q.denominator, -1)])

    @staticmethod
    def from_powers(terms) -> "ExactValue":
        """prod n^e over pairs (n, e) of a positive int n and an int or
        Fraction e (module docstring); a term with e = 0 is skipped."""
        terms = [(n, e) for n, e in terms if e]
        numerators, L = _over_lcm([e for _, e in terms])
        sums: dict[int, int] = {}
        for (n, _), c in zip(terms, numerators):
            for p, k in _factorize(n).items():
                sums[p] = sums.get(p, 0) + k * c
        return ExactValue._from_prime_sums(sums, L)

    @staticmethod
    def _from_prime_sums(sums: dict[int, int], L: int) -> "ExactValue":
        """prod p^(t/L) over the items (p, t) of sums, keyed by distinct primes."""
        return ExactValue._canonical(
            tuple(sorted((p, Fraction(t, L)) for p, t in sums.items() if t)))

    @staticmethod
    def _from_dict(exps: dict[int, Fraction]) -> "ExactValue":
        return ExactValue._canonical(
            tuple(sorted((p, e) for p, e in exps.items() if e != 0)))

    # -- algebra -------------------------------------------------------

    def __mul__(self, other: "ExactValue") -> "ExactValue":
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, Fraction(0)) + e
        return ExactValue._from_dict(exps)

    def __truediv__(self, other: "ExactValue") -> "ExactValue":
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, Fraction(0)) - e
        return ExactValue._from_dict(exps)

    def __pow__(self, exponent) -> "ExactValue":
        r = Fraction(exponent)
        if r == 0:
            return ExactValue.one()
        return ExactValue._canonical(tuple((p, e * r) for p, e in self.factors))

    @property
    def is_one(self) -> bool:
        return not self.factors

    def as_fraction(self):
        """Return the value as a Fraction when all exponents are integers, else None."""
        if any(e.denominator != 1 for _, e in self.factors):
            return None
        out = Fraction(1)
        for p, e in self.factors:
            out *= Fraction(p) ** int(e)
        return out

    def to_float(self) -> float:
        return math.exp(sum(float(e) * math.log(p) for p, e in self.factors))

    # -- order ---------------------------------------------------------

    def _log_interval(self, bits: int) -> tuple[Decimal, Decimal]:
        """Decimals lo <= sum_p a_p*ln(p) <= hi at about `bits` bits, with
        a_p = e_p*L the exponents over the lcm L of their denominators; the
        bound is in the module docstring."""
        numerators, _ = _over_lcm([e for _, e in self.factors])
        prec = bits * 3 // 10 + 1
        down = Context(prec=prec, rounding=ROUND_FLOOR, Emax=MAX_EMAX)
        up = Context(prec=prec, rounding=ROUND_CEILING, Emax=MAX_EMAX)
        lo = hi = Decimal(0)
        for (p, _), a in zip(self.factors, map(Decimal, numerators)):
            ln = Decimal(p).ln(down)  # correctly rounded, whatever the mode
            below, above = ln.next_minus(down), ln.next_plus(down)
            if a < 0:
                below, above = above, below
            lo = down.add(lo, down.multiply(a, below))
            hi = up.add(hi, up.multiply(a, above))
        return lo, hi

    def compare(self, other: "ExactValue") -> int:
        """Return -1, 0 or 1; exact zero only for identical factor maps."""
        if self.factors == other.factors:
            return 0
        diff = self / other
        bits = _START_BITS
        while True:
            lo, hi = diff._log_interval(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if bits >= _MAX_BITS:
                raise UndecidedComparisonError(self, other, bits)
            bits *= 2

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __str__(self):
        if self.is_one:
            return "1"
        return " * ".join(f"{p}^({e})" for p, e in self.factors)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"primes": {str(p): str(e) for p, e in self.factors}}

    @staticmethod
    def from_json(obj: dict) -> "ExactValue":
        """The value of `to_json`'s output; zero exponents are dropped, and
        the factors go through the public constructor's check."""
        factors = sorted((int(p), Fraction(e)) for p, e in obj["primes"].items())
        return ExactValue(tuple((p, e) for p, e in factors if e))


def exact_max(values):
    """Argmax over ExactValues with deterministic first-wins tie handling.

    Returns (index, value, tie) where tie means some other index attains the
    same value exactly.  Equal values have identical canonical factors, so
    ties need no interval arithmetic.
    """
    values = list(values)
    if not values:
        raise ValueError("exact_max of empty sequence")
    best = 0
    for i in range(1, len(values)):
        if values[i].compare(values[best]) > 0:
            best = i
    top = values[best].factors
    tie = any(i != best and v.factors == top for i, v in enumerate(values))
    return best, values[best], tie
