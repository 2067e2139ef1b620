import decimal
import json
import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpmath import iv

from blgroups.exact import (
    ExactValue,
    UndecidedComparisonError,
    _factorize,
    _is_prime,
    _over_lcm,
    exact_max,
)

rationals = st.fractions(
    min_value=Fraction(1, 200), max_value=Fraction(500), max_denominator=200
)


def test_from_rational_examples():
    assert ExactValue.from_rational(1).is_one
    assert ExactValue.from_rational(12).factors == ((2, Fraction(2)), (3, Fraction(1)))
    assert ExactValue.from_rational(Fraction(1, 2)).factors == ((2, Fraction(-1)),)
    with pytest.raises(ValueError):
        ExactValue.from_rational(0)
    with pytest.raises(ValueError):
        ExactValue.from_rational(-3)


def test_as_fraction_round_trip():
    v = ExactValue.from_rational(Fraction(45, 8))
    assert v.as_fraction() == Fraction(45, 8)
    assert (v ** Fraction(1, 2)).as_fraction() is None


@given(rationals, rationals)
def test_multiplication_matches_rationals(a, b):
    lhs = ExactValue.from_rational(a) * ExactValue.from_rational(b)
    assert lhs.as_fraction() == a * b


@given(rationals, rationals)
def test_division_matches_rationals(a, b):
    lhs = ExactValue.from_rational(a) / ExactValue.from_rational(b)
    assert lhs.as_fraction() == a / b


@given(rationals, st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_power_law(a, r):
    v = ExactValue.from_rational(a) ** r
    assert (v ** 2).compare(ExactValue.from_rational(a) ** (2 * r)) == 0


def power_terms(max_denominator):
    return st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5000),
            st.one_of(
                st.integers(min_value=-3, max_value=3),
                st.fractions(min_value=-3, max_value=3,
                             max_denominator=max_denominator),
            ),
        ),
        max_size=8,
    )


# The common denominator of `powers` is far too large for an L-th power in
# Fraction arithmetic; `small_powers` keeps it small enough for that check.
powers = power_terms(1000)
small_powers = power_terms(12)


def from_rational_chain(terms):
    """prod n^e through from_rational, ** and *: the chain from_powers replaced."""
    v = ExactValue.one()
    for n, e in terms:
        v = v * ExactValue.from_rational(n) ** e
    return v


def fraction_power(terms, L):
    """(prod n^e)^L in Fraction arithmetic, for an L that clears every e."""
    out = Fraction(1)
    for n, e in terms:
        k = Fraction(e) * L
        assert k.denominator == 1
        out *= Fraction(n) ** int(k)
    return out


def fraction_valuations(terms):
    """The factors of prod n^e: sum of e * v_p(n) per prime p, in Fraction
    arithmetic, with v_p found by trial division."""
    out = {}
    for n, e in terms:
        p = 2
        while n > 1:
            while n % p == 0:
                out[p] = out.get(p, Fraction(0)) + Fraction(e)
                n //= p
            p += 1
    return tuple(sorted((p, e) for p, e in out.items() if e))


@given(small_powers)
def test_from_powers_matches_fractions_and_the_chain(terms):
    v = ExactValue.from_powers(terms)
    L = math.lcm(*(Fraction(e).denominator for _, e in terms))
    assert (v ** L).as_fraction() == fraction_power(terms, L)
    assert v.factors == from_rational_chain(terms).factors


@given(powers)
def test_from_powers_matches_fraction_valuations(terms):
    v = ExactValue.from_powers(terms)
    assert v.factors == fraction_valuations(terms)
    assert v.factors == from_rational_chain(terms).factors
    assert all(type(e) is Fraction for _, e in v.factors)


@given(st.lists(st.one_of(st.integers(-60, 60),
                          st.fractions(min_value=-60, max_value=60, max_denominator=60))))
def test_over_lcm_matches_fraction_arithmetic(values):
    X, L = _over_lcm(values)
    assert type(L) is int and L >= 1 and all(type(x) is int for x in X)
    assert [Fraction(x, L) for x in X] == [Fraction(v) for v in values]
    # L is the least common denominator: no L / q, for a prime q | L, is one
    # (every prime factor of L divides a denominator, so it is at most 60)
    for q in (q for q in range(2, 61) if _is_prime(q) and L % q == 0):
        assert any((Fraction(v) * (L // q)).denominator != 1 for v in values)


def test_over_lcm_examples():
    assert _over_lcm([]) == ([], 1)
    assert _over_lcm([3, -2, 0]) == ([3, -2, 0], 1)
    assert _over_lcm([Fraction(1, 4), 2, Fraction(-5, 6)]) == ([3, 24, -10], 12)


def test_from_powers_examples():
    assert ExactValue.from_powers([]).is_one
    assert ExactValue.from_powers([(12, 1), (6, -1)]).factors == ((2, Fraction(1)),)
    half = Fraction(1, 2)
    assert ExactValue.from_powers([(8, half), (2, half)]).factors == ((2, Fraction(2)),)
    # a term with exponent 0 is skipped, even one whose base is no positive int
    assert ExactValue.from_powers([(0, 0), (3, Fraction(-2, 3))]).factors == (
        (3, Fraction(-2, 3)),)
    for bad in (0, -4, Fraction(3, 2)):
        with pytest.raises(ValueError):
            ExactValue.from_powers([(bad, 1)])


def test_from_powers_integer_sums():
    F = Fraction
    # denominators 7, 11 and 13: one common denominator L = 1001
    assert ExactValue.from_powers([(6, F(1, 7)), (10, F(3, 11)), (15, F(5, 13))]).factors == (
        (2, F(32, 77)), (3, F(48, 91)), (5, F(94, 143)))
    # the sum for 2 cancels, so 2 is dropped
    assert ExactValue.from_powers([(12, F(1, 3)), (2, F(-2, 3)), (5, 1)]).factors == (
        (3, F(1, 3)), (5, F(1)))
    # int exponents only (L = 1): the exponents are still Fractions
    v = ExactValue.from_powers([(12, 2), (18, -1)])
    assert v.factors == ((2, F(3)),)
    assert type(v.factors[0][1]) is Fraction
    assert ExactValue.from_powers([(6, 1), (3, -1), (2, -1)]).is_one


@given(powers, powers, st.fractions(min_value=-3, max_value=3, max_denominator=30))
def test_library_built_values_pass_the_public_check(a, b, r):
    # every path that skips the constructor's check builds what it accepts
    x, y = ExactValue.from_powers(a), ExactValue.from_powers(b)
    for v in (ExactValue.one(), x, x * y, x / y, x ** r, x ** 0,
              ExactValue.from_rational(Fraction(len(a) + 1, len(b) + 1))):
        checked = ExactValue(v.factors)
        assert checked == v and hash(checked) == hash(v)
        assert ExactValue.from_json(v.to_json()) == v


def test_is_prime_matches_trial_division():
    for n in range(20000):
        assert _is_prime(n) == (n >= 2 and _factorize(n) == {n: 1}), n
    # strong pseudoprimes to the prime bases up to 7, 23 and 37
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(399165290221 * 798330580441)
    assert _is_prime(2**61 - 1) and _is_prime(2**31 - 1)


@pytest.mark.parametrize("factors,message", [
    (((4, 1),), "not prime"),
    (((1, 1),), "not an int"),
    (((0, 1),), "not an int"),
    (((-3, 1),), "not an int"),
    (((True, 1),), "not an int"),
    (((2.0, 1),), "not an int"),
    (((2**89 - 1, 1),), "unsupported"),  # a prime, past the proven range
    (((3825123056546413051, 1),), "not prime"),
    (((2, 0.5),), "not an int or a Fraction"),
    (((2, Fraction(0)),), "zero exponents"),
    (((3, 1), (2, 1)), "sorted"),
    (((2, 1), (2, 1)), "distinct"),
    ((("2", 1), (3, 1)), "not an int"),
])
def test_constructor_rejects_bad_factors(factors, message):
    with pytest.raises(ValueError, match=message):
        ExactValue(factors)


def test_composite_bases_are_rejected_at_both_entry_points():
    # accepting 4^1 would give a second representation of 4 = 2^2, with a
    # different hash and an undecidable comparison
    with pytest.raises(ValueError, match="base 4 is not prime"):
        ExactValue(((4, 1),))
    with pytest.raises(ValueError, match="base 4 is not prime"):
        ExactValue.from_json({"primes": {"4": "1"}})
    with pytest.raises(ValueError, match="distinct"):
        ExactValue.from_json({"primes": {"2": "1", "02": "1"}})
    assert ExactValue(((2, 2),)) == ExactValue.from_rational(4)
    assert ExactValue.from_json({"primes": {"3": "1/2", "2": "0"}}) == (
        ExactValue.from_rational(3) ** Fraction(1, 2))


def test_compare_identical_maps():
    a = ExactValue.from_rational(2) ** Fraction(1, 2)
    b = ExactValue.from_rational(2) ** Fraction(1, 2)
    assert a.compare(b) == 0


def test_compare_two_vs_sqrt_three():
    two = ExactValue.from_rational(2)
    sqrt3 = ExactValue.from_rational(3) ** Fraction(1, 2)
    assert two.compare(sqrt3) == 1
    assert sqrt3 < two


def test_insertion_order_is_canonical():
    a = ExactValue.from_rational(2) ** Fraction(1, 3) * ExactValue.from_rational(3) ** Fraction(1, 2)
    b = ExactValue.from_rational(3) ** Fraction(1, 2) * ExactValue.from_rational(2) ** Fraction(1, 3)
    assert a == b
    assert a.compare(b) == 0


@given(rationals, rationals)
def test_compare_agrees_with_rationals(a, b):
    cmp = ExactValue.from_rational(a).compare(ExactValue.from_rational(b))
    assert cmp == (a > b) - (a < b)


# Bases and exponents small enough for the L-th powers to be Fractions.
tiny_powers = st.lists(
    st.tuples(st.integers(min_value=1, max_value=60),
              st.fractions(min_value=-4, max_value=4, max_denominator=6)),
    max_size=4,
)


@given(tiny_powers, tiny_powers)
def test_compare_agrees_with_fraction_powers(s, t):
    L = math.lcm(*(Fraction(e).denominator for _, e in s + t))
    a, b = fraction_power(s, L), fraction_power(t, L)
    cmp = ExactValue.from_powers(s).compare(ExactValue.from_powers(t))
    assert cmp == (a > b) - (a < b)


def mpmath_sign(v: ExactValue) -> int:
    """The sign of log v by mpmath intervals at 1024 bits."""
    if v.is_one:
        return 0
    saved = iv.prec
    try:
        iv.prec = 1024
        box = iv.mpf(0)
        for p, e in v.factors:
            box += iv.log(p) * e.numerator / iv.mpf(e.denominator)
    finally:
        iv.prec = saved
    assert box.a > 0 or box.b < 0
    return 1 if box.a > 0 else -1


@given(powers, powers)
def test_compare_agrees_with_mpmath(s, t):
    a, b = ExactValue.from_powers(s), ExactValue.from_powers(t)
    assert a.compare(b) == mpmath_sign(a / b)


# h/k are convergents of log2(3), so 2^h / 3^k is within about 1/k of 1
# and its sign is undecided at the first precision.
@pytest.mark.parametrize("h,k,bits", [
    (36143248623210700400, 22803850947114245497, 256),
    (140690488826696872097589025558558402300,
     88765815445275743487588285864370556199, 512),
], ids=["256-bits", "512-bits"])
def test_compare_escalates_on_near_ties(monkeypatch, h, k, bits):
    v = ExactValue.from_powers([(2, h), (3, -k)])
    tried = []
    log_interval = ExactValue._log_interval

    def recording(self, b):
        tried.append(b)
        return log_interval(self, b)

    monkeypatch.setattr(ExactValue, "_log_interval", recording)
    assert v.compare(ExactValue.one()) == mpmath_sign(v)
    assert tried[-1] == bits and tried[0] == 128


def test_close_values_separate():
    # 2^1000001 vs 2^1000000 * 2: equal; and a genuinely tiny gap
    a = ExactValue.from_rational(2) ** Fraction(10**12 + 1, 10**12)
    b = ExactValue.from_rational(2)
    assert a.compare(b) == 1


def test_exact_max_reports_ties():
    vals = [
        ExactValue.from_rational(2),
        ExactValue.from_rational(4) ** Fraction(1, 2),
        ExactValue.from_rational(3),
    ]
    idx, best, tie = exact_max(vals)
    assert idx == 2 and best.as_fraction() == 3 and not tie
    idx, best, tie = exact_max(vals[:2])
    assert idx == 0 and tie


def _exact_max_by_compare(values):
    """exact_max with ties decided by compare, as before the factor check."""
    best = 0
    for i in range(1, len(values)):
        if values[i].compare(values[best]) > 0:
            best = i
    tie = any(
        i != best and values[i].compare(values[best]) == 0 for i in range(len(values))
    )
    return best, values[best], tie


def test_exact_max_tie_check_matches_compare():
    two = ExactValue.from_rational(2)
    root3 = ExactValue.from_rational(3) ** Fraction(1, 2)
    cases = [
        [two],  # single element
        [root3, two, ExactValue.from_rational(Fraction(3, 2))],  # untied
        [ExactValue.from_rational(4) ** Fraction(1, 2), root3, two],  # tied at the top
        [two, root3, ExactValue.from_rational(9) ** Fraction(1, 4), two],  # two ties
        [root3, ExactValue.from_rational(3) ** Fraction(1, 2), two],  # tie below the top
    ]
    for values in cases:
        assert exact_max(values) == _exact_max_by_compare(values)


def test_compare_leaves_the_decimal_context_unchanged():
    a = ExactValue.from_rational(2) ** Fraction(1, 2)
    b = ExactValue.from_rational(3) ** Fraction(1, 3)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 3, decimal.ROUND_UP
        saved = str(ctx)
        assert a.compare(b) == -1  # distinct values: decided by intervals
        assert decimal.getcontext() is ctx and str(ctx) == saved


STDLIB_ONLY = """
import sys
sys.modules["mpmath"] = None  # importing mpmath now raises ImportError
from fractions import Fraction

from blgroups import ExactValue, bl_constant, direct_product, make_cyclic_product, make_datum
from blgroups.cli import main

Z2 = make_cyclic_product([2])
G, pa, pb = direct_product(Z2, Z2)
assert bl_constant(make_datum(G, [pa, pb], ["2", "2"])).value.is_one
a = ExactValue.from_rational(2) ** Fraction(1, 2)
b = ExactValue.from_rational(3) ** Fraction(1, 3)
assert a.compare(b) == -1
assert main(["verify", "--in", sys.argv[1], "--no-cache"]) == 0
"""

# Loomis-Whitney on Z2 x Z2 at 1/p_1 = 1 - 1e-10: the axis {0} x Z2 scores
# 2^(-1e-10), within the float margin of the whole group's 1, so the formula
# compares the two exactly.
NEAR_TIE = {
    "group": {"cyclic": [2, 2]},
    "codomains": [{"cyclic": [2]}, {"cyclic": [2]}],
    "maps": [[0, 0, 1, 1], [0, 1, 0, 1]],
    "p": ["10000000000/9999999999", "2"],
}


def test_runtime_needs_only_the_standard_library(package_env, tmp_path):
    # A fresh interpreter, in which mpmath cannot be imported.
    path = tmp_path / "near_tie.json"
    path.write_text(json.dumps(NEAR_TIE))
    proc = subprocess.run([sys.executable, "-c", STDLIB_ONLY, str(path)],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["all_agree"] is True


def test_json_round_trip():
    v = ExactValue.from_rational(Fraction(8, 3)) ** Fraction(-1, 2)
    assert ExactValue.from_json(v.to_json()) == v


def test_undecided_comparison_carries_values_and_bits(monkeypatch):
    monkeypatch.setattr(ExactValue, "_log_interval",
                        lambda self, bits: (Decimal(-1), Decimal(1)))
    a, b = ExactValue.from_rational(2), ExactValue.from_rational(3)
    with pytest.raises(UndecidedComparisonError) as info:
        a.compare(b)
    assert info.value.left == a and info.value.right == b
    assert info.value.bits == 4096
    assert "4096 bits" in str(info.value)
