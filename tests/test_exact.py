import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpmath import iv

from blgroups.exact import ExactValue, UndecidedComparisonError, exact_max

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


powers = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5000),
        st.one_of(
            st.integers(min_value=-3, max_value=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=12),
        ),
    ),
    max_size=8,
)


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


@given(powers)
def test_from_powers_matches_fractions_and_the_chain(terms):
    v = ExactValue.from_powers(terms)
    L = math.lcm(*(Fraction(e).denominator for _, e in terms))
    assert (v ** L).as_fraction() == fraction_power(terms, L)
    assert v.factors == from_rational_chain(terms).factors


def test_from_powers_examples():
    assert ExactValue.from_powers([]).is_one
    assert ExactValue.from_powers([(12, 1), (6, -1)]).factors == ((2, Fraction(1)),)
    half = Fraction(1, 2)
    assert ExactValue.from_powers([(8, half), (2, half)]).factors == ((2, Fraction(2)),)
    assert ExactValue.from_powers([(0, 0), (3, Fraction(-2, 3))]).factors == (
        (3, Fraction(-2, 3)),)
    for bad in (0, -4, Fraction(3, 2)):
        with pytest.raises(ValueError):
            ExactValue.from_powers([(bad, 1)])


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


def test_compare_restores_interval_precision():
    saved = iv.prec
    try:
        iv.prec = 64
        a = ExactValue.from_rational(2) ** Fraction(1, 2)
        b = ExactValue.from_rational(3) ** Fraction(1, 3)
        assert a.compare(b) == -1  # distinct values: decided by intervals
        assert iv.prec == 64
    finally:
        iv.prec = saved


MPMATH_DEFERRED = """
import sys
from fractions import Fraction

from blgroups import ExactValue, bl_constant, direct_product, make_cyclic_product, make_datum

Z2 = make_cyclic_product([2])
G, pa, pb = direct_product(Z2, Z2)
assert bl_constant(make_datum(G, [pa, pb], ["2", "2"])).value.is_one
assert "mpmath" not in sys.modules
a = ExactValue.from_rational(2) ** Fraction(1, 2)
b = ExactValue.from_rational(3) ** Fraction(1, 3)
assert a.compare(b) == -1
from mpmath import iv
assert iv.prec == 53
"""


def test_mpmath_is_imported_at_the_first_interval_comparison(package_env):
    # A fresh interpreter: this test process has imported mpmath already.
    proc = subprocess.run([sys.executable, "-c", MPMATH_DEFERRED],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr


def test_json_round_trip():
    v = ExactValue.from_rational(Fraction(8, 3)) ** Fraction(-1, 2)
    assert ExactValue.from_json(v.to_json()) == v


def test_undecided_comparison_carries_values_and_bits(monkeypatch):
    monkeypatch.setattr(ExactValue, "_log_interval",
                        lambda self, bits: iv.mpf([-1, 1]))
    a, b = ExactValue.from_rational(2), ExactValue.from_rational(3)
    with pytest.raises(UndecidedComparisonError) as info:
        a.compare(b)
    assert info.value.left == a and info.value.right == b
    assert info.value.bits == 4096
    assert "4096 bits" in str(info.value)
