import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blgroups.constant import bl_constant, extremizer
from blgroups.datum import make_datum
from blgroups.exact import ExactValue
from blgroups.groups import (
    HaarMode,
    direct_product,
    identity_map,
    make_cyclic_product,
)
from blgroups.oracle import (
    BudgetError,
    InputTuple,
    NumericError,
    alternating_ascent,
    evaluate_form,
    exhaustive_indicator_search,
    oracle_constant,
    rayleigh,
)

from conftest import corpus_openers

C = HaarMode.COUNTING
P = HaarMode.PROBABILITY


def lw_z2z2(p=("2", "2")):
    Z2 = make_cyclic_product([2])
    G, pa, pb = direct_product(Z2, Z2)
    return make_datum(G, [pa, pb], p)


def hoelder(n=2, p=("1", "1")):
    Zn = make_cyclic_product([n])
    return make_datum(Zn, [identity_map(Zn)] * len(p), p)


def test_form_total_mass():
    d = lw_z2z2()
    ones = InputTuple([[1, 1], [1, 1]])
    assert evaluate_form(d, ones) == 1


def test_form_on_extremizer_is_exact_fraction():
    d = hoelder()
    t = InputTuple([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]])
    assert evaluate_form(d, t) == Fraction(1, 2)


def test_form_zero_input():
    d = hoelder()
    t = InputTuple([[1, 1], [0, 1]])
    assert evaluate_form(d, InputTuple([[0, 0], [1, 1]])) == 0
    assert evaluate_form(d, t) == Fraction(1, 2)


def test_form_dimension_mismatch():
    d = hoelder()
    with pytest.raises(ValueError):
        evaluate_form(d, InputTuple([[1, 1, 1], [1, 1]]))


def test_rayleigh_constants_on_surjective_probability():
    d = lw_z2z2(("3", "3/2"))
    assert rayleigh(d, InputTuple([[1, 1], [1, 1]])) == pytest.approx(1.0)


def test_rayleigh_hoelder_extremizer():
    d = hoelder()
    assert rayleigh(d, InputTuple([[1, 0], [1, 0]])) == pytest.approx(2.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.01, max_value=100))
def test_rayleigh_scale_invariance(a, b):
    d = lw_z2z2(("3/2", "3"))
    base = rayleigh(d, InputTuple([[0.3, 1.1], [0.7, 0.2]]))
    scaled = rayleigh(d, InputTuple([[0.3 * a, 1.1 * a], [0.7 * b, 0.2 * b]]))
    assert abs(scaled - base) <= 1e-14 * max(1.0, base)


def test_rayleigh_rejects_zero_norm():
    d = hoelder()
    with pytest.raises(ValueError):
        rayleigh(d, InputTuple([[0, 0], [1, 1]]))


# -- ascent ---------------------------------------------------------------------


def test_ascent_from_extremizer_converges_immediately():
    for d in (hoelder(), lw_z2z2(), hoelder(3, ("1", "3/2"))):
        exact = bl_constant(d).value.to_float()
        seed = InputTuple([[float(v) for v in f] for f in extremizer(d)])
        value, _, trace = alternating_ascent(d, seed)
        assert value == pytest.approx(exact, rel=1e-12)
        assert trace.values[0] == pytest.approx(exact, rel=1e-12)


def test_iteration_counts_below_their_minimum_are_rejected():
    # zero sweeps would leave no value to return
    d = hoelder()
    with pytest.raises(ValueError, match="max_sweeps"):
        alternating_ascent(d, InputTuple([[1.0, 1.0], [1.0, 1.0]]), max_sweeps=0)
    empty = make_datum(make_cyclic_product([2]), [], [])
    for datum in (d, empty):
        with pytest.raises(ValueError, match="max_sweeps"):
            oracle_constant(datum, max_sweeps=0)
        with pytest.raises(ValueError, match="restarts"):
            oracle_constant(datum, restarts=0)


def test_negative_or_nan_tolerance_is_rejected():
    # such a tol never converges, so every start would run all max_sweeps
    empty = make_datum(make_cyclic_product([2]), [], [])
    for datum in (hoelder(), empty):
        for tol in (-1.0, -1e-12, math.nan):
            with pytest.raises(ValueError, match="tol"):
                oracle_constant(datum, tol=tol)
    assert oracle_constant(hoelder(), tol=0.0) == pytest.approx(2.0)


def test_ascent_hoelder_from_random_init():
    d = hoelder()
    rng = random.Random(11)
    t = InputTuple([[rng.random() + 0.1 for _ in range(2)] for _ in range(2)])
    value, _, trace = alternating_ascent(d, t)
    assert value == pytest.approx(2.0, rel=1e-12)
    assert trace.converged


def test_ascent_lw_from_random_init():
    d = lw_z2z2()
    rng = random.Random(5)
    t = InputTuple([[rng.random() + 0.1 for _ in range(2)] for _ in range(2)])
    value, _, _ = alternating_ascent(d, t)
    assert value == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_ascent_trace_monotone(seed):
    rng = random.Random(seed)
    choices = [
        hoelder(2, ("1", "1")),
        hoelder(3, ("3/2", "2")),
        lw_z2z2(("1", "2")),
        lw_z2z2(("2", "3")),
        hoelder(4, ("1", "inf")),
    ]
    d = rng.choice(choices)
    t = InputTuple(
        [[rng.random() + 0.05 for _ in range(c.order)] for c in d.codomains]
    )
    _, _, trace = alternating_ascent(d, t, max_sweeps=60)
    for a, b in zip(trace.values, trace.values[1:]):
        assert b >= a - 1e-15 * max(1.0, abs(a))


def test_oracle_trivial_group(E1):
    d = make_datum(E1, [identity_map(E1)], ["2"])
    assert oracle_constant(d, restarts=1, seed=0) == pytest.approx(1.0)


def test_oracle_matches_formula():
    for d in (hoelder(), lw_z2z2(), hoelder(3, ("1", "3/2")), lw_z2z2(("1", "inf"))):
        exact = bl_constant(d).value.to_float()
        got = oracle_constant(d, restarts=4, seed=3)
        assert got == pytest.approx(exact, rel=1e-9)


def test_oracle_product_datum():
    from blgroups.datum import split_product

    d = split_product(hoelder(), hoelder())
    assert oracle_constant(d, restarts=4, seed=1) == pytest.approx(4.0, rel=1e-9)


def test_oracle_soundness_never_exceeds_formula():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        p = rng.sample(["1", "3/2", "2", "3", "inf"], 2)
        d = hoelder(n, tuple(p))
        exact = bl_constant(d).value.to_float()
        got = oracle_constant(d, restarts=2, seed=rng.randrange(100))
        assert got <= exact * (1 + 1e-9)


def test_oracle_needs_no_formula(monkeypatch):
    import blgroups.constant
    import blgroups.groups
    from blgroups.datum import split_product

    cases = [hoelder(), hoelder(3, ("1", "3/2")), lw_z2z2(), lw_z2z2(("1", "inf")),
             split_product(hoelder(), hoelder())]
    exact = [bl_constant(d).value.to_float() for d in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use the subgroup formula")

    monkeypatch.setattr(blgroups.constant, "bl_constant", forbidden)
    monkeypatch.setattr(blgroups.groups, "all_subgroups", forbidden)
    for d, value in zip(cases, exact):
        assert oracle_constant(d, restarts=8, seed=20) == pytest.approx(value, rel=1e-9)


def test_oracle_deterministic_given_seed():
    d = lw_z2z2(("3/2", "3"))
    a = oracle_constant(d, restarts=5, seed=42)
    b = oracle_constant(d, restarts=5, seed=42)
    assert a == b


def _reference_ascent(d, init, sweeps, tol=None):
    """Block ascent with every weight, norm and map re-derived from the datum
    on each use: the arithmetic the hoisted ascent must reproduce bit for bit.
    Runs `sweeps` sweeps, or stops earlier at the ascent's convergence test
    when tol is given; returns the sweep values and the final inputs."""
    from blgroups.groups import haar_weight

    def norm(j, f):
        p = d.exponents[j]
        if p.is_infinite:
            return max(abs(v) for v in f)
        w = float(haar_weight(d.codomains[j], d.haar_codomains[j]))
        return sum(w * abs(v) ** float(p.value) for v in f) ** (1.0 / float(p.value))

    def update(funcs, k):
        wk = [0.0] * d.codomains[k].order
        for x in range(d.G.order):
            prod = float(haar_weight(d.G, d.haar_G))
            for j, f in enumerate(funcs):
                if j != k and prod:
                    prod *= f[d.maps[j].map[x]]
            if prod:
                wk[d.maps[k].map[x]] += prod
        p = d.exponents[k]
        if p.is_infinite:
            return [1.0] * len(wk)
        if p.value == 1:
            if max(wk) <= 0.0:
                return [1.0] * len(wk)
            arg = [1.0 if v >= max(wk) else 0.0 for v in wk]
            return [v / sum(arg) for v in arg]
        top = max(wk) or 1.0
        return [(v / top) ** (1.0 / (float(p.value) - 1.0)) for v in wk]

    funcs = [[float(v) / norm(j, f) for v in f] for j, f in enumerate(init.functions)]
    values = []
    for _ in range(sweeps):
        for k in range(d.J):
            funcs[k] = update(funcs, k)
            n = norm(k, funcs[k])
            funcs[k] = [v / n for v in funcs[k]]
        values.append(float(evaluate_form(d, InputTuple(funcs))))
        if tol is not None and len(values) >= 2:
            if values[-1] - values[-2] <= tol * max(abs(values[-1]), 1e-300):
                break
    return values, funcs


def oracle_starts(d, restarts, seed):
    """oracle_constant's starts, in its order, as checked InputTuples."""
    rng = random.Random(seed)
    starts = [[[1.0] * c.order for c in d.codomains],
              [[float(y == c.identity) for y in range(c.order)] for c in d.codomains]]
    for _ in range(restarts):
        starts.append([[0.05 + rng.random() for _ in range(c.order)] for c in d.codomains])
    return [InputTuple(t) for t in starts]


def reference_oracle(d, restarts, seed):
    """oracle_constant's starts, each run to convergence by _reference_ascent."""
    return max(_reference_ascent(d, t, 10_000, tol=1e-12)[0][-1]
               for t in oracle_starts(d, restarts, seed))


def corpus_sample(seed, count, max_order):
    """`count` seeded corpus data with groups of order <= max_order, under
    both Haar modes, whose exponents cover every kind at J = 2 and J = 3."""
    from blgroups import corpus

    rng = random.Random(seed)
    frames = [f for f in corpus.standard_frames() if f.group.order <= max_order]
    kinds = corpus.EXPONENT_CHOICES
    data = []
    for i in range(count):
        # i cycles through the Haar modes, J = 2 and 3, and the first exponent
        J, kind = 2 + i // 2 % 2, kinds[i // 4 % len(kinds)]
        f = rng.choice([f for f in frames if f.J == J])
        p = rng.choice([p for p in corpus.exponent_grid(J) if str(p[0]) == kind])
        data.append(corpus.frame_datum(f, p, (P, C)[i % 2]))
    covered = {(d.J, d.haar_G, str(e)) for d in data for e in d.exponents}
    assert covered == {(J, h, e) for J in (2, 3) for h in (P, C) for e in kinds}
    return data


def test_ascent_matches_reference_bit_for_bit():
    from blgroups.datum import split_product

    rng = random.Random(23)
    cases = [hoelder(3, ("1", "3/2")), lw_z2z2(("3/2", "3")), lw_z2z2(("1", "inf")),
             split_product(hoelder(2, ("2", "3")), hoelder(2, ("2", "3")))]
    cases += corpus_sample(23, 200, 36)
    for d in cases:
        starts = [
            [[1.0] * c.order for c in d.codomains],
            [[float(y == c.identity) for y in range(c.order)] for c in d.codomains],
            [[0.05 + rng.random() for _ in range(c.order)] for c in d.codomains],
        ]
        for t in starts:
            init = InputTuple(t)
            _, out, trace = alternating_ascent(d, init, tol=-1.0, max_sweeps=5)
            assert (trace.values, out.functions) == _reference_ascent(d, init, 5)


def test_oracle_matches_reference_oracle_bit_for_bit():
    for i, d in enumerate(corpus_sample(29, 60, 36)):
        assert oracle_constant(d, restarts=3, seed=i) == reference_oracle(d, 3, i)


def test_lanes_match_one_start_at_a_time():
    # oracle_constant runs its starts in lockstep lanes and drops each lane as
    # it converges; one start at a time must give the same floats
    import blgroups.oracle as oracle
    from blgroups.groups import haar_weight

    staggered = 0
    for d in corpus_sample(43, 40, 36):
        starts = oracle_starts(d, 8, 20)
        runs = [alternating_ascent(d, t) for t in starts]
        assert oracle_constant(d, 8, 20).hex() == max(v for v, _, _ in runs).hex()
        form = oracle._Form(d, float(haar_weight(d.G, d.haar_G)))
        lanes = oracle._ascend(form, [t.functions for t in starts], 1e-12, 10_000)
        assert lanes == [(tr.values, out.functions, tr.converged) for _, out, tr in runs]
        staggered += len({trace.iterations for _, _, trace in runs}) > 1
        for tol in (0.0, 1e-12):
            for sweeps in (1, 2, 3, 10_000):
                expected = max(alternating_ascent(d, t, tol, sweeps)[0] for t in starts)
                assert oracle_constant(d, 8, 20, tol, sweeps).hex() == expected.hex()
    assert staggered >= 10


def test_failed_start_raises_as_one_start_at_a_time_does(monkeypatch):
    # block 1 degenerates in some starts, at different sweeps: the lanes
    # raise the lowest-index start's error, not the first to happen
    import blgroups.oracle as oracle

    power = oracle._Form.maximizer

    def flaky(self, k, sums):
        f, s = power(self, k, sums), self.sizes[k]
        for a in range(0, len(f), s):  # each lane of s entries
            if k == 1 and 0.999 < f[a] < 1.0:
                f[a:a + s] = [0.0] * s
        return f

    monkeypatch.setattr(oracle._Form, "maximizer", flaky)
    overtaken = 0
    for d in corpus_sample(47, 120, 12):
        failures = []
        for i, t in enumerate(oracle_starts(d, 8, 20)):
            try:
                alternating_ascent(d, t)
            except NumericError as err:
                failures.append((int(str(err).rsplit(" ", 1)[1]), i, str(err)))
        if not failures:
            assert oracle_constant(d, 8, 20) > 0
            continue
        with pytest.raises(NumericError) as raised:
            oracle_constant(d, 8, 20)
        assert str(raised.value) == failures[0][2]
        overtaken += min(failures) != failures[0]
    assert overtaken > 0


def test_ascent_checks_the_input_count_and_lengths():
    # flat lanes would let an entry too many or too few spill into the next
    # lane, so a wrong length is refused as the exact routes refuse it
    d = hoelder(2, ("2", "3"))
    cases = [([[1.0, 1.0, 1.0], [1.0, 1.0]], "input 0 has length 3, expected 2"),
             ([[1.0, 1.0], [1.0]], "input 1 has length 1, expected 2"),
             ([[1.0, 1.0]], "expected 2 inputs, got 1"),
             ([[1.0, 1.0]] * 3, "expected 2 inputs, got 3")]
    for functions, message in cases:
        for run in (evaluate_form, rayleigh, alternating_ascent):
            with pytest.raises(ValueError, match=message):
                run(d, InputTuple(functions))


def test_infinite_blocks_sum_no_fibres_and_the_form_is_built_once(monkeypatch):
    import blgroups.oracle as oracle

    class CountedMap(tuple):
        iterations = 0

        def __iter__(self):
            CountedMap.iterations += 1
            return super().__iter__()

    d = hoelder(3, ("2", "inf", "3/2"))
    form = oracle._Form(d, float(Fraction(1, 3)))
    form.maps[1] = CountedMap(form.maps[1])
    init = InputTuple([[0.5, 1.0, 2.0]] * 3)
    [(values, _, converged)] = oracle._ascend(form, [init.functions], -1.0, 7)
    assert len(values) == 7 and not converged
    # the one pass pulls the start back; no sweep reads the inf block's map
    assert CountedMap.iterations == 1
    trace = alternating_ascent(d, init, tol=-1.0, max_sweeps=7)[2]
    assert (trace.values, trace.iterations, trace.converged) == (values, 7, converged)

    built = []

    class CountedForm(oracle._Form):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(oracle, "_Form", CountedForm)
    oracle_constant(d, restarts=4, seed=0)
    assert len(built) == 1


def test_non_finite_inputs_are_rejected():
    # the constructor is the one check, so the form, the quotient and the
    # ascent all reject a non-finite entry before they start
    d = hoelder(2, ("2", "inf"))
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(NumericError, match="input 1"):
            InputTuple([[1.0, 1.0], [bad, 1.0]])
        for run in (evaluate_form, rayleigh, alternating_ascent):
            with pytest.raises(NumericError, match="input 1"):
                run(d, InputTuple([[1.0, 1.0], [bad, 1.0]]))
    # exact ints beyond float range are finite and stay exact
    big = 10**400
    unit = evaluate_form(d, InputTuple([[1, 0], [1, 1]]))
    assert evaluate_form(d, InputTuple([[big, 0], [1, 1]])) == big * unit


# -- exhaustive indicator search ---------------------------------------------------


def test_exhaustive_hoelder():
    value, sets = exhaustive_indicator_search(hoelder())
    assert value.as_fraction() == 2
    assert sets == [(0,), (0,)]


def test_exhaustive_lw():
    value, _ = exhaustive_indicator_search(lw_z2z2())
    assert value.is_one


def test_exhaustive_z3_point_masses():
    value, sets = exhaustive_indicator_search(hoelder(3, ("1", "1")))
    assert value.as_fraction() == 3
    assert all(len(s) == 1 for s in sets)


def test_exhaustive_budget():
    with pytest.raises(BudgetError):
        exhaustive_indicator_search(lw_z2z2(), budget=8)


def test_exhaustive_agrees_with_formula():
    cases = [
        hoelder(2, ("1", "2")),
        hoelder(4, ("3/2", "3")),
        lw_z2z2(("1", "1")),
        lw_z2z2(("2", "inf")),
        make_datum(
            make_cyclic_product([6]),
            [identity_map(make_cyclic_product([6]))] * 2,
            ("1", "3"),
            haar_G=C,
            haar_codomains=[C, C],
        ),
    ]
    for d in cases:
        value, _ = exhaustive_indicator_search(d)
        assert value.compare(bl_constant(d).value) == 0


def from_rational_quotient(d, count, sizes):
    """mass(X) / prod_j mass(Y_j)^(1/p_j) for |X| = count and |Y_j| = sizes[j],
    by the from_rational, ** and / chain that the prime-sum builder replaced."""
    from blgroups.groups import haar_weight

    v = ExactValue.from_rational(count * haar_weight(d.G, d.haar_G))
    for size, c, mode, e in zip(sizes, d.codomains, d.haar_codomains, d.exponents):
        r = e.reciprocal()
        if r:
            v = v / ExactValue.from_rational(size * haar_weight(c, mode)) ** r
    return v


def fraction_quotient_power(d, count, sizes, L):
    """(mass(X) / prod_j mass(Y_j)^(1/p_j))^L in Fraction arithmetic alone,
    for an L that clears the denominators of every 1/p_j."""
    def mass(n, group, mode):
        return Fraction(n, group.order) if mode is P else Fraction(n)

    out = mass(count, d.G, d.haar_G) ** L
    for size, c, mode, e in zip(sizes, d.codomains, d.haar_codomains, d.exponents):
        k = e.reciprocal() * L
        assert k.denominator == 1
        out /= mass(size, c, mode) ** int(k)
    return out


def test_shared_quotient_builder_matches_fraction_arithmetic(monkeypatch):
    # The formula and the search build their exact values with one builder,
    # so their agreement cannot catch a bug in it; Fraction arithmetic does.
    from blgroups.datum import _QuotientTable

    build, calls, current = _QuotientTable.value, [], []

    def recording(self, count, sizes):
        v = build(self, count, sizes)
        calls.append((current[0], count, tuple(sizes), v))
        return v

    # both routes reach the builder through the datum's _QuotientTable
    monkeypatch.setattr(_QuotientTable, "value", recording)
    Z6 = make_cyclic_product([6])
    mixed = [make_datum(Z6, [identity_map(Z6)] * 2, p, haar_G=hg, haar_codomains=hc)
             for p, hg, hc in [(("1", "3"), C, [P, C]), (("3/2", "inf"), P, [C, P]),
                               (("2", "3"), C, [P, P])]]
    for d in mixed + corpus_sample(37, 200, 36):
        current[:] = [d]
        start = len(calls)
        value = bl_constant(d).value
        formula = len(calls) - start
        search_value, _ = exhaustive_indicator_search(d)
        assert 0 < formula < len(calls) - start
        assert value in [v for *_, v in calls[start:start + formula]]
        assert search_value in [v for *_, v in calls[start + formula:]]
    for d, count, sizes, v in calls:
        L = math.lcm(*(e.reciprocal().denominator for e in d.exponents))
        assert (v ** L).as_fraction() == fraction_quotient_power(d, count, sizes, L)
        assert v.factors == from_rational_quotient(d, count, sizes).factors


def test_oracle_validates_only_outside_input(monkeypatch):
    checked = []
    scan = InputTuple.__post_init__

    def counted(self):
        checked.append(self)
        scan(self)

    monkeypatch.setattr(InputTuple, "__post_init__", counted)
    d = lw_z2z2(("3/2", "3"))
    assert oracle_constant(d, restarts=4, seed=1) == reference_oracle(d, 4, 1)
    checked.clear()  # the reference built its own starts through the constructor
    oracle_constant(d, restarts=4, seed=1)
    assert not checked
    init = InputTuple([[1.0, 2.0], [0.5, 0.5]])
    assert checked == [init]
    with pytest.raises(ValueError, match="nonnegative"):
        InputTuple([[-1.0, 1.0], [1.0, 1.0]])
    # the ascent's own output, built unchecked, passes the check
    for d in corpus_sample(41, 40, 36):
        t = InputTuple([[0.05 + i % 3 for i in range(c.order)] for c in d.codomains])
        _, out, _ = alternating_ascent(d, t, max_sweeps=20)
        assert InputTuple(out.functions) == out


def reference_exhaustive_search(d):
    """The indicator search without the cut: every nonzero tuple reaches the
    float prefilter, which keeps those within the margin of the maximum.  It
    ranks by the log-quotient in the datum's own Haar weights, not in
    counting measure as the search does, so it also pins that the weights
    change no ranking."""
    from blgroups.exact import exact_max
    from blgroups.groups import mask_members

    def log_haar_weight(group, mode):
        return -math.log(group.order) if mode is P else 0.0

    subset_masks = []
    for h in d.maps:
        arr = [0] * (2**h.codomain.order)
        for s in range(1, len(arr)):
            low = s & -s
            arr[s] = arr[s ^ low] | h.fibres[low.bit_length() - 1]
        subset_masks.append(arr)
    log_w_G = log_haar_weight(d.G, d.haar_G)
    recips = [p.reciprocal() for p in d.exponents]
    log_w = [log_haar_weight(c, h) for c, h in zip(d.codomains, d.haar_codomains)]
    largest = max([d.G.order, *(c.order for c in d.codomains)])
    margin = max(1e-9, 4 * 2.0**-53 * math.log(largest) * (d.J + 5) ** 2)
    best_log, near = -math.inf, []

    def scan(j, mask, chosen, log_den):
        nonlocal best_log, near
        if j == d.J:
            log_val = math.log(mask.bit_count()) + log_w_G - log_den
            if log_val < best_log - margin:
                return
            if log_val > best_log:
                best_log = log_val
                near = [c for c in near if c[0] >= best_log - margin]
            near.append((log_val, chosen, mask.bit_count()))
            return
        rj = float(recips[j])
        for s in range(1, len(subset_masks[j])):
            m = mask & subset_masks[j][s]
            if m:
                extra = rj * (math.log(s.bit_count()) + log_w[j]) if rj else 0.0
                scan(j + 1, m, chosen + (s,), log_den + extra)

    scan(0, (1 << d.G.order) - 1, (), 0.0)
    finalists = [(c, cnt) for lv, c, cnt in near if lv >= best_log - margin]
    values = [from_rational_quotient(d, count, [s.bit_count() for s in chosen])
              for chosen, count in finalists]
    best, value, _ = exact_max(values)
    return value, [mask_members(s) for s in finalists[best][0]]


def test_cut_keeps_the_unpruned_search_results():
    for d in corpus_openers(P) + corpus_openers(C) + corpus_sample(31, 300, 36):
        value, sets = exhaustive_indicator_search(d)
        expected, expected_sets = reference_exhaustive_search(d)
        assert (value.factors, sets) == (expected.factors, expected_sets)


def test_haar_modes_rank_nothing():
    # a Haar mode multiplies every quotient by w_G prod_j w_j^(-r_j), so in
    # all four combinations of source and codomain mode the formula and the
    # search keep their argmax, and their values change by exactly that factor
    from blgroups.groups import haar_weight

    for base in corpus_openers(C):
        rep, (value, sets) = bl_constant(base), exhaustive_indicator_search(base)
        for haar_G, haar_c in itertools.product((C, P), repeat=2):
            d = base.with_haar(haar_G, [haar_c] * base.J)
            factor = ExactValue.from_rational(haar_weight(d.G, haar_G))
            for c, e in zip(d.codomains, d.exponents):
                factor = factor / ExactValue.from_rational(haar_weight(c, haar_c)) ** e.reciprocal()
            got = bl_constant(d)
            assert got.argmax_subgroup.members == rep.argmax_subgroup.members
            assert got.tie == rep.tie
            assert got.value.factors == (rep.value * factor).factors
            got_value, got_sets = exhaustive_indicator_search(d)
            assert got_sets == sets
            assert got_value.factors == (value * factor).factors


def test_search_matches_reference_on_edge_data(edge_data):
    # the formula's edge data: near-margin exponents, mixed Haar and
    # non-canonical maps, so both references pin the shared prefilter
    for d in edge_data:
        value, sets = exhaustive_indicator_search(d)
        expected, expected_sets = reference_exhaustive_search(d)
        assert (value.factors, sets) == (expected.factors, expected_sets)
