import itertools
import random
from fractions import Fraction

import pytest

from blgroups import constant, corpus, groups
from blgroups.constant import _kernel_lattice, bl_constant, extremizer, ratio, saturate
from blgroups.datum import Exponent, _QuotientTable, canonical_tag, canonicalize, make_datum
from blgroups.exact import ExactValue, exact_max
from blgroups.groups import (
    HaarMode,
    Homomorphism,
    Subgroup,
    all_subgroups,
    direct_product,
    from_permutations,
    haar_weight,
    identity_map,
    make_cyclic_product,
    normality_witness,
)
from blgroups.oracle import InputTuple, evaluate_form

from conftest import assert_validated, corpus_openers, quotient_data

C = HaarMode.COUNTING
P = HaarMode.PROBABILITY


def lw_z2z2(p=("2", "2")):
    Z2 = make_cyclic_product([2])
    G, pa, pb = direct_product(Z2, Z2)
    return make_datum(G, [pa, pb], p)


def hoelder_z2(p=("1", "1")):
    Z2 = make_cyclic_product([2])
    return make_datum(Z2, [identity_map(Z2)] * len(p), p)


# -- ratio ---------------------------------------------------------------------


def test_ratio_hoelder_trivial_subgroup():
    d = hoelder_z2()
    v = ratio(d, Subgroup(d.G, (d.G.identity,)))
    assert v.as_fraction() == 2


def test_ratio_whole_group_probability_surjective():
    d = lw_z2z2(("3", "3/2"))
    assert ratio(d, Subgroup(d.G, tuple(range(d.G.order)))).is_one


def test_ratio_axis_subgroup_is_inverse_sqrt_two():
    d = lw_z2z2()
    axis = Subgroup(d.G, (0, 1))  # {0} x Z2: kernel of the first projection
    expected = ExactValue.from_rational(2) ** Fraction(-1, 2)
    assert ratio(d, axis).compare(expected) == 0


def test_ratio_with_infinite_exponent_drops_term():
    d = lw_z2z2(("2", "inf"))
    axis = Subgroup(d.G, (0, 1))
    # only the first factor contributes: (1/2) / (1/2)^(1/2)
    expected = ExactValue.from_rational(Fraction(1, 2)) ** Fraction(1, 2)
    assert ratio(d, axis).compare(expected) == 0


# -- saturation ------------------------------------------------------------------


def test_saturate_fixed_point():
    d = lw_z2z2()
    axis = Subgroup(d.G, (0, 1))
    assert saturate(d, axis).members == axis.members


def test_saturate_diagonal_fills_group():
    d = lw_z2z2()
    diag = Subgroup(d.G, (0, 3))
    assert saturate(d, diag).members == (0, 1, 2, 3)


def test_saturate_trivial_with_injective_joint_map():
    d = lw_z2z2()
    assert saturate(d, Subgroup(d.G, (d.G.identity,))).members == (d.G.identity,)


def test_saturate_rejects_foreign_subgroup():
    d = lw_z2z2()
    other = make_cyclic_product([4])
    with pytest.raises(ValueError, match="source group"):
        saturate(d, Subgroup(other, (other.identity,)))
    with pytest.raises(ValueError, match="source group"):
        bl_constant(d, subgroups=[Subgroup(other, (other.identity,))])
    with pytest.raises(ValueError, match="source group"):
        ratio(d, Subgroup(other, (other.identity,)))


def test_saturation_never_lowers_ratio():
    d = lw_z2z2(("3/2", "3"))
    for H in all_subgroups(d.G):
        S = saturate(d, H)
        assert ratio(d, S).compare(ratio(d, H)) >= 0


# -- the constant ------------------------------------------------------------------


def test_constant_lw_z2z2():
    rep = bl_constant(lw_z2z2(), include_candidates=True)
    assert rep.value.is_one
    assert rep.argmax_subgroup.members == (0, 1, 2, 3)
    values = sorted(v.to_float() for _, v in rep.all_candidates)
    expected = sorted([1.0, 2 ** -0.5, 2 ** -0.5, 0.5, 0.5])
    assert values == pytest.approx(expected)
    assert not rep.tie


def test_constant_hoelder_z2():
    rep = bl_constant(hoelder_z2())
    assert rep.value.as_fraction() == 2
    assert rep.argmax_subgroup.members == (0,)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [("2", "2"), ("3", "3/2"), ("2", "inf"), ("3", "3")])
def test_hoelder_regime_gives_one(n, p):
    # identity maps with sum of reciprocals <= 1
    assert sum(Exponent.of(x).reciprocal() for x in p) <= 1
    Zn = make_cyclic_product([n])
    d = make_datum(Zn, [identity_map(Zn)] * 2, p)
    assert bl_constant(d).value.is_one


def test_constant_maximizes_over_every_subgroup():
    d = lw_z2z2(("1", "3"))
    rep = bl_constant(d)
    for H in all_subgroups(d.G):
        assert rep.value.compare(ratio(d, H)) >= 0


def test_saturation_scan_equals_full_scan():
    datasets = [
        lw_z2z2(("1", "1")),
        lw_z2z2(("3/2", "3")),
        hoelder_z2(("1", "3/2")),
    ]
    Z12 = make_cyclic_product([12])
    datasets.append(make_datum(Z12, [identity_map(Z12)] * 2, ("1", "2")))
    for d in datasets:
        rep = bl_constant(d)
        full_max = max(
            (ratio(d, H) for H in all_subgroups(d.G)),
            key=lambda v: v.to_float(),
        )
        assert rep.value.compare(full_max) == 0


def test_exponent_monotonicity_probability():
    # raising exponents can only lower the constant under probability Haar
    grid = ["1", "3/2", "2", "3", "inf"]
    d_small = None
    for pa, pb in itertools.combinations_with_replacement(grid, 2):
        d1 = lw_z2z2((pa, pb))
        for qa, qb in itertools.combinations_with_replacement(grid, 2):
            if grid.index(qa) >= grid.index(pa) and grid.index(qb) >= grid.index(pb):
                d2 = lw_z2z2((qa, qb))
                assert bl_constant(d2).value.compare(bl_constant(d1).value) <= 0


def test_non_canonical_datum_reports_tag(edge_data):
    Z4 = make_cyclic_product([4])
    dbl = Homomorphism(Z4, Z4, (0, 2, 0, 2))
    d = make_datum(Z4, [dbl], [2])
    rep = bl_constant(d)
    assert rep.canonicalization is not None
    assert not rep.canonicalization.is_canonical
    # BL(d) = 2^(1/2) BL(canonical): the image {0, 2} has index 2 in Z4
    assert rep.canonicalization.constant_factor == ExactValue.from_rational(2) ** Fraction(1, 2)
    # the factor relates the two constants exactly, under every Haar pair
    non_canonical = [d for d in edge_data if not canonical_tag(d).is_canonical]
    assert len(non_canonical) == 2
    for d, (haar_G, haar) in itertools.product(non_canonical, itertools.product((C, P), repeat=2)):
        d = d.with_haar(haar_G, (haar,) * d.J)
        out, tag = canonicalize(d)
        rep = bl_constant(d)
        assert rep.canonicalization == tag
        assert tag.constant_factor * bl_constant(out).value == rep.value


def test_tie_reporting():
    # two identity maps at p = (2, 2) on Z2: {e} and G both give 1
    d = hoelder_z2(("2", "2"))
    rep = bl_constant(d)
    assert rep.value.is_one
    assert rep.tie
    assert rep.argmax_subgroup.members == (0,)  # smaller order wins


# -- the prefiltered scan against the unfiltered one ------------------------------


def reference_bl_constant(d, subgroups=None):
    """The unfiltered scan, kept as the test oracle.

    Saturates every subgroup member by member, takes the exact ratio of every
    distinct candidate in (order, members) order and the exact argmax over all
    of them.  Returns (value, argmax members, tie, canonicalization).
    """
    if subgroups is None:
        subgroups = all_subgroups(d.G)
    candidates = set()
    for H in subgroups:
        images = [{h.map[x] for x in H.members} for h in d.maps]
        candidates.add(tuple(
            x for x in range(d.G.order)
            if all(h.map[x] in img for h, img in zip(d.maps, images))
        ))
    ordered = sorted(candidates, key=lambda m: (len(m), m))
    best, value, tie = exact_max([ratio(d, Subgroup(d.G, m)) for m in ordered])
    _, tag = canonicalize(d)
    return value, ordered[best], tie, None if tag.is_canonical else tag


def _report_key(rep):
    return rep.value, rep.argmax_subgroup.members, rep.tie, rep.canonicalization


def test_scan_matches_reference_on_corpus_slice():
    frames = random.Random(5).sample(corpus.standard_frames(), 5)
    for f in frames:
        subs = all_subgroups(f.group)
        for p in corpus.exponent_grid(f.J):
            d = corpus.frame_datum(f, p)
            assert _report_key(bl_constant(d, subgroups=subs)) == reference_bl_constant(d, subs)


def test_scan_matches_reference_on_edge_data(edge_data):
    for d in edge_data:
        assert _report_key(bl_constant(d)) == reference_bl_constant(d)


def test_constant_builds_one_exact_value_per_key(monkeypatch):
    # over the whole lattice, six near-maximal candidates share four (order,
    # image orders) keys; three of them tie at (2, (2, 2))
    from blgroups.datum import _QuotientTable

    frame, = [f for f in corpus.standard_frames() if f.name == "Z2xS3#s14o6"]
    d = corpus.frame_datum(frame, ("inf", "1"), P)
    subs = all_subgroups(d.G)
    expected = bl_constant(d, subgroups=subs)
    build, calls = _QuotientTable.value, []

    def recording(self, count, sizes):
        calls.append((count, tuple(sizes)))
        return build(self, count, sizes)

    monkeypatch.setattr(_QuotientTable, "value", recording)
    assert bl_constant(d, subgroups=subs) == expected and expected.tie
    assert sorted(calls) == [(1, (1, 1)), (2, (2, 2)), (3, (1, 3)), (6, (2, 6))]


def _coordinate_projection(G, coords):
    """Z2^n -> Z2^len(coords), keeping the listed coordinates (0 = leftmost)."""
    n = G.order.bit_length() - 1
    target = make_cyclic_product([2] * len(coords))
    images = []
    for x in range(G.order):
        y = 0
        for c in coords:
            y = 2 * y + (x >> (n - 1 - c) & 1)
        images.append(y)
    return Homomorphism(G, target, tuple(images))


def test_scan_matches_reference_on_z2_6():
    G = make_cyclic_product([2] * 6)
    maps = [_coordinate_projection(G, c) for c in ((0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 3, 5))]
    d = make_datum(G, maps, ("3/2", "2", "3", "4/3"))
    subs = all_subgroups(G)
    assert len(subs) == 2825
    assert _report_key(bl_constant(d, subgroups=subs)) == reference_bl_constant(d, subs)


def _corpus_slice_data():
    """Every 7th exponent tuple of five seeded corpus frames."""
    frames = random.Random(5).sample(corpus.standard_frames(), 5)
    return [corpus.frame_datum(f, p) for f in frames for p in corpus.exponent_grid(f.J)[::7]]


def _z2_6_datum():
    G = make_cyclic_product([2] * 6)
    maps = [_coordinate_projection(G, c) for c in ((0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 3, 5))]
    return make_datum(G, maps, ("3/2", "2", "3", "4/3"))


def test_saturations_and_argmaxes_equal_their_validated_copies(edge_data):
    for d in _corpus_slice_data() + edge_data:
        subs = all_subgroups(d.G)
        for H in subs:
            S = saturate(d, H)
            assert_validated(S)
            images = [{h.map[x] for x in H.members} for h in d.maps]
            assert S.members == tuple(x for x in range(d.G.order) if all(
                h.map[x] in img for h, img in zip(d.maps, images)))
        assert_validated(bl_constant(d, subgroups=subs).argmax_subgroup)


def test_candidates_are_ratios_from_one_table(monkeypatch):
    init, built = _QuotientTable.__init__, []

    def counting(self, d):
        built.append(d)
        init(self, d)

    for d in _corpus_slice_data() + [_z2_6_datum()]:
        subs = all_subgroups(d.G)
        expected = [ratio(d, H) for H in subs]
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_QuotientTable, "__init__", counting)
            rep = bl_constant(d, subgroups=subs, include_candidates=True)
        assert built == [d]
        assert [H for H, _ in rep.all_candidates] == subs
        assert [v for _, v in rep.all_candidates] == expected


def reference_ratio(d, H):
    """mass(H) / prod_j mass(sigma_j(H))^(1/p_j) from Haar weights, with the
    image orders counted on `image_mask`."""
    value = ExactValue.from_rational(haar_weight(d.G, d.haar_G) * H.order)
    for h, mode, e in zip(d.maps, d.haar_codomains, d.exponents):
        mass = haar_weight(h.codomain, mode) * h.image_mask(H.mask).bit_count()
        value = value / ExactValue.from_rational(mass) ** e.reciprocal()
    return value


def test_ratios_match_image_mask_counts(edge_data):
    # ratio and the candidate list read the image orders off the saturation
    # pass; both Haar modes throughout, and edge_data's mixed ones
    data = edge_data + [base.with_haar(mode, [mode] * base.J)
                        for base in corpus_openers(P) + edge_data for mode in (C, P)]
    for d in data:
        subs = all_subgroups(d.G)
        expected = [reference_ratio(d, H) for H in subs]
        assert [ratio(d, H) for H in subs] == expected
        rep = bl_constant(d, subgroups=subs, include_candidates=True)
        assert [v for _, v in rep.all_candidates] == expected


# -- the kernel lattice against the full scan --------------------------------------


def _f2_linear_data(digests, rank, count, seed):
    """Seeded data on Z2^rank whose maps are random F2-linear maps onto Z2^k."""
    rng = random.Random(seed)
    G = make_cyclic_product([2] * rank)
    for _ in range(count):
        J = rng.randint(2, 4)
        maps = [digests._f2_map(G, rng) for _ in range(J)]
        yield make_datum(G, maps, [rng.choice(digests.EXPONENTS) for _ in range(J)])


def _frame_datum(digests, p):
    maps = digests.frame_maps(make_cyclic_product([2] * (len(p) - 1)))
    return make_datum(maps[0].domain, maps, p)


def _small_groups():
    Z2 = make_cyclic_product([2])
    S3 = from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    D4 = from_permutations(4, [(1, 2, 3, 0), (0, 3, 2, 1)])
    return {"S4": from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)]), "D4": D4,
            "A4": from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
            "S3xS3": direct_product(S3, S3)[0], "D4xZ2": direct_product(D4, Z2)[0]}


def test_kernel_lattice_matches_reference_on_quotient_data(digests):
    for seed, (name, G) in enumerate(_small_groups().items()):
        for d in quotient_data(digests, G, 40, seed):
            assert _report_key(bl_constant(d)) == reference_bl_constant(d), name


def test_kernel_lattice_matches_reference_on_f2_linear_data(digests):
    for rank, count in ((5, 12), (6, 3)):
        for d in _f2_linear_data(digests, rank, count, rank):
            assert _report_key(bl_constant(d)) == reference_bl_constant(d)


def test_kernel_lattice_is_the_closure_of_the_kernels(digests, edge_data):
    S4_data = list(quotient_data(digests, _small_groups()["S4"], 5, 0))
    # on Z2^3 the coordinate lines and the diagonal close to all 16 subgroups
    frame = _frame_datum(digests, ("3/2",) * 4)
    assert len(_kernel_lattice(frame)) == len(all_subgroups(frame.G)) == 16
    for d in _corpus_slice_data() + edge_data + S4_data + [frame]:
        G, table = d.G, d.G.table
        lattice = _kernel_lattice(d)
        masks = {H.mask for H in lattice}
        assert len(masks) == len(lattice)
        assert {1 << G.identity, (1 << G.order) - 1} <= masks
        assert {h.fibres[h.codomain.identity] for h in d.maps} <= masks
        for H in lattice:
            assert_validated(H)
            assert normality_witness(G, H) is None
        for A, B in itertools.combinations(lattice, 2):
            product = {table[a][b] for a in A.members for b in B.members}
            assert sum(1 << x for x in product) in masks
            assert A.mask & B.mask in masks
        assert_validated(bl_constant(d).argmax_subgroup)


def test_kernel_lattice_past_its_bound_falls_back_to_the_listing(digests, monkeypatch):
    # the frame's L is every subgroup, 67 on Z2^4 and 2825 on Z2^6, past
    # 2|G|; the maximizers have order 2 (tied), 8 and 16
    data = [_frame_datum(digests, p) for p in (("4", "4", "3", "inf", "2"),
                                               ("4", "inf", "inf", "5", "3/2"),
                                               digests.FRAME_EXPONENTS[0])]
    products = []
    closure = constant._semi_naive_closure

    def counting(seeds, combine, **kwargs):
        def counted(a, b):
            products.append(a)
            return combine(a, b)
        return closure(seeds, counted, **kwargs)

    monkeypatch.setattr(constant, "_semi_naive_closure", counting)
    for d in data:
        assert _report_key(bl_constant(d)) == reference_bl_constant(d)
        products.clear()
        assert _kernel_lattice(d) is None
        # the round that passes 2|G| members starts with at most 2|G|
        assert len(products) <= (2 * d.G.order) ** 2 // 2


def test_constant_lists_no_subgroups(monkeypatch, edge_data):
    data = _corpus_slice_data() + edge_data + [_z2_6_datum()]
    listed = [bl_constant(d, subgroups=all_subgroups(d.G)) for d in data]

    def refuse(*args, **kwargs):
        raise AssertionError("the subgroup lattice was listed")

    monkeypatch.setattr(groups, "all_subgroups", refuse)
    monkeypatch.setattr(constant, "all_subgroups", refuse)
    assert [_report_key(bl_constant(d)) for d in data] == list(map(_report_key, listed))
    with pytest.raises(AssertionError, match="listed"):
        bl_constant(data[0], include_candidates=True)


def test_constant_runs_no_interval_comparison(monkeypatch):
    data = [lw_z2z2(), hoelder_z2(), hoelder_z2(("2", "2"))]
    expected = [bl_constant(d) for d in data]
    assert expected[2].tie

    def refuse(self, bits):
        raise AssertionError("interval comparison")

    monkeypatch.setattr(ExactValue, "_log_interval", refuse)
    assert [bl_constant(d) for d in data] == expected


# -- extremizers --------------------------------------------------------------------


def test_extremizer_hoelder_is_point_mass():
    d = hoelder_z2()
    funcs = extremizer(d)
    assert funcs == [[1, 0], [1, 0]]


def test_extremizer_lw_is_constant_one():
    d = lw_z2z2()
    funcs = extremizer(d)
    assert funcs == [[1, 1], [1, 1]]


@pytest.mark.parametrize(
    "factory,p",
    [
        (lw_z2z2, ("2", "2")),
        (lw_z2z2, ("1", "3/2")),
        (hoelder_z2, ("1", "1")),
        (hoelder_z2, ("3", "inf")),
    ],
)
def test_extremizer_attains_the_constant_exactly(factory, p):
    d = factory(p)
    rep = bl_constant(d)
    funcs = extremizer(d, rep)
    form = evaluate_form(d, InputTuple(funcs))
    # value * prod_j ||f_j||_{p_j}, all in exact arithmetic
    rhs = rep.value
    for j, f in enumerate(funcs):
        r = d.exponents[j].reciprocal()
        if r == 0:
            continue
        mass = sum(f) * Fraction(1, d.codomains[j].order)
        rhs = rhs * ExactValue.from_rational(mass) ** r
    assert ExactValue.from_rational(form).compare(rhs) == 0


def test_corpus_survey_script_runs(package_env):
    import subprocess
    import sys
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "corpus_survey.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--max-triple-order", "8",
         "--max-group-order", "8", "--oracle-fraction", "0.01"],
        capture_output=True, text=True, env=package_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "worst sampled oracle deviation" in proc.stdout
