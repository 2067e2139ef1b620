import random
from fractions import Fraction

import pytest

from blgroups.constant import bl_constant
from blgroups.corpus import Frame, exponent_grid, frame_datum, standard_frames
from blgroups.datum import (
    INF,
    BLDatum,
    Exponent,
    IndexRangeError,
    NormalizationError,
    NotCanonicalError,
    WrongExponentError,
    canonical_tag,
    canonicalize,
    drop_infinite_exponent,
    joint_kernel,
    make_datum,
    quotient_split,
    reduce_p1,
    split_product,
)
from blgroups.exact import ExactValue
from blgroups.groups import (
    GroupStructureError,
    HaarMode,
    Homomorphism,
    SizeCapError,
    Subgroup,
    all_subgroups,
    direct_product,
    from_permutations,
    identity_map,
    make_cyclic_product,
    normality_witness,
)

from conftest import assert_validated, element_order, quotient_data

C = HaarMode.COUNTING
P = HaarMode.PROBABILITY


def hoelder(G, J=2, p=("1", "1"), haar=P):
    return make_datum(G, [identity_map(G)] * J, p, haar_G=haar, haar_codomains=[haar] * J)


def lw_datum(p=("2", "2"), haar=P):
    Z2 = make_cyclic_product([2])
    G, pa, pb = direct_product(Z2, Z2)
    return make_datum(G, [pa, pb], p, haar_G=haar, haar_codomains=[haar] * 2)


# -- exponents ---------------------------------------------------------------


def test_exponent_parsing():
    assert Exponent.of("3/2").value == Fraction(3, 2)
    assert Exponent.of("inf").is_infinite
    assert Exponent.of(2).reciprocal() == Fraction(1, 2)
    assert INF.reciprocal() == 0
    assert str(Exponent.of("3/2")) == "3/2"


def test_exponent_below_one_rejected():
    with pytest.raises(ValueError):
        Exponent.of("1/2")


def test_exponent_of_none_and_float_infinities():
    assert Exponent.of(None) is INF
    assert Exponent.of(float("inf")) is INF
    with pytest.raises(ValueError) as exc:
        Exponent.of(float("-inf"))
    assert str(exc.value) == "exponent must be >= 1, got -inf"


# -- datum validation --------------------------------------------------------


def test_datum_validation(Z2, Z4):
    with pytest.raises(GroupStructureError):
        BLDatum(
            Z4,
            (identity_map(Z2),),  # wrong domain
            (Exponent.of(2),),
        )
    d = hoelder(Z2)
    assert d.J == 2 and not d.mixed_haar()


def test_an_empty_haar_list_is_refused_when_there_are_maps(Z2):
    h = identity_map(Z2)
    message = ("maps, exponents and codomain Haar modes must have equal length, "
               "got 1 maps, 1 exponents and 0 codomain Haar modes")
    with pytest.raises(GroupStructureError) as info:
        make_datum(Z2, [h], ["2"], haar_codomains=[])
    assert str(info.value) == message
    with pytest.raises(GroupStructureError) as info:
        make_datum(Z2, [h], ["2"]).with_haar(C, [])
    assert str(info.value) == message
    # with no maps, an empty list is the only list
    empty = make_datum(Z2, [], [], haar_codomains=[])
    assert empty == make_datum(Z2, [], [])
    assert empty.with_haar(C, []) == make_datum(Z2, [], [], haar_G=C)


def test_frame_data_equal_their_validated_copies():
    # `frame_datum` checks no map of a frame; the validating constructor
    # builds the same datum, down to its hash, repr and attribute order
    for frame in standard_frames():
        p = exponent_grid(frame.J)[0]
        for haar in (P, C):
            d = frame_datum(frame, p, haar)
            checked = make_datum(frame.group, frame.maps, p, haar, [haar] * frame.J)
            assert d == checked and hash(d) == hash(checked) and repr(d) == repr(checked)
            assert d.codomains == checked.codomains
            assert list(vars(d)) == list(vars(checked))


def test_frames_check_their_maps_and_frame_data_their_exponents(Z2, Z4):
    with pytest.raises(GroupStructureError, match="map 1 has the wrong domain"):
        Frame("Z4", Z4, (identity_map(Z4), identity_map(Z2)))
    frame = Frame("Z4 twice", Z4, [identity_map(Z4)] * 2)
    assert frame.maps == (identity_map(Z4),) * 2
    with pytest.raises(GroupStructureError) as info:
        frame_datum(frame, ["2"])
    assert str(info.value) == ("maps, exponents and codomain Haar modes must have equal "
                               "length, got 2 maps, 1 exponents and 2 codomain Haar modes")
    with pytest.raises(ValueError, match=r"exponent must be >= 1, got 1/2"):
        frame_datum(frame, ["2", "1/2"])
    assert frame_datum(frame, [2, "inf"]).exponents == (Exponent.of(2), INF)


def test_empty_datum_allowed(Z2):
    d = make_datum(Z2, [], [])
    assert d.J == 0
    assert bl_constant(d).value.is_one  # total probability mass
    dc = make_datum(Z2, [], [], haar_G=C)
    assert bl_constant(dc).value.as_fraction() == 2  # total counting mass


# -- canonical structure ------------------------------------------------------


def test_canonical_tag_detects_failures(Z2, Z4):
    d = hoelder(Z2)
    assert canonical_tag(d).is_canonical
    non_surjective = make_datum(Z4, [Homomorphism(Z4, Z4, (0, 2, 0, 2))], [2])
    tag = canonical_tag(non_surjective)
    assert not tag.is_canonical and "surjective" in tag.witness
    trivial_map = Homomorphism(Z2, Z2, (0, 0))
    tag2 = canonical_tag(make_datum(Z2, [trivial_map], [1]))
    assert not tag2.is_canonical and "surjective" in tag2.witness


def test_canonical_tag_carries_the_canonicalize_factor(Z2, Z4, edge_data):
    # canonical_tag reads the factor off the image orders and the joint
    # kernel; canonicalize must return that tag with its quotient datum.  The
    # data: the doubling map, the non-canonical edge data under every Haar
    # pair, and the two tensors of each corpus frame with Z2 that the
    # reductions digest builds (scripts/digests.py), at two exponent tuples
    doubling = make_datum(Z4, [Homomorphism(Z4, Z4, (0, 2, 0, 2))], [2])
    assert canonical_tag(doubling).constant_factor == ExactValue.from_rational(2) ** Fraction(1, 2)
    data = [doubling] + [d.with_haar(haar_G, (haar,) * d.J) for d in edge_data
                         for haar_G in (C, P) for haar in (C, P)]
    trivial = Homomorphism(Z2, Z2, (0, 0))
    for haar in (C, P):
        for frame in standard_frames():
            grid = exponent_grid(frame.J)
            base = frame_datum(frame, grid[0], haar)
            for first in (trivial, identity_map(Z2)):
                maps = [first] + [trivial] * (frame.J - 1)
                t = split_product(base, make_datum(Z2, maps, grid[0], haar, [haar] * frame.J))
                data += [make_datum(t.G, t.maps, p, haar, [haar] * t.J) for p in (grid[0], grid[-1])]
    tags = [(d, canonical_tag(d)) for d in data]
    tags = [(d, tag) for d, tag in tags if not tag.is_canonical]
    for d, tag in tags:
        assert tag == canonicalize(d)[1]
    # 1 + 2 * 4 + 83 frames * 2 Haar modes * 2 tensors * 2 tuples
    assert len(tags) == 673
    assert sum(not tag.constant_factor.is_one for _, tag in tags) == 338


def test_canonicalize_fixed_point(Z2):
    d = hoelder(Z2)
    out, tag = canonicalize(d)
    assert out is d and tag.is_canonical and tag.constant_factor.is_one


def test_canonicalize_quotients_kernel(Z4, Z2):
    red = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    d = make_datum(Z4, [red], [2])
    out, tag = canonicalize(d)
    assert out.G.order == 2
    assert out.codomains[0].order == 2
    assert len(set(out.maps[0].map)) == 2  # induced map is an isomorphism
    assert canonical_tag(out).is_canonical


def test_canonicalize_idempotent(Z4, Z2):
    red = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    d = make_datum(Z4, [red, red], [2, 3])
    once, _ = canonicalize(d)
    twice, tag = canonicalize(once)
    assert tag.is_canonical
    assert twice == once


def test_canonicalize_collapse_preserves_constant_exactly(Z2):
    trivial_map = Homomorphism(Z2, Z2, (0, 0))
    for haar in (C, P):
        d = make_datum(
            Z2, [trivial_map, trivial_map], [1, 1], haar_G=haar, haar_codomains=[haar] * 2
        )
        out, tag = canonicalize(d)
        assert out.G.order == 1
        assert all(c.order == 1 for c in out.codomains)
        lhs = bl_constant(d).value
        rhs = tag.constant_factor * bl_constant(out).value
        assert lhs.compare(rhs) == 0


@pytest.mark.parametrize("haar", [C, P])
@pytest.mark.parametrize("p", [("1", "1"), ("2", "3"), ("3/2", "inf")])
def test_canonicalize_factor_is_exact(Z4, Z2, haar, p):
    red = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    dbl = Homomorphism(Z4, Z4, (0, 2, 0, 2))  # non-surjective, kernel {0,2}
    d = make_datum(Z4, [red, dbl], p, haar_G=haar, haar_codomains=[haar] * 2)
    out, tag = canonicalize(d)
    assert canonical_tag(out).is_canonical
    lhs = bl_constant(d).value
    rhs = tag.constant_factor * bl_constant(out).value
    assert lhs.compare(rhs) == 0


def test_joint_kernels_equal_their_validated_copies(edge_data):
    # every prefix of the maps, so the kernels run from G down to the trivial one
    frames = random.Random(5).sample(standard_frames(), 5)
    data = [frame_datum(f, exponent_grid(f.J)[0]) for f in frames] + edge_data
    for d in data:
        for k in range(d.J + 1):
            maps = d.maps[:k]
            K = joint_kernel(make_datum(d.G, maps, d.exponents[:k]))
            assert_validated(K)
            assert K.members == tuple(x for x in range(d.G.order)
                                      if all(h.map[x] == h.codomain.identity for h in maps))


def test_derived_data_equal_their_validated_copies(digests, edge_data):
    # the data, groups and maps that `datum` builds without validation:
    # tensors (`split_product`), canonical forms and p = 1 reductions
    # (`_onto_image`, `_restricted`, `_without`), index deletions, Haar
    # switches, and both halves of a quotient split, on seeded corpus frames,
    # their tensors with Z2 and seeded quotient data
    rng = random.Random(31)
    Z2 = make_cyclic_product([2])
    trivial = Homomorphism(Z2, Z2, (0, 0))
    S4 = from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    D4 = from_permutations(4, [(1, 2, 3, 0), (0, 3, 2, 1)])
    data = list(edge_data)
    data += quotient_data(digests, S4, 6, 1)
    data += quotient_data(digests, direct_product(D4, Z2)[0], 6, 2)
    for f in rng.sample(standard_frames(), 8):
        p = [rng.choice(("1", "2", "inf")) for _ in range(f.J)]
        base = frame_datum(f, p)
        factor = make_datum(Z2, [identity_map(Z2)] + [trivial] * (f.J - 1), p)
        data += [base, split_product(base, factor)]
    derived = []
    for d in data:
        canonical, _ = canonicalize(d)
        derived += [canonical, d.with_haar(C), d.with_haar(P, [C] * d.J)]
        for k, e in enumerate(canonical.exponents):
            if e.value == 1:
                try:
                    derived.append(reduce_p1(canonical, k))
                except NormalizationError:
                    pass
            elif e.is_infinite:
                derived.append(drop_infinite_exponent(canonical, k))
        for N in all_subgroups(d.G):
            if normality_witness(d.G, N) is None:
                try:
                    derived += quotient_split(d, N)
                except GroupStructureError as exc:
                    assert "not normal" in str(exc)
    assert len(derived) > 300
    for out in derived + data:
        assert_validated(out)


# -- deletion of an infinite exponent -----------------------------------------


def test_drop_infinite_structure(Z2):
    d = hoelder(Z2, p=("2", "inf"))
    out = drop_infinite_exponent(d, 1)
    assert out.J == 1 and out.exponents[0].value == 2
    with pytest.raises(WrongExponentError):
        drop_infinite_exponent(d, 0)
    # the other indices keep their own exponents and codomain modes
    d = make_datum(Z2, [identity_map(Z2)] * 3, ["inf", "2", "3"], haar_codomains=[P, C, C])
    out = drop_infinite_exponent(d, 0)
    assert out == make_datum(Z2, [identity_map(Z2)] * 2, ["2", "3"], haar_codomains=[C, C])


def test_drop_infinite_to_empty(Z2):
    d = hoelder(Z2, J=1, p=("inf",))
    out = drop_infinite_exponent(d, 0)
    assert out.J == 0
    assert bl_constant(out).value.compare(bl_constant(d).value) == 0


@pytest.mark.parametrize("haar", [C, P])
def test_drop_infinite_preserves_constant(haar):
    d = lw_datum(p=("1", "inf"), haar=haar)
    out = drop_infinite_exponent(d, 1)
    assert bl_constant(out).value.compare(bl_constant(d).value) == 0


# -- reduction at p = 1 --------------------------------------------------------


def test_reduce_p1_structure(Z2):
    d = lw_datum(p=("1", "2"))
    out = reduce_p1(d, 0)
    assert out.G.order == 2  # kernel of the first projection
    assert out.J == 1
    assert out.codomains[0].order == 2  # image is all of Z2
    assert len(set(out.maps[0].map)) == 2


@pytest.mark.parametrize("haar", [C, P])
def test_reduce_p1_preserves_constant(haar):
    d = lw_datum(p=("1", "1"), haar=haar)
    out = reduce_p1(d, 0)
    assert bl_constant(out).value.compare(bl_constant(d).value) == 0


def test_reduce_p1_diagonal_counting(Z2):
    # source = the diagonal inside Z2 x Z2, seen through both projections
    G, pa, pb = direct_product(Z2, Z2)
    diag = Subgroup(G, (0, 3))
    from blgroups.groups import compose, subgroup_group

    K, incl = subgroup_group(diag)
    d = make_datum(
        K, [compose(pa, incl), compose(pb, incl)], [1, 1], haar_G=C, haar_codomains=[C, C]
    )
    out = reduce_p1(d, 0)
    assert out.G.order == 1
    assert bl_constant(out).value.compare(bl_constant(d).value) == 0
    assert bl_constant(d).value.as_fraction() == 1  # counting mass of {e}


def test_reduce_p1_refuses_unrepresentable_normalization(Z2):
    # probability codomains but the second map restricted to the kernel of the
    # first is not surjective: the restricted measure is not a mode
    G, pa, pb = direct_product(Z2, Z2)
    from blgroups.groups import compose, subgroup_group

    diag = Subgroup(G, (0, 3))
    K, incl = subgroup_group(diag)
    d = make_datum(K, [compose(pa, incl), compose(pb, incl)], [1, 1])
    with pytest.raises(NormalizationError):
        reduce_p1(d, 0)


def test_reduce_p1_preconditions(Z2):
    d = lw_datum(p=("2", "1"))
    with pytest.raises(WrongExponentError):
        reduce_p1(d, 0)
    non_canonical = make_datum(Z2, [Homomorphism(Z2, Z2, (0, 0))], [1])
    with pytest.raises(NotCanonicalError):
        reduce_p1(non_canonical, 0)


@pytest.mark.parametrize("k", [-1, -2, 2, 5])
def test_reductions_require_index_in_range(k):
    # a negative index must not count from the end: the last exponent is the
    # one each reduction needs, so k = -1 would otherwise be accepted
    with pytest.raises(IndexRangeError):
        drop_infinite_exponent(lw_datum(p=("2", "inf"), haar=C), k)
    with pytest.raises(IndexRangeError):
        reduce_p1(lw_datum(p=("2", "1"), haar=C), k)


# -- products ------------------------------------------------------------------


def test_split_product_with_trivial_factor(Z2, E1):
    d1 = hoelder(Z2)
    d2 = hoelder(E1)
    prod = split_product(d1, d2)
    assert bl_constant(prod).value.compare(bl_constant(d1).value) == 0


def test_split_product_multiplies_constants(Z2, Z3):
    for haar in (C, P):
        d1 = hoelder(Z2, haar=haar)
        d2 = hoelder(Z3, haar=haar)
        prod = split_product(d1, d2)
        expected = bl_constant(d1).value * bl_constant(d2).value
        assert bl_constant(prod).value.compare(expected) == 0


def test_split_product_counting_hoelder_pair(Z2):
    d = hoelder(Z2, haar=P)
    prod = split_product(d, d)
    assert bl_constant(prod).value.as_fraction() == 4


def test_split_product_mismatches(Z2, Z3):
    with pytest.raises(WrongExponentError) as exc:
        split_product(hoelder(Z2, J=2), hoelder(Z3, J=3, p=("1", "1", "1")))
    assert str(exc.value) == "tensor factors must have equal length"
    with pytest.raises(WrongExponentError):
        split_product(hoelder(Z2, p=("1", "1")), hoelder(Z3, p=("1", "2")))
    with pytest.raises(NormalizationError):
        split_product(hoelder(Z2, haar=C), hoelder(Z2, haar=P))


def test_products_above_the_order_cap_are_refused():
    # 65 * 64 = 4160 elements, past DEFAULT_ORDER_CAP = 4096
    Z65, Z64 = make_cyclic_product([65]), make_cyclic_product([64])
    with pytest.raises(SizeCapError, match="order 4160 exceeds cap 4096"):
        direct_product(Z65, Z64)
    with pytest.raises(SizeCapError, match="order 4160 exceeds cap 4096"):
        split_product(hoelder(Z65), hoelder(Z64))


# -- quotient splits -------------------------------------------------------------


def test_quotient_split_trivial_subgroup(Z4, Z2):
    red = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    d = make_datum(Z4, [red], [1])
    restricted, quot = quotient_split(d, Subgroup(Z4, (0,)))
    assert restricted.G.order == 1
    assert quot.G.order == 4
    assert bl_constant(quot).value.compare(bl_constant(d).value) == 0


def test_quotient_split_whole_group(Z4, Z2):
    red = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    d = make_datum(Z4, [red], [1])
    restricted, quot = quotient_split(d, Subgroup(Z4, (0, 1, 2, 3)))
    assert quot.G.order == 1
    assert bl_constant(restricted).value.compare(bl_constant(d).value) == 0


@pytest.mark.parametrize("haar", [C, P])
def test_quotient_split_submultiplicative(Z4, Z2, haar):
    red = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    d = make_datum(Z4, [red], [1], haar_G=haar, haar_codomains=[haar])
    restricted, quot = quotient_split(d, Subgroup(Z4, (0, 2)))
    bound = bl_constant(restricted).value * bl_constant(quot).value
    assert bl_constant(d).value.compare(bound) <= 0


def test_quotient_split_rejects_non_normal(S3):
    d = make_datum(S3, [identity_map(S3)], [2])
    H = next(s for s in all_subgroups(S3) if s.order == 2)
    x, n = normality_witness(S3, H)
    with pytest.raises(GroupStructureError) as exc:
        quotient_split(d, H)
    assert str(exc.value) == f"subgroup is not normal: conjugating member {n} by {x} escapes"


def test_quotient_split_rejects_non_normal_image(S3, Z2):
    # source Z2 injects onto a transposition subgroup of S3: the image is not
    # normal in the codomain even though Z2's subgroup is normal in Z2
    t = next(x for x in range(S3.order) if element_order(S3, x) == 2)
    Z2 = make_cyclic_product([2])
    h = Homomorphism(Z2, S3, (S3.identity, t))
    d = make_datum(Z2, [h], [2])
    with pytest.raises(GroupStructureError, match="not normal"):
        quotient_split(d, Subgroup(Z2, (0, 1)))


def test_quotient_split_rejects_a_subgroup_of_another_group(Z2, Z4):
    d = make_datum(Z4, [identity_map(Z4)], [2])
    with pytest.raises(GroupStructureError, match="^subgroup parent mismatch$"):
        quotient_split(d, Subgroup(Z2, (0, 1)))


def test_normality_is_tested_once_per_outside_subgroup(monkeypatch, digests, edge_data):
    # canonicalize divides by a joint kernel, normal by construction, and
    # quotient_split tests N once and each image h_j(N) once: 1 + J tests
    from blgroups import datum, groups

    S4 = from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    data = list(edge_data) + list(quotient_data(digests, S4, 6, 1))
    calls = []
    witness = groups.normality_witness

    def spy(G, H):
        calls.append(H)
        return witness(G, H)

    monkeypatch.setattr(groups, "normality_witness", spy)
    monkeypatch.setattr(datum, "normality_witness", spy)
    collapsed = 0
    for d in data:
        collapsed += not canonical_tag(d).is_canonical
        canonicalize(d)
    assert collapsed == 4 and calls == []
    splits = 0
    for d in data:
        for N in all_subgroups(d.G):
            calls.clear()
            try:
                quotient_split(d, N)
                splits += 1
                assert len(calls) == 1 + d.J
            except GroupStructureError:
                assert len(calls) <= 1 + d.J
            assert calls[0] is N
    assert splits > 100


# -- normalization covariance ------------------------------------------------


def test_mode_switch_covariance(Z4, Z2):
    red = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    d = make_datum(Z4, [red, identity_map(Z4)], ["2", "3"], haar_G=C,
                   haar_codomains=[C, C])
    base = bl_constant(d).value
    # scaling the source mass by 1/|G| multiplies the constant by 1/|G|
    flipped = bl_constant(d.with_haar(haar_G=P)).value
    assert flipped.compare(base * ExactValue.from_rational(Fraction(1, 4))) == 0
    # scaling codomain j by 1/|G_j| multiplies it by |G_j|^(1/p_j)
    flipped_j = bl_constant(d.with_haar(haar_codomains=[P, C])).value
    expected = base * ExactValue.from_rational(2) ** Fraction(1, 2)
    assert flipped_j.compare(expected) == 0
