import inspect
import random
from dataclasses import fields
from functools import cached_property
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blgroups
from blgroups import corpus, groups
from blgroups.datum import _onto_image
from blgroups.groups import (
    FiniteGroup,
    GroupStructureError,
    Homomorphism,
    SizeCapError,
    Subgroup,
    all_subgroups,
    compose,
    direct_product,
    from_cayley_table,
    from_permutations,
    identity_map,
    image,
    kernel,
    make_cyclic_product,
    normality_witness,
    quotient,
    subgroup_group,
)

from conftest import assert_validated, element_order


def reduction_mod2(Z4, Z2):
    return Homomorphism(Z4, Z2, (0, 1, 0, 1))


# -- constructors ------------------------------------------------------------


def test_cyclic_z2_table(Z2):
    assert Z2.table == ((0, 1), (1, 0))
    assert Z2.identity == 0


def test_cyclic_trivial():
    G = make_cyclic_product([1])
    assert G.order == 1 and G.table == ((0,),)


def test_klein_four_every_square_trivial():
    G = make_cyclic_product([2, 2])
    assert all(G.table[x][x] == G.identity for x in range(4))


def reference_cyclic_table(moduli):
    """Table and labels of Z_n1 x ... x Z_nk by decoding and encoding every
    index pair: the direct construction the folded builder must reproduce."""
    order = 1
    for m in moduli:
        order *= m

    def decode(i):
        out = []
        for m in reversed(moduli):
            i, r = divmod(i, m)
            out.append(r)
        return tuple(reversed(out))

    def encode(t):
        i = 0
        for m, v in zip(moduli, t):
            i = i * m + v
        return i

    table = tuple(
        tuple(
            encode(tuple((a + b) % m for a, b, m in zip(decode(x), decode(y), moduli)))
            for y in range(order)
        )
        for x in range(order)
    )
    if len(moduli) == 1:
        labels = tuple(str(i) for i in range(order))
    else:
        labels = tuple("(" + ",".join(map(str, decode(i))) + ")" for i in range(order))
    return table, labels


CYCLIC_MODULI = [
    [1], [2], [3], [7], [12], [30],
    [1, 1], [1, 2], [2, 1], [1, 5], [2, 2], [2, 3], [3, 2], [4, 6], [6, 4], [5, 5], [8, 8],
    [1, 1, 1], [1, 3, 1], [2, 1, 3], [2, 2, 2], [2, 3, 4], [4, 3, 2], [3, 3, 3], [5, 1, 2],
    [2, 2, 2, 2], [3, 3, 3, 3], [2, 3, 2, 3], [1, 2, 1, 2], [4, 4, 4],
    [2, 2, 2, 2, 2], [2] * 6, [1, 1, 1, 1, 1],
]


@pytest.mark.parametrize("moduli", CYCLIC_MODULI, ids=lambda ms: "x".join(map(str, ms)))
def test_cyclic_table_matches_decode_encode_reference(moduli):
    G = make_cyclic_product(moduli)
    assert (G.table, G.labels) == reference_cyclic_table(moduli)
    assert G.identity == 0


def reference_folded_table(moduli):
    """The former fold, which spread each entry t over t*m + (a + b) % m with
    fresh ints: fast enough to check orders the decode/encode reference
    cannot."""
    table = [(0,)]
    for m in moduli:
        shifts = [tuple((a + b) % m for b in range(m)) for a in range(m)]
        table = [tuple(t * m + c for t in row for c in shift)
                 for row in table for shift in shifts]
    return tuple(table)


@pytest.mark.parametrize(
    "moduli",
    CYCLIC_MODULI + [[64], [256], [2] * 8, [4, 4, 4, 4], [3] * 5, [1, 64], [64, 1],
                     [2, 1, 2, 1, 2, 1, 2], [1, 7, 1, 9], [6, 6, 6], [5, 25]],
    ids=lambda ms: "x".join(map(str, ms)),
)
def test_cyclic_table_matches_the_former_fold(moduli):
    assert make_cyclic_product(moduli).table == reference_folded_table(moduli)


def test_cyclic_order_cap():
    with pytest.raises(SizeCapError):
        make_cyclic_product([100], order_cap=50)


def test_bad_table_rejected():
    with pytest.raises(GroupStructureError):
        from_cayley_table([[0, 1], [1, 1]])
    # associativity failure with a valid-looking identity row: 5-element loop
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupStructureError):
        from_cayley_table(loop)


def reference_is_associative(table):
    """The full n^3 scan that construction ran up to order 256, kept as the
    test oracle for Light's test."""
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    def extend(rows):
        if len(rows) == n:
            yield tuple(rows)
            return
        for row in permutations(range(n)):
            if row[0] == len(rows) and all(
                row[c] != r[c] for r in rows for c in range(n)
            ):
                yield from extend(rows + [row])

    yield from extend([tuple(range(n))])


def test_light_test_agrees_with_full_scan_on_reduced_latin_squares():
    # Rows and the identity pass on every such table, so the verdict is the
    # associativity check alone.
    tables = [t for n in range(2, 6) for t in reduced_latin_squares(n)]
    assert len(tables) == 62
    verdicts = []
    for t in tables:
        try:
            FiniteGroup(len(t), t, 0)
            verdicts.append(True)
        except GroupStructureError:
            verdicts.append(False)
    assert verdicts == [reference_is_associative(t) for t in tables]
    assert sum(verdicts) == 1 + 1 + 4 + 6  # Z2, Z3, four of order 4, six Z5


def reference_is_group(table, e):
    """The check that construction ran before inverses were checked on the
    generators only: entries in range, a trivial identity row and column,
    every row a permutation, and the full associativity scan."""
    n = len(table)
    return (all(0 <= v < n for row in table for v in row)
            and table[e] == tuple(range(n)) and all(table[x][e] == x for x in range(n))
            and all(len(set(row)) == n for row in table)
            and reference_is_associative(table))


def accepts(table, e):
    try:
        FiniteGroup(len(table), table, e)
    except GroupStructureError:
        return False
    return True


def identity_zero_table(n, free):
    """The order-n table whose row and column 0 are those of an identity 0,
    with the other entries taken from `free` row by row."""
    free = list(free)
    return tuple([tuple(range(n))] + [tuple([x] + free[(x - 1) * (n - 1):x * (n - 1)])
                                      for x in range(1, n)])


def multiplicative_monoid(n):
    """Z_n under multiplication: associative with identity 1, not a group."""
    return tuple(tuple(x * y % n for y in range(n)) for x in range(n))


def test_multiplicative_monoids_are_rejected():
    for n in (4, 6):
        with pytest.raises(GroupStructureError, match="no right inverse"):
            from_cayley_table(multiplicative_monoid(n))


def test_inverse_check_on_generators_agrees_with_row_permutations():
    # every order-3 table with identity 0, a seeded sample of order 4, and
    # every one-entry change of four order-4 monoids, two of them groups
    cases = [(identity_zero_table(3, free), 0) for free in product(range(3), repeat=4)]
    rng = random.Random(71)
    cases += [(identity_zero_table(4, [rng.randrange(4) for _ in range(9)]), 0)
              for _ in range(2000)]
    klein = tuple(tuple(x ^ y for y in range(4)) for x in range(4))
    cyclic = tuple(tuple((x + y) % 4 for y in range(4)) for x in range(4))
    max_monoid = tuple(tuple(max(x, y) for y in range(4)) for x in range(4))
    for table, e in ((klein, 0), (cyclic, 0), (max_monoid, 0),
                     (multiplicative_monoid(4), 1)):
        cases.append((table, e))
        for x, y, v in product(range(4), range(4), range(4)):
            if v != table[x][y]:
                rows = [list(row) for row in table]
                rows[x][y] = v
                cases.append((tuple(map(tuple, rows)), e))
    verdicts = [accepts(table, e) for table, e in cases]
    assert verdicts == [reference_is_group(table, e) for table, e in cases]
    assert 3 <= sum(verdicts) < 20


def test_permutation_closure_s3(S3):
    assert S3.order == 6
    assert S3.identity == 0
    transpositions = [x for x in range(S3.order) if element_order(S3, x) == 2]
    assert len(transpositions) == 3


def test_direct_product_z2_z3(Z2, Z3):
    P, pa, pb = direct_product(Z2, Z3)
    assert P.order == 6
    assert any(element_order(P, x) == 6 for x in range(P.order))


def test_direct_product_trivial_factor(Z4, E1):
    P, pa, pb = direct_product(E1, Z4)
    assert P.order == 4
    assert sorted(pb.map) == list(range(4))  # bijective


def test_direct_product_kernels(Z2):
    P, pa, pb = direct_product(Z2, Z2)
    assert kernel(pa).order == 2
    assert kernel(pb).order == 2


# -- subgroups ---------------------------------------------------------------


def brute_force_subgroups(G):
    """All subsets containing the identity that are closed under the table."""
    elems = [x for x in range(G.order) if x != G.identity]
    out = []
    for r in range(len(elems) + 1):
        for extra in combinations(elems, r):
            S = frozenset((G.identity,) + extra)
            if all(G.table[x][y] in S for x in S for y in S):
                out.append(tuple(sorted(S)))
    return sorted(out, key=lambda m: (len(m), m))


def reference_all_subgroups(G):
    """The all-pairs enumerator the coset one replaced, kept as the test oracle.

    Grows each known subgroup by every outside element, closes the seed under
    all products of pairs, and memoizes closures on their seed sets.  Returns
    the member tuples in (order, members) order.
    """

    def closure(seed):
        elems = set(seed) | {G.identity}
        frontier = list(elems)
        while frontier:
            nxt = []
            for x in frontier:
                for y in list(elems):
                    for z in (G.table[x][y], G.table[y][x]):
                        if z not in elems:
                            elems.add(z)
                            nxt.append(z)
            frontier = nxt
        return frozenset(elems)

    memo = {}
    trivial = frozenset({G.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for x in range(G.order):
                if x in H:
                    continue
                seed = H | {x}
                if seed not in memo:
                    memo[seed] = closure(seed)
                if memo[seed] not in found:
                    found.add(memo[seed])
                    nxt.append(memo[seed])
        frontier = nxt
    return sorted((tuple(sorted(K)) for K in found), key=lambda m: (len(m), m))


def coset_extension_subgroups(G):
    """The cyclic-extension enumerator the orderly one replaced, kept as the
    reference for the large tier, which the all-pairs one is too slow for.

    Grows each known subgroup H to <H, x> for one x per left coset xH and
    de-duplicates the closures as masks.  <H, x> is the union of left
    H-cosets that a breadth-first search from H reaches by right
    multiplication with x.
    """
    table = G.table

    def extend(H, hmem, x):
        K, mem = H, list(hmem)
        for y in mem:
            z = table[y][x]
            if not K >> z & 1:
                for h in hmem:
                    K |= 1 << table[z][h]
                    mem.append(table[z][h])
        return K, mem

    found = {1 << G.identity: (G.identity,)}
    frontier = list(found.items())
    while frontier:
        nxt = []
        for H, hmem in frontier:
            covered = H
            for x in range(G.order):
                if covered >> x & 1:
                    continue
                for h in hmem:
                    covered |= 1 << table[x][h]
                K, mem = extend(H, hmem, x)
                if K not in found:
                    found[K] = tuple(sorted(mem))
                    nxt.append((K, found[K]))
        frontier = nxt
    return sorted(found.values(), key=lambda m: (len(m), m))


def relabeled(G, seed):
    """G with its elements shuffled so that the identity is not element 0."""
    n = G.order
    new = list(range(n))
    random.Random(seed).shuffle(new)
    spot = new.index(n // 2)
    new[G.identity], new[spot] = new[spot], new[G.identity]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[new[a]][new[b]] = new[G.table[a][b]]
    return from_cayley_table(table)


def _members(subgroups):
    return [s.members for s in subgroups]


def test_subgroups_z4(Z4):
    subs = all_subgroups(Z4)
    assert [s.members for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]


def test_subgroups_klein_four():
    G = make_cyclic_product([2, 2])
    assert len(all_subgroups(G)) == 5


def test_subgroups_s3(S3):
    assert len(all_subgroups(S3)) == 6


@pytest.mark.parametrize(
    "moduli", [[6], [2, 2, 2], [12], [2, 4], [3, 3], [4, 4], [2, 2, 4]]
)
def test_subgroups_match_brute_force(moduli):
    # the walk's start and its floor test depend on labels, so each table is
    # also listed with its identity moved off element 0
    G = make_cyclic_product(moduli)
    for H in (G, relabeled(G, str(moduli))):
        assert H.identity == (0 if H is G else G.order // 2)
        expected = brute_force_subgroups(H)
        assert _members(all_subgroups(H)) == expected == reference_all_subgroups(H)


def test_subgroups_match_brute_force_s3(S3):
    for G in (S3, relabeled(S3, "S3")):
        expected = brute_force_subgroups(G)
        assert _members(all_subgroups(G)) == expected == reference_all_subgroups(G)


def test_enumeration_closes_each_subgroup_once(monkeypatch):
    # every nontrivial subgroup is the closure of exactly one _extend call;
    # validation would repeat closures in its chains, and the listing must
    # not run it
    G = _symmetric(5)
    closed = []
    extend = groups._extend

    def recording(*args, **kwargs):
        out = extend(*args, **kwargs)
        if out is not None:
            closed.append(out[0])
        return out

    monkeypatch.setattr(groups, "_extend", recording)
    def refuse(self):
        raise AssertionError("the listing validated a subgroup")

    monkeypatch.setattr(groups.Subgroup, "__post_init__", refuse)
    listed = all_subgroups(G)
    assert len(listed) == 156
    assert sorted(closed) == sorted(set(closed))
    assert len(closed) == len(listed) - 1


def test_subgroups_match_reference_on_corpus_groups():
    groups = {f.group for f in corpus.standard_frames()}
    assert len(groups) == 42
    for G in groups:
        assert _members(all_subgroups(G)) == reference_all_subgroups(G)


@pytest.mark.parametrize("moduli", [[2] * 5, [4] * 3])
def test_subgroups_match_reference_on_larger_products(moduli):
    G = make_cyclic_product(moduli)
    assert _members(all_subgroups(G)) == reference_all_subgroups(G)


def test_subgroups_respect_order_cap():
    with pytest.raises(SizeCapError):
        all_subgroups(make_cyclic_product([2] * 5), order_cap=16)


def test_subgroup_invariants_hold_for_all_listed(S3):
    for H in all_subgroups(S3):
        Subgroup(S3, H.members)  # revalidates closure on construction


def reference_is_subgroup(G, members):
    """The pairwise check `Subgroup` made before closure validation, kept as
    the test oracle: sorted, distinct, nonempty, the identity, every inverse
    and all |H|^2 products.  Members must lie in 0..order-1."""
    mem = tuple(members)
    if not mem or tuple(sorted(set(mem))) != mem:
        return False
    mset = set(mem)
    if G.identity not in mset:
        return False
    for x in mem:
        if G.table[x].index(G.identity) not in mset:
            return False
        for y in mem:
            if G.table[x][y] not in mset:
                return False
    return True


def _accepts(G, members):
    try:
        Subgroup(G, members)
    except GroupStructureError:
        return False
    return True


_VALIDATION_GROUPS = {
    "S4": lambda: _symmetric(4),
    "Z2^5": lambda: make_cyclic_product([2] * 5),
    "Z2xZ4": lambda: make_cyclic_product([2, 4]),
}


@pytest.mark.parametrize("name", sorted(_VALIDATION_GROUPS))
def test_closure_validation_matches_pairwise_check(name):
    # 1200 random sets per group, so 3600 in all, besides the structured ones
    G = _VALIDATION_GROUPS[name]()
    subgroups = reference_all_subgroups(G)
    cases = [tuple(m) for m in subgroups]
    rng = random.Random(f"validation-{name}")
    others = [x for x in range(G.order) if x != G.identity]
    for _ in range(1200):
        extra = rng.sample(others, rng.randrange(len(others) + 1))
        cases.append(tuple(sorted({G.identity, *extra})))
    for _ in range(600):  # unions of two subgroups, mostly not subgroups
        a, b = rng.sample(subgroups, 2)
        cases.append(tuple(sorted(set(a) | set(b))))
    for H in subgroups:  # one element off a subgroup, either way
        x = rng.choice(others)
        cases.append(tuple(sorted(set(H) ^ {x})))
    verdicts = [reference_is_subgroup(G, m) for m in cases]
    assert [_accepts(G, m) for m in cases] == verdicts
    assert sum(verdicts) >= len(subgroups) and not all(verdicts)


def test_validation_rejects_malformed_members(Z4):
    for members in [(), (0, 2, 1), (0, 0, 2), (2, 0), (0, 4), (0, 2, 4), (-1, 0), (1, 3)]:
        with pytest.raises(GroupStructureError):
            Subgroup(Z4, members)


def test_subgroup_mask_matches_members(S3):
    for H in all_subgroups(S3):
        assert H.mask == sum(1 << x for x in H.members)


def test_lagrange(S3, Z4):
    for G in (S3, Z4):
        for H in all_subgroups(G):
            assert G.order % H.order == 0


def test_subgroup_rejects_non_closed(Z4):
    with pytest.raises(GroupStructureError):
        Subgroup(Z4, (0, 1))


def test_validation_still_rejects_sets_the_trusted_path_would_take(Z4):
    # `_built` takes any set as given, so outside input must keep going
    # through the validating constructor
    assert Subgroup._built(Z4, 0b11).members == (0, 1)
    with pytest.raises(GroupStructureError, match="not closed"):
        Subgroup(Z4, (0, 1))
    assert "_built" not in blgroups._EXPORTS


def test_equal_subgroups_of_equal_groups_hash_alike():
    G1, G2 = make_cyclic_product([4]), make_cyclic_product([4])
    assert G1 is not G2 and G1 == G2 and hash(G1) == hash(G2)
    h1, h2 = Subgroup(G1, (0, 2)), Subgroup(G2, (0, 2))
    assert h1 == h2
    assert len({h1, h2}) == 1


# -- the large-group tier: lattices the all-pairs enumerator could not reach


def _symmetric(n):
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return from_permutations(n, [swap, cycle])


def _alternating5():
    return from_permutations(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])


@pytest.mark.parametrize(
    "make, order, count",
    [
        (lambda: _symmetric(4), 24, 30),
        (_alternating5, 60, 59),
        (lambda: _symmetric(5), 120, 156),
        (lambda: make_cyclic_product([2] * 6), 64, 2825),
    ],
    ids=["S4", "A5", "S5", "Z2^6"],
)
def test_large_group_subgroup_counts(make, order, count):
    G = make()
    assert G.order == order
    keys = [(s.order, s.members) for s in all_subgroups(G)]
    assert len(keys) == count
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert [m for _, m in keys] == coset_extension_subgroups(G)


def test_listed_subgroups_equal_their_validated_copies():
    lattices = list(dict.fromkeys(f.group for f in corpus.standard_frames()))
    assert len(lattices) == 42
    lattices += [make_cyclic_product([2] * 5), make_cyclic_product([4] * 3),
                 _symmetric(5), make_cyclic_product([2] * 6)]
    for G in lattices:
        for H in all_subgroups(G):
            assert_validated(H)


# -- homomorphisms -----------------------------------------------------------


def _shuffled(G, rng):
    """G with its elements shuffled, and the isomorphisms to and from it."""
    new = list(range(G.order))
    rng.shuffle(new)
    table = [[0] * G.order for _ in new]
    for a, row in enumerate(G.table):
        for b, c in enumerate(row):
            table[new[a]][new[b]] = new[c]
    S = from_cayley_table(table)
    old = [0] * G.order
    for x, y in enumerate(new):
        old[y] = x
    return Homomorphism(G, S, tuple(new)), Homomorphism(S, G, tuple(old))


def random_homomorphisms(seed, count):
    """Seeded homomorphisms with varied kernels and images: the inclusion of
    a subgroup of a product of one to three standard factors, a coordinate
    projection and the quotient map of that factor by a normal subgroup,
    with the elements of both ends shuffled."""
    rng = random.Random(seed)
    homs = []
    while len(homs) < count:
        names = [rng.choice(("Z2", "Z3", "Z4", "S3")) for _ in range(rng.randrange(1, 4))]
        P, projections = corpus.multi_product([corpus.standard_factor(n) for n in names])
        if P.order > 36:
            continue
        K, incl = subgroup_group(rng.choice(all_subgroups(P)))
        proj = rng.choice(projections)
        F = proj.codomain
        Q, q = quotient(F, rng.choice(
            [N for N in all_subgroups(F) if normality_witness(F, N) is None]))
        h = compose(q, compose(proj, incl))
        _, from_K = _shuffled(K, rng)
        to_Q, _ = _shuffled(Q, rng)
        homs.append(compose(to_Q, compose(h, from_K)))
    return homs


def test_images_and_kernels_equal_their_validated_copies():
    for h in random_homomorphisms("trusted", 60):
        e = h.codomain.identity
        K = kernel(h)
        assert_validated(K)
        assert K.members == tuple(x for x in range(h.domain.order) if h.map[x] == e)
        for H in all_subgroups(h.domain):
            img = image(h, H)
            assert_validated(img)
            assert img.members == tuple(sorted({h.map[x] for x in H.members}))
            M, _ = subgroup_group(img)
            assert _onto_image(subgroup_group(H)[0], H.members, h).codomain == M


def test_image_identity(Z4):
    h = identity_map(Z4)
    H = Subgroup(Z4, (0, 2))
    assert image(h, H).members == (0, 2)


def test_image_of_diagonal(Z2):
    P, pa, pb = direct_product(Z2, Z2)
    diag = Subgroup(P, (0, 3))
    assert image(pa, diag).members == (0, 1)


def test_image_of_even_subgroup(Z4, Z2):
    h = reduction_mod2(Z4, Z2)
    assert image(h, Subgroup(Z4, (0, 2))).members == (0,)


def test_kernel_of_reduction(Z4, Z2):
    assert kernel(reduction_mod2(Z4, Z2)).members == (0, 2)


def test_homomorphism_validation(Z4, Z2):
    with pytest.raises(GroupStructureError):
        Homomorphism(Z4, Z2, (0, 1, 1, 0))


def reference_is_homomorphism(G, H, m):
    """The n^2 check `Homomorphism` made before the generator check."""
    return all(
        m[G.table[x][y]] == H.table[m[x]][m[y]]
        for x in range(G.order) for y in range(G.order)
    )


def test_generator_check_agrees_with_all_pairs(S3, Z4):
    Z2sq, Z6 = make_cyclic_product([2, 2]), make_cyclic_product([6])
    pairs = [(S3, S3), (Z4, Z4), (Z4, Z2sq), (S3, Z6), (Z6, S3), (Z2sq, S3)]
    maps = homs = 0
    for G, H in pairs:
        others = [x for x in range(G.order) if x != G.identity]
        for images in product(range(H.order), repeat=len(others)):
            m = [H.identity] * G.order
            for x, y in zip(others, images):
                m[x] = y
            m = tuple(m)
            try:
                Homomorphism(G, H, m)
                accepted = True
            except GroupStructureError as exc:
                accepted = False
                # the error names a pair (x, a) that really fails
                x, a = map(int, str(exc).rsplit("(", 1)[1].rstrip(")").split(","))
                assert m[G.table[x][a]] != H.table[m[x]][m[a]]
            assert accepted == reference_is_homomorphism(G, H, m)
            maps += 1
            homs += accepted
    assert (maps, homs) == (23_672, 36)


def test_quotient_z4_by_even(Z4, Z2):
    N = Subgroup(Z4, (0, 2))
    Q, proj = quotient(Z4, N)
    assert Q.order == 2
    assert kernel(proj).members == (0, 2)
    assert len(set(proj.map)) == Q.order


def test_quotient_non_normal_names_witness(S3):
    H = next(s for s in all_subgroups(S3) if s.order == 2)
    x, n = normality_witness(S3, H)
    xi = S3.table[x].index(S3.identity)
    assert S3.table[S3.table[x][n]][xi] not in H.members
    with pytest.raises(GroupStructureError, match="not normal"):
        quotient(S3, H)


def reference_normality_witness(G, H):
    """The conjugation definition, kept as the test oracle: the first x,
    then the first n in H, with x n x^-1 outside H; x^-1 by a row search."""
    for x in range(G.order):
        xi = next(y for y in range(G.order) if G.table[x][y] == G.identity)
        for n in H.members:
            if G.table[G.table[x][n]][xi] not in H.members:
                return (x, n)
    return None


@pytest.mark.parametrize("make, count, normal", [
    (lambda: _symmetric(4), 30, 4),
    (lambda: from_permutations(4, [(1, 2, 3, 0), (0, 3, 2, 1)]), 10, 6),
    (lambda: make_cyclic_product([2, 4]), 8, 8),
    (lambda: direct_product(_symmetric(3), make_cyclic_product([2]))[0], 16, 7),
], ids=["S4", "D4", "Z2xZ4", "S3xZ2"])
def test_normality_witness_matches_conjugation(make, count, normal):
    G = make()
    subgroups = all_subgroups(G)
    witnesses = [normality_witness(G, H) for H in subgroups]
    assert witnesses == [reference_normality_witness(G, H) for H in subgroups]
    assert (len(witnesses), witnesses.count(None)) == (count, normal)


def test_derived_state_is_built_at_construction():
    table = make_cyclic_product([4]).table
    G1, G2 = FiniteGroup(4, table, 0, ("a", "b", "c", "d")), FiniteGroup(4, table, 0)
    h1, h2 = (Homomorphism(G, G, (0, 2, 0, 2)) for G in (G1, G2))
    for obj, names in ((G1, {"_generators", "_hash"}), (h1, {"fibres"})):
        assert names <= set(vars(obj))
        assert not names & {f.name for f in fields(obj)}
        assert not any(name in repr(obj) for name in names)
    assert G1._generators == (1,) and h1.fibres == (5, 0, 10, 0)
    assert repr(G1) != repr(G2)
    assert G1 == G2 and hash(G1) == hash(G2) == hash((4, 0, table))
    assert h1 == h2 and hash(h1) == hash(h2)
    for _, cls in inspect.getmembers(groups, inspect.isclass):
        if cls.__module__ == groups.__name__:
            assert not any(isinstance(a, cached_property) for a in vars(cls).values())


def test_normal_subgroup_of_s3(S3):
    A3 = next(s for s in all_subgroups(S3) if s.order == 3)
    assert normality_witness(S3, A3) is None
    Q, _ = quotient(S3, A3)
    assert Q.order == 2


def test_image_kernel_order_identity(S3, Z2):
    sign = Homomorphism(
        S3, Z2, tuple(0 if element_order(S3, x) in (1, 3) else 1 for x in range(S3.order))
    )
    for H in all_subgroups(S3):
        h = _onto_image(subgroup_group(H)[0], H.members, sign)
        assert H.order == kernel(h).order * image(sign, H).order


def test_subgroup_group_and_inclusion(S3):
    A3 = next(s for s in all_subgroups(S3) if s.order == 3)
    K, incl = subgroup_group(A3)
    assert K.order == 3
    assert set(incl.map) == set(A3.members)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)
)
def test_cyclic_products_are_groups(moduli):
    G = make_cyclic_product(moduli)  # construction re-checks the axioms
    assert all(G.identity in row for row in G.table)


def test_large_group_checked_exactly():
    G = make_cyclic_product([270])
    assert G.order == 270
    assert G.table[133][200] == (133 + 200) % 270
    # Z_1000 with two entries of row 5 swapped: rows are still permutations
    # and the identity is intact, but 5*7 = 16 breaks associativity.  Few
    # of the 10^9 triples touch either entry, so sampling rarely sees it.
    t = [list(row) for row in make_cyclic_product([1000]).table]
    t[5][7], t[5][11] = t[5][11], t[5][7]
    with pytest.raises(GroupStructureError, match="associativity fails") as exc:
        from_cayley_table(t)
    x, a, y = map(int, str(exc.value).rsplit("(", 1)[1].rstrip(")").split(","))
    assert t[t[x][a]][y] != t[x][t[a][y]]
