import importlib.util
import itertools
import os
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import blgroups
from blgroups.datum import BLDatum, make_datum
from blgroups.groups import (
    FiniteGroup,
    HaarMode,
    Homomorphism,
    Subgroup,
    all_subgroups,
    direct_product,
    from_permutations,
    identity_map,
    make_cyclic_product,
    normality_witness,
    quotient,
)

# Loaded before the test modules import, so every @settings there inherits
# it.  A slow draw on a busy machine is not a fault of the code under test;
# assertions, example counts and deadlines stay as each test sets them.
settings.register_profile("blgroups", suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("blgroups")


def element_order(G, x):
    """The least k >= 1 with x^k = e, by repeated right multiplication."""
    k, y = 1, x
    while y != G.identity:
        y, k = G.table[y][x], k + 1
    return k


def assert_validated(obj):
    """A subgroup, group, map or datum the library built without validation
    equals the copy that the validating constructor builds from its fields,
    with the same derived state stored under the same attribute names in
    the same order: a subgroup from its members (mask included), a group
    from its table (hash included), a map from its images,
    after its domain and codomain pass the same check (fibres included),
    and a datum from its five fields, after its group and maps pass
    (codomains and hash included)."""
    if isinstance(obj, BLDatum):
        assert_validated(obj.G)
        for h in obj.maps:
            assert_validated(h)
        checked = BLDatum(obj.G, obj.maps, obj.exponents, obj.haar_G, obj.haar_codomains)
        assert obj.codomains == checked.codomains and hash(obj) == hash(checked)
    elif isinstance(obj, Subgroup):
        checked = Subgroup(obj.parent, obj.members)
        assert obj.mask == checked.mask
    elif isinstance(obj, FiniteGroup):
        checked = FiniteGroup(obj.order, obj.table, obj.identity, obj.labels)
        assert obj.labels == checked.labels
        assert hash(obj) == hash(checked)
    else:
        assert_validated(obj.domain)
        assert_validated(obj.codomain)
        checked = Homomorphism(obj.domain, obj.codomain, obj.map)
        assert obj.fibres == checked.fibres
    assert type(obj) is type(checked) and obj == checked
    assert list(vars(obj)) == list(vars(checked))


def corpus_openers(haar):
    """The first frame of each of the 42 corpus groups at its first exponent
    tuple, under the Haar mode haar."""
    from blgroups import corpus

    first = {}
    for f in corpus.standard_frames():
        first.setdefault(f.group, f)
    assert len(first) == 42
    return [corpus.frame_datum(f, corpus.exponent_grid(f.J)[0], haar) for f in first.values()]


def quotient_data(digests, G, count, seed):
    """Seeded data on G whose maps are quotients by random normal subgroups."""
    C, P = HaarMode.COUNTING, HaarMode.PROBABILITY
    rng = random.Random(seed)
    normal = [N for N in all_subgroups(G) if normality_witness(G, N) is None]
    for _ in range(count):
        J = rng.randint(1, 3)
        maps = [quotient(G, rng.choice(normal))[1] for _ in range(J)]
        haar = rng.choice((C, P))
        yield make_datum(G, maps, [rng.choice(digests.EXPONENTS) for _ in range(J)], haar,
                         [rng.choice((C, P)) for _ in range(J)])


@pytest.fixture(scope="session")
def Z2():
    return make_cyclic_product([2])


@pytest.fixture(scope="session")
def Z3():
    return make_cyclic_product([3])


@pytest.fixture(scope="session")
def Z4():
    return make_cyclic_product([4])


@pytest.fixture(scope="session")
def Z6():
    return make_cyclic_product([6])


@pytest.fixture(scope="session")
def S3():
    return from_permutations(3, [(1, 0, 2), (1, 2, 0)])


@pytest.fixture(scope="session")
def Z2xZ2():
    return direct_product(make_cyclic_product([2]), make_cyclic_product([2]))


@pytest.fixture(scope="session")
def E1():
    return make_cyclic_product([1])


@pytest.fixture(scope="session")
def edge_data():
    """Data at the edges of the float prefilter shared by the subgroup
    formula and the exhaustive indicator search; each fits the search's
    default budget."""
    C, P = HaarMode.COUNTING, HaarMode.PROBABILITY
    Z2, Z4, Z6 = (make_cyclic_product([n]) for n in (2, 4, 6))
    V, va, vb = direct_product(Z2, Z2)
    G, pa, pb = direct_product(Z2, make_cyclic_product([3]))

    def lw(p=("2", "2")):
        return make_datum(V, [va, vb], p)

    data = [lw(("4/3", "5/2")), lw(("1000/999", "4/3")), lw(("5/2", "5/2")),
            # 1/p_1 = 1 - 1e-10: two distinct candidates inside the float margin
            lw(("10000000000/9999999999", "2")),
            make_datum(Z2, [identity_map(Z2)] * 3, ("4/3", "5/2", "1000/999")),
            # the diagonal (0, 3) and the whole group tie at 1; the lattice
            # lists (0, 2), which saturates to the whole group, before the
            # diagonal, yet the diagonal wins by its smaller order
            make_datum(V, [va, Homomorphism(V, Z2, (0, 1, 1, 0))], ("2", "1")),
            make_datum(G, [pa, pb], ("4/3", "1000/999")),
            # every subgroup ties at 1, but the float log of the order-2
            # subgroup rounds 2^-52 above that of {e}: only the margin keeps
            # {e}, the first-wins argmax
            make_datum(G, [pa, pb], ("1", "1"))]
    # 1/p_1 = 1 - 1e-16: the search's first exact maximizer sits in a branch
    # whose float bound rounds below the running maximum, so only the
    # margins in the search's cut keep it
    G8, p2, p4 = direct_product(Z2, Z4)
    data.append(make_datum(G8, [p2, p4, p4], ("10000000000000000/9999999999999999", "3/2", "3")))
    for haar_G, haar in itertools.product((C, P), repeat=2):
        for p in (("4/3", "5/2"), ("1000/999", "3"), ("1", "inf")):
            data.append(make_datum(Z6, [identity_map(Z6)] * 2, p, haar_G=haar_G,
                                   haar_codomains=[haar, C]))
            data.append(lw(p).with_haar(haar_G, (haar, C)))
    # non-canonical: the doubling map of Z4 and a map with a kernel
    double = Homomorphism(Z4, Z4, (0, 2, 0, 2))
    data.append(make_datum(Z4, [double], ["5/2"]))
    data.append(make_datum(Z4, [double, identity_map(Z4)], ["4/3", "1000/999"]))
    return data


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child Python that must import this blgroups.

    pytest's `pythonpath` setting reaches only its own process, so a child
    gets the directory holding the imported package on its PYTHONPATH.
    """
    src = str(Path(blgroups.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + rest if rest else ""))


@pytest.fixture(scope="session")
def digests():
    """`scripts/digests.py` as a module: its line generators and seeded data."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "digests.py"
    spec = importlib.util.spec_from_file_location("blgroups_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
