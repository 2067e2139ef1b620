import os
from pathlib import Path

import pytest

import blgroups
from blgroups.groups import (
    direct_product,
    from_permutations,
    make_cyclic_product,
    trivial_group,
)


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
    return trivial_group()


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child Python that must import this blgroups.

    pytest's `pythonpath` setting reaches only its own process, so a child
    gets the directory holding the imported package on its PYTHONPATH.
    """
    src = str(Path(blgroups.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + rest if rest else ""))
