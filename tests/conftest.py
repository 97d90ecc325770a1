import pytest

from nihoperm import field as gf
from nihoperm import tower as tw


@pytest.fixture(scope="session")
def f16():
    return gf.make_field(4)


@pytest.fixture(scope="session")
def f256():
    return gf.make_field(8)


@pytest.fixture(scope="session")
def tower2():
    return tw.make_tower(2)


@pytest.fixture(scope="session")
def tower3():
    return tw.make_tower(3)


@pytest.fixture(scope="session")
def tower4():
    return tw.make_tower(4)
