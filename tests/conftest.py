import pytest

from affinewalks import algebra as al


@pytest.fixture(scope="session")
def a1():
    return al.algebra_from_name("A1~")


@pytest.fixture(scope="session")
def a2():
    return al.algebra_from_name("A2~")


@pytest.fixture(scope="session")
def rho1(a1):
    return al.weyl_vector(a1)
