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


@pytest.fixture(scope="session")
def affine_e():
    """Builder of the affine Cartan matrix of E_l~ (l = 6, 7, 8): the finite
    part in Bourbaki's node order (node 2 joined to node 4), node 0 from the
    highest root as :func:`~affinewalks.algebra.algebra_from_name` adds it."""
    def build(l):
        c = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
        for i, j in [(1, 3), (3, 4), (2, 4)] + [(j, j + 1) for j in range(4, l)]:
            c[i - 1][j - 1] = c[j - 1][i - 1] = -1
        theta = al._highest_root(c)
        col = [-sum(a * t for a, t in zip(row, theta)) for row in c]
        return [[2] + col] + [[x] + row for x, row in zip(col, c)]
    return build
