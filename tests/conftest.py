import pytest

from leibnizalg.corpus import corpus, fixture
from leibnizalg.fields import QQ, gf


@pytest.fixture(scope="session")
def members():
    return corpus()


@pytest.fixture(scope="session")
def small_finite_members(members):
    # enumeration stays cheap below ~3000 subspaces
    from leibnizalg.enumeration import total_subspaces
    out = []
    for m in members:
        F = m.algebra.field
        if F.is_finite and total_subspaces(m.algebra.dim, F.size) <= 3000:
            out.append(m)
    return out


@pytest.fixture(scope="session")
def tiny_finite_members(small_finite_members):
    from leibnizalg.enumeration import total_subspaces
    return [m for m in small_finite_members
            if total_subspaces(m.algebra.dim, m.algebra.field.size) <= 1000]


def fx(name, field=QQ):
    return fixture(name, field)


@pytest.fixture
def h3():
    return fx("H3")


@pytest.fixture
def r2():
    return fx("r2")


@pytest.fixture
def sl2():
    return fx("sl2")


@pytest.fixture
def h3_gf2():
    return fx("H3", gf(2))
