import pytest

from kernel_reference import (frattini_by_sums, nilradical_by_sums,
                              radical_by_sums, upper_central_by_quotients)
from leibnizalg.core import LeibnizAlgebra
from leibnizalg.corpus import FIXTURE_NAMES, fixture
from leibnizalg.enumeration import DEFAULT_BUDGET, frattini_ideal
from leibnizalg.errors import InfiniteFieldUnsupported, LeibnizError
from leibnizalg.fields import QQ, gf
from leibnizalg.series import (derived_length, derived_series, hypercentre,
                               is_completely_solvable, is_metabelian,
                               is_nilpotent, is_nilpotent_space, is_solvable,
                               is_solvable_space, lower_central_series,
                               lower_nilpotent_series, nilpotency_class,
                               nilpotent_residual, nilradical, radical,
                               upper_central_series)


def dims(series):
    return [t.dim for t in series]


# -------------------------------------------------------------------- series

def test_derived_series_known():
    assert dims(derived_series(fixture("H3", QQ))) == [3, 1, 0]
    assert dims(derived_series(fixture("r2", QQ))) == [2, 1, 0]
    assert dims(derived_series(fixture("C2", QQ))) == [2, 1, 0]
    assert dims(derived_series(fixture("A2", QQ))) == [2, 0]


def test_derived_series_sl2_stabilizes():
    L = fixture("sl2", QQ)
    assert derived_series(L) == (L.full_space(),)


@pytest.mark.parametrize("F", [QQ, gf(3)], ids=str)
def test_derived_series_of_a_non_subalgebra_is_cut(F):
    # [x, x] = y and [y, y] = x: the derived series of the line of x
    # alternates between the two lines, so only the step cap ends it
    z, o = F.zero, F.one
    L = LeibnizAlgebra(F, (((z, o), (z, z)), ((z, z), (o, z))))
    series = derived_series(L, L.span([(o, z)]))
    assert len(series) == 2 * L.dim + 5
    assert not series[-1].is_zero()


def test_lower_central_known():
    assert dims(lower_central_series(fixture("H3", QQ))) == [3, 1, 0]
    # [L, gamma_k] keeps reproducing the derived line in r2
    assert lower_central_series(fixture("r2", QQ))[-1].dim == 1


def test_upper_central_known():
    assert dims(upper_central_series(fixture("H3", QQ))) == [0, 1, 3]
    assert hypercentre(fixture("H3", QQ)).dim == 3
    assert hypercentre(fixture("r2", QQ)).dim == 0
    assert hypercentre(fixture("sl2", QQ)).dim == 0


def test_upper_central_matches_quotient_definition(tiny_finite_members):
    algebras = [fixture(name, F) for F in (QQ, gf(2), gf(3), gf(4))
                for name in FIXTURE_NAMES]
    algebras += [m.algebra for m in tiny_finite_members]
    for L in algebras:
        assert upper_central_series(L) == upper_central_by_quotients(L)


def test_lower_nilpotent_series_c2():
    L = fixture("C2", QQ)
    series = lower_nilpotent_series(L)
    assert dims(series) == [2, 1, 0]
    assert series[1] == L.derived_space()


def test_nilpotent_residual():
    L = fixture("C2", QQ)
    assert nilpotent_residual(L) == L.derived_space()
    assert nilpotent_residual(fixture("H3", QQ)).dim == 0


def test_series_on_subspace():
    L = fixture("sl2", QQ)
    # restricted to a 1-dim subalgebra the series collapses immediately
    U = L.span([(0, 0, 1)])
    rep = derived_series(L, U)
    assert dims(rep) == [1, 0]


# ---------------------------------------------------------------- predicates

@pytest.mark.parametrize("name,nilp,solv,csolv,metab", [
    ("A2", True, True, True, True),
    ("H3", True, True, True, True),
    ("r2", False, True, True, True),
    ("sl2", False, False, False, False),
    ("C2", False, True, True, True),
    ("C3a", False, True, True, True),
    ("C3b", False, True, True, True),
])
def test_predicates(name, nilp, solv, csolv, metab):
    L = fixture(name, QQ)
    assert is_nilpotent(L) == nilp
    assert is_solvable(L) == solv
    assert is_completely_solvable(L) == csolv
    assert is_metabelian(L) == metab


def test_class_and_length():
    assert nilpotency_class(fixture("H3", QQ)) == 2
    assert nilpotency_class(fixture("A2", QQ)) == 1
    assert derived_length(fixture("r2", QQ)) == 2
    assert derived_length(fixture("A2", QQ)) == 1
    with pytest.raises(LeibnizError):
        nilpotency_class(fixture("r2", QQ))
    with pytest.raises(LeibnizError):
        derived_length(fixture("sl2", QQ))


def test_space_predicates():
    L = fixture("sl2", QQ)
    U = L.span([(0, 0, 1)])
    assert is_nilpotent_space(L, U)
    assert is_solvable_space(L, U)
    assert not is_nilpotent_space(L, L.full_space())
    assert not is_solvable_space(L, L.full_space())
    R = fixture("r2", QQ)
    assert is_solvable_space(R, R.full_space())
    assert not is_nilpotent_space(R, R.full_space())


def test_nilpotent_self_consistency(small_finite_members):
    # gamma series reaching zero, upper central reaching L, and the class
    # bound story must agree on every corpus member
    for m in small_finite_members[:50]:
        L = m.algebra
        by_lower = lower_central_series(L)[-1].is_zero()
        by_upper = upper_central_series(L)[-1].dim == L.dim
        assert by_lower == by_upper == is_nilpotent(L)


# ----------------------------------------------------------------- radicals

def test_nilradical_nilpotent_case():
    N, mode = nilradical(fixture("H3", QQ))
    assert mode == "exact" and N.dim == 3


def test_nilradical_finite_exact():
    L = fixture("r2", gf(3))
    N, mode = nilradical(L)
    assert mode == "exact"
    assert N == L.derived_space()


def test_nilradical_rational_lower_bound():
    L = fixture("r2", QQ)
    N, mode = nilradical(L)
    assert mode == "lower_bound"
    assert N == L.derived_space()
    assert L.is_ideal(N) and is_nilpotent_space(L, N)


def test_nilradical_budget_is_lower_bound_not_error():
    L = fixture("C3b", gf(3))
    assert nilradical(L, 10)[1] == "lower_bound"
    assert nilradical(L, 10 ** 6)[1] == "exact"


def test_nilradical_propagates_non_budget_errors(monkeypatch):
    import leibnizalg.series as series

    def broken(L, kind, budget):
        raise LeibnizError("ideal scan failed")

    monkeypatch.setattr(series, "enumerate_spaces", broken)
    with pytest.raises(LeibnizError, match="ideal scan failed"):
        nilradical(fixture("r2", gf(3)))


def test_radicals_match_sums_of_ideals(tiny_finite_members):
    # each is the one maximal member of its ideals, read off the lattice
    for m in tiny_finite_members:
        L = m.algebra
        assert nilradical(L) == (nilradical_by_sums(L, DEFAULT_BUDGET), "exact"), m.label
        assert radical(L) == (radical_by_sums(L, DEFAULT_BUDGET), "exact"), m.label
        assert frattini_ideal(L) == frattini_by_sums(L, DEFAULT_BUDGET), m.label


def test_nilradical_contains_hypercentre_and_leib(small_finite_members):
    for m in small_finite_members[:40]:
        L = m.algebra
        N, mode = nilradical(L)
        assert mode == "exact"
        assert N.contains_space(hypercentre(L))
        assert N.contains_space(L.leib_ideal())
        assert L.is_ideal(N) and is_nilpotent_space(L, N)


def test_radical():
    L = fixture("r2", gf(3))
    R, mode = radical(L)
    assert R.dim == 2
    S = fixture("sl2", gf(5))
    R, mode = radical(S)
    assert R.dim == 0
    with pytest.raises(InfiniteFieldUnsupported):
        radical(fixture("sl2", QQ))


def test_radical_solvable_shortcut():
    R, mode = radical(fixture("C3a", QQ))
    assert R.dim == 3
