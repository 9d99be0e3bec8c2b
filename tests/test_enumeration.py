from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import (dense_bracket, frattini_by_every_meet,
                              maximal_members_by_containment, rank_contains,
                              structure_tables, unit_vectors)
from leibnizalg import enumeration
from leibnizalg.aalgebra import theorem_battery
from leibnizalg.core import LeibnizAlgebra, direct_sum
from leibnizalg.corpus import fixture
from leibnizalg.cyclic import build_cyclic
from leibnizalg.decompose import max_nilpotent_subalgebras
from leibnizalg.enumeration import (DEFAULT_BUDGET, _largest_member, echelon_bases,
                                    enumerate_spaces, frattini_ideal,
                                    gaussian_binomial, is_enumerable, iter_ideals,
                                    iter_subalgebras, iter_subspaces,
                                    maximal_subalgebras, socle_analysis,
                                    total_subspaces)
from leibnizalg.errors import (BudgetExceeded, InfiniteFieldUnsupported,
                               LeibnizError)
from leibnizalg.fields import QQ, gf
from leibnizalg.linalg import Subspace, rref
from leibnizalg.series import (is_nilpotent_space, is_solvable_space, nilradical,
                               radical)


# ------------------------------------------------------------------ counting

def test_enumerate_spaces_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown enumeration kind 'ideal'"):
        enumerate_spaces(fixture("A2", gf(2)), "ideal")


def test_gaussian_binomial_known():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 1, 3) == 121
    assert gaussian_binomial(5, 2, 3) == 1210
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 3, 5) == 1
    assert gaussian_binomial(3, -1, 2) == gaussian_binomial(3, 4, 2) == 0


def test_total_subspaces_known():
    assert total_subspaces(3, 2) == 16
    assert total_subspaces(3, 3) == 28
    assert total_subspaces(5, 2) == 374
    assert total_subspaces(5, 3) == 2664
    assert total_subspaces(6, 3) == 56632
    assert total_subspaces(4, 4) == 529


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 4), (4, 2)])
def test_echelon_bases_complete_and_canonical(q, n):
    F = gf(q)
    seen = set()
    for rows, pivots in echelon_bases(F, n):
        red, piv = rref(F, list(rows))
        assert list(red) == list(rows)
        assert tuple(piv) == tuple(pivots)
        seen.add(rows)
    assert len(seen) == total_subspaces(n, q)


def test_echelon_bases_deterministic_order():
    F = gf(3)
    first = [rows for rows, _ in echelon_bases(F, 3)]
    second = [rows for rows, _ in echelon_bases(F, 3)]
    assert first == second
    # canonical order: sorted by dimension then row tuples
    assert first == sorted(first, key=lambda rs: (len(rs), rs))


# --------------------------------------------------------------- iterators

def test_h3_gf2_counts(h3_gf2):
    assert sum(1 for _ in iter_subspaces(h3_gf2)) == 16
    subs = list(iter_subalgebras(h3_gf2))
    ideals = list(iter_ideals(h3_gf2))
    assert len(subs) == 12
    assert len(ideals) == 6
    sub_keys = {s.basis for s in subs}
    ideal_keys = {s.basis for s in ideals}
    assert ideal_keys <= sub_keys


@pytest.mark.parametrize("name,q", [("H3", 3), ("r2", 4), ("C3b", 2), ("sl2", 3)])
def test_testers_match_definitions(name, q):
    # the scans agree with the dense bracket and rank-based membership
    L = fixture(name, gf(q))
    basis = unit_vectors(L.field, L.dim)

    def closed(S, pairs):
        return all(rank_contains(S, dense_bracket(L, u, v)) for u, v in pairs)

    by_def_sub, by_def_id = set(), set()
    for s in iter_subspaces(L):
        if closed(s, [(u, v) for u in s.basis for v in s.basis]):
            by_def_sub.add(s.basis)
        if closed(s, [p for u in s.basis for e in basis for p in ((u, e), (e, u))]):
            by_def_id.add(s.basis)
    assert [s.basis for s in iter_subalgebras(L)] == [
        s.basis for s in iter_subspaces(L) if s.basis in by_def_sub]
    assert [s.basis for s in iter_ideals(L)] == [
        s.basis for s in iter_subspaces(L) if s.basis in by_def_id]


def test_enumerate_spaces_cached(h3_gf2):
    a = enumerate_spaces(h3_gf2, "ideals")
    b = enumerate_spaces(h3_gf2, "ideals")
    assert a is b


def test_one_subspace_walk_per_algebra(monkeypatch):
    walks, candidates = [], []

    def counted(field, n, bracket=None):
        walks.append(n)
        bases = list(echelon_bases(field, n, bracket))
        candidates.append(len(bases))
        return iter(bases)

    monkeypatch.setattr(enumeration, "echelon_bases", counted)
    L = fixture("C3b", gf(3))
    socle_analysis(L)
    maximal_subalgebras(L)
    max_nilpotent_subalgebras(L)
    frattini_ideal(L)
    assert walks == [3]
    # the walk prunes: fewer candidates than the 28 subspaces of GF(3)^3
    assert candidates[0] < total_subspaces(3, 3)
    # a whole battery walks F^3 once; its quotients walk their own spaces
    walks.clear()
    theorem_battery(fixture("C3b", gf(3)))
    assert walks.count(3) == 1


def _closed_by_full_walk(L):
    """The definition the pruned walk replaces: every subspace, in the
    order of the unpruned walk, filtered by the closure test."""
    F, n = L.field, L.dim
    return [(rows, pivots) for rows, pivots in echelon_bases(F, n)
            if L.is_subalgebra(Subspace(F, n, rows, pivots))]


def _walked_subalgebras(L):
    return [(S.basis, S.pivots) for S in iter_subalgebras(L)]


def test_pruned_walk_matches_full_walk_on_corpus(members):
    checked = 0
    for m in members:
        L = m.algebra
        F = L.field
        if F.is_finite and total_subspaces(L.dim, F.size) <= 10 ** 4:
            assert _walked_subalgebras(L) == _closed_by_full_walk(L), m.label
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("name,q", [("H3", 2), ("C3b", 3), ("sl2", 3)])
def test_walk_decides_closure_without_closure_test(name, q, monkeypatch):
    L = fixture(name, gf(q))
    expected = _closed_by_full_walk(L)

    def refuse(self, S):
        raise AssertionError("iter_subalgebras ran a closure test")

    monkeypatch.setattr(LeibnizAlgebra, "is_subalgebra", refuse)
    assert _walked_subalgebras(L) == expected


@pytest.mark.parametrize("build,calls,subalgebras", [
    (lambda: fixture("H3", gf(2)), 38, 12),
    (lambda: fixture("C3b", gf(3)), 47, 10),
    (lambda: fixture("sl2", gf(3)), 59, 19),
    # old residuals refuse rows only from dimension 4 on; checked after the
    # new brackets instead of before, or killed only for an entry left of the
    # next pivot instead of for leading at no remaining pivot, they would let
    # this walk form 140
    (lambda: build_cyclic(gf(2), (1, 0, 0)), 137, 20),
], ids=["H3-gf2", "C3b-gf3", "sl2-gf3", "cyclic-100-gf2"])
def test_walk_bracket_calls_are_pinned(build, calls, subalgebras):
    # the number of brackets the pruned walk forms; a change to the pruning
    # rules or to the order of the checks moves it and must update it here
    L = build()
    pairs = []

    def counting_bracket(u, v):
        pairs.append((u, v))
        return L._bracket(u, v)

    assert len(list(echelon_bases(L.field, L.dim, counting_bracket))) == subalgebras
    assert len(pairs) == calls


@settings(max_examples=120, deadline=None)
@given(structure_tables({2: 5, 3: 4, 4: 3}))
def test_pruned_walk_matches_full_walk_on_random_tables(L):
    # GF(2)^5 has pivot patterns with gaps before the last row, where the
    # residuals force a prefix of a row, not the whole row
    assert _walked_subalgebras(L) == _closed_by_full_walk(L)


@settings(max_examples=120, deadline=None)
@given(structure_tables({5: 3, 9: 2}))
def test_pruned_walk_matches_full_walk_over_larger_fields(L):
    # the forced last row divides by a residual entry: prime inverses
    # beyond GF(3) and extension inverses beyond GF(4)
    assert _walked_subalgebras(L) == _closed_by_full_walk(L)


def test_budget_exceeded():
    L = fixture("H3", gf(3))
    with pytest.raises(BudgetExceeded) as exc:
        list(iter_subspaces(L, budget=10))
    assert exc.value.needed == 28
    assert exc.value.budget == 10


def test_infinite_field_unsupported(h3):
    with pytest.raises(InfiniteFieldUnsupported):
        list(iter_subspaces(h3))


def test_enumerated_quotients_are_leibniz(h3_gf2):
    for I in iter_ideals(h3_gf2):
        if 0 < I.dim < h3_gf2.dim:
            h3_gf2.quotient(I).require_leibniz()


# -------------------------------------------------------------------- socle

def test_socle_h3(h3_gf2):
    soc = socle_analysis(h3_gf2)
    assert [I.dim for I in soc.minimal_ideals] == [1]
    assert soc.monolithic
    assert soc.monolith.contains((0, 0, 1))
    assert soc.asoc.dim == 1


def test_socle_abelian_not_monolithic():
    soc = socle_analysis(fixture("A2", gf(2)))
    assert len(soc.minimal_ideals) == 3
    assert not soc.monolithic
    assert soc.monolith is None
    assert soc.asoc.dim == 2


def test_socle_r2():
    soc = socle_analysis(fixture("r2", gf(3)))
    assert soc.monolithic
    assert soc.monolith == fixture("r2", gf(3)).derived_space()


# ----------------------------------------------- maximal subalgebras, phi

def test_maximal_subalgebras_h3(h3_gf2):
    maxes = maximal_subalgebras(h3_gf2)
    assert len(maxes) == 3
    assert all(M.dim == 2 for M in maxes)
    centre = h3_gf2.span([(0, 0, 1)])
    assert all(M.contains_space(centre) for M in maxes)


def test_frattini_h3(h3_gf2):
    phi = frattini_ideal(h3_gf2)
    assert phi.dim == 1
    assert phi.contains((0, 0, 1))


def test_frattini_abelian_is_zero():
    assert frattini_ideal(fixture("A2", gf(3))).dim == 0
    # the zero algebra has no proper subalgebra, so no maximal one
    Z = LeibnizAlgebra(gf(2), [])
    assert frattini_ideal(Z) == Z.zero_space()


def test_largest_member_needs_one_maximal_member():
    L = fixture("A2", gf(2))
    ideals = enumerate_spaces(L, "ideals")
    assert _largest_member(ideals, lambda S: S.dim <= 2) == L.full_space()
    # the three lines are maximal among the spaces of dimension at most 1
    with pytest.raises(LeibnizError, match="3 maximal members"):
        _largest_member(ideals, lambda S: S.dim <= 1)


def _assert_filters_match_containment(L):
    """The five functions read off ``_maximal_members`` give what the
    containment loop gives, order included; a family whose maximal members
    are not one largest one is refused by both."""
    subs = enumerate_spaces(L, "subalgebras")
    ideals = enumerate_spaces(L, "ideals")
    maxes = maximal_members_by_containment(subs, lambda S: S.dim < L.dim)
    assert maximal_subalgebras(L) == maxes
    assert max_nilpotent_subalgebras(L) == maximal_members_by_containment(
        subs, lambda S: is_nilpotent_space(L, S))
    meet = L.zero_space() if not maxes else maxes[0]
    for M in maxes[1:]:
        meet = meet.intersect(M)
    for find, keep in ((lambda: nilradical(L)[0], lambda I: is_nilpotent_space(L, I)),
                       (lambda: radical(L)[0], lambda I: is_solvable_space(L, I)),
                       (lambda: frattini_ideal(L), meet.contains_space)):
        top = maximal_members_by_containment(ideals, keep)
        if len(top) == 1:
            assert find() == top[0]
        else:
            with pytest.raises(LeibnizError, match="maximal members"):
                find()


def test_lattice_filters_match_containment_on_the_corpus(members):
    checked = 0
    for m in members:
        L = m.algebra
        if is_enumerable(L, 10 ** 4):
            _assert_filters_match_containment(L)
            checked += 1
    assert checked == 342


@settings(max_examples=120, deadline=None)
@given(structure_tables({2: 4, 3: 3, 4: 3}))
def test_lattice_filters_match_containment_on_random_tables(L):
    _assert_filters_match_containment(L)


def test_frattini_matches_every_meet_on_the_enumerable_corpus(members):
    checked = 0
    for m in members:
        L = m.algebra
        if is_enumerable(L, DEFAULT_BUDGET):
            assert frattini_ideal(L) == frattini_by_every_meet(L, DEFAULT_BUDGET), m.label
            checked += 1
    assert checked == 367


def test_frattini_meets_stop_once_the_meet_is_zero(monkeypatch):
    # the q + 1 lines of GF(q)^2 are the maximal subalgebras of the abelian
    # A2; the first two meet in 0, and no later line is intersected
    L = fixture("A2", gf(3))
    assert len(maximal_subalgebras(L)) == 4
    enumerate_spaces(L, "ideals")
    meets = []
    intersect = Subspace.intersect

    def counted(self, other):
        meets.append(other)
        return intersect(self, other)

    monkeypatch.setattr(Subspace, "intersect", counted)
    assert frattini_ideal(L).is_zero()
    assert len(meets) == 1


@settings(max_examples=120, deadline=None)
@given(structure_tables({2: 4, 3: 3, 4: 3}))
def test_frattini_matches_every_meet_on_random_tables(L):
    assert frattini_ideal(L) == frattini_by_every_meet(L, DEFAULT_BUDGET)


@pytest.mark.parametrize("build,drawn,annihilators,chains", [
    (lambda: fixture("A2", gf(3)), 2, 0, 0),
    (lambda: direct_sum(fixture("r2", gf(4)), LeibnizAlgebra(gf(4), [[[0]]])), 4, 0, 0),
    (lambda: fixture("H3", gf(2)), 3, 3, 1),
    (lambda: build_cyclic(gf(2), (1, 1)), 2, 1, 0),
], ids=["A2-GF3", "r2+F-GF4", "H3-GF2", "cyclic11-GF2"])
def test_frattini_draws_maximal_subalgebras_until_the_meet_is_zero(monkeypatch, build, drawn,
                                                                   annihilators, chains):
    # the subalgebras of codimension one come first: two of them meet in 0
    # in A2 and four in r2 + F, before any smaller space is tested against
    # one, so no annihilator is built.  In H3 all three contain the centre,
    # so the meet stays nonzero and the chain runs.  The cyclic algebra's
    # one plane contains no other maximal subalgebra; it meets the line
    # after it in 0, once the line has been tested against the plane.
    L = build()
    maxes = maximal_subalgebras(L)
    expected = frattini_by_every_meet(L, DEFAULT_BUDGET)
    members, kernels, chained = [], [], []
    maximal_members, kernel, chain = (enumeration._maximal_members, enumeration.kernel,
                                      enumeration.chain)

    def counted_members(*args):
        for S in maximal_members(*args):
            members.append(S)
            yield S

    def counted(calls, fn):
        return lambda *args, **kwargs: calls.append(args) or fn(*args, **kwargs)

    monkeypatch.setattr(enumeration, "_maximal_members", counted_members)
    monkeypatch.setattr(enumeration, "kernel", counted(kernels, kernel))
    monkeypatch.setattr(enumeration, "chain", counted(chained, chain))
    phi = frattini_ideal(L)
    assert (len(members), len(kernels), len(chained)) == (drawn, annihilators, chains)
    assert tuple(members) == maxes[::-1][:drawn]
    assert phi.is_zero() != bool(chains)
    assert phi == expected


@settings(max_examples=150, deadline=None)
@given(structure_tables({2: 4, 3: 3, 4: 3}), st.data())
def test_frattini_chain_is_the_largest_ideal_inside_any_space(L, data):
    """With one drawn space V as the only maximal member, ``frattini_ideal``
    returns its chain on V, which must be the largest enumerated ideal
    inside V."""
    q, n = L.field.size, L.dim
    vectors = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                                 max_size=n))
    V = L.span(vectors)
    with mock.patch.object(enumeration, "_maximal_members", lambda spaces, keep: iter([V])):
        phi = frattini_ideal.__wrapped__(L)
    assert phi == _largest_member(enumerate_spaces(L, "ideals"), V.contains_space)


def test_frattini_reads_no_ideal_scan(members, monkeypatch):
    kinds = []
    scan = enumeration.enumerate_spaces

    def recorded(L, kind, *args):
        kinds.append(kind)
        return scan(L, kind, *args)

    monkeypatch.setattr(enumeration, "enumerate_spaces", recorded)
    checked = 0
    for m in members:
        L = m.algebra
        if is_enumerable(L, 10 ** 4):
            frattini_ideal(LeibnizAlgebra(L.field, L.table, L.names))
            checked += 1
    assert checked == 342
    assert kinds == ["subalgebras"] * checked


def test_frattini_is_ideal_everywhere(small_finite_members):
    for m in small_finite_members[:40]:
        phi = frattini_ideal(m.algebra)
        assert m.algebra.is_ideal(phi)
        for M in maximal_subalgebras(m.algebra):
            assert M.contains_space(phi)
