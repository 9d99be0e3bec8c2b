import random
from fractions import Fraction

import pytest

from kernel_reference import (candidates_by_restriction, cartan_by_phases,
                              centre_by_restriction, change_basis,
                              fitting_family_by_matrices,
                              ideal_chain_alignment_by_sums,
                              ideal_part_split_by_sums, maximal_by_pairs,
                              nilradical_chain_by_sums, random_invertible,
                              triangular_by_restriction)
from leibnizalg import decompose
from leibnizalg.aalgebra import (ClauseResult, _check_ideal_chain_alignment,
                                 _check_ideal_part_split,
                                 _check_nilradical_chain_splitting,
                                 structure_report)
from leibnizalg.core import LeibnizAlgebra
from leibnizalg.corpus import fixture
from leibnizalg.decompose import (cartan_subalgebra,
                                  enumerated_cartan_subalgebras, fitting,
                                  fitting_family, max_nilpotent_subalgebras,
                                  triangular_decomposition)
from leibnizalg.enumeration import (enumerate_spaces, iter_subspaces,
                                    maximal_subalgebras, total_subspaces)
from leibnizalg.errors import DecompositionFailed
from leibnizalg.fields import QQ, gf
from leibnizalg.linalg import is_nilpotent_operator, restrict_operator
from leibnizalg.series import is_nilpotent_space, is_solvable


# ------------------------------------------------------------------- fitting

def test_fitting_split(r2):
    null, one = fitting(r2, r2.right_mult((0, 1)))
    assert null.dim == 1 and null.contains((0, 1))
    assert one.dim == 1 and one.contains((1, 0))
    # verify the defining properties independently
    A = r2.right_mult((0, 1))
    assert is_nilpotent_operator(QQ, restrict_operator(QQ, A, null))
    R1 = restrict_operator(QQ, A, one)
    from leibnizalg.linalg import kernel
    assert kernel(QQ, R1, ncols=one.dim).dim == 0


def test_fitting_nilpotent_operator(h3):
    null, one = fitting(h3, h3.right_mult((1, 0, 0)))
    assert null.dim == 3 and one.dim == 0


def test_fitting_family(r2):
    C = r2.span([(0, 1)])
    assert fitting_family(r2, C) == (C, r2.span([(1, 0)]))


def test_fitting_family_cyclic():
    L = fixture("C2", QQ)
    C = L.span([(Fraction(1), Fraction(-1))])
    assert fitting_family(L, C) == (C, L.derived_space())


def test_fitting_family_matches_the_matrix_null_chain(members, small_finite_members):
    # the Cartan subalgebra and every maximal nilpotent subalgebra of the
    # small finite members, and the Cartan subalgebra of each Q member
    cases = [(m, [cartan_subalgebra(m.algebra)]) for m in members
             if not m.algebra.field.is_finite]
    cases += [(m, {cartan_subalgebra(m.algebra), *max_nilpotent_subalgebras(m.algebra)})
              for m in small_finite_members]
    compared = 0
    for m, spaces in cases:
        for C in spaces:
            assert (fitting_family(m.algebra, C)
                    == fitting_family_by_matrices(m.algebra, C)), m.label
            compared += 1
    assert compared > 1000


# -------------------------------------------------------------------- cartan

def test_cartan_r2(r2):
    C = cartan_subalgebra(r2)
    assert C == r2.span([(0, 1)])


def test_cartan_c2():
    L = fixture("C2", QQ)
    C = cartan_subalgebra(L)
    assert C == L.span([(Fraction(1), Fraction(-1))])


def test_cartan_nilpotent_is_whole(h3):
    assert cartan_subalgebra(h3) == h3.full_space()


def test_cartan_sl2(sl2):
    C = cartan_subalgebra(sl2)
    assert C == sl2.span([(0, 0, 1)])


@pytest.mark.parametrize("name,q", [("r2", None), ("C2", None), ("C3a", None),
                                    ("r2", 3), ("C3b", 2), ("sl2", None)])
def test_cartan_is_nilpotent_self_normalizing(name, q):
    L = fixture(name, QQ if q is None else gf(q))
    C = cartan_subalgebra(L)
    assert is_nilpotent_space(L, C)
    assert L.normalizer(C) == C


@pytest.mark.parametrize("seed", [0, 1])
def test_cartan_matches_the_phased_descent(members, tiny_finite_members, seed):
    # the first candidate that acts non-nilpotently gives the Cartan
    # subalgebra that the smallest null of the phased descent gives; in a
    # random basis the two may pick different Cartans, of one dimension
    rng = random.Random(seed)
    rational = [m for m in members if not m.algebra.field.is_finite]
    for m in rational + tiny_finite_members:
        L = m.algebra
        assert (_outcome(cartan_subalgebra, L)
                == _outcome(cartan_by_phases, L, seed)), m.label
        M = change_basis(L, random_invertible(L.field, L.dim, rng))
        C = cartan_subalgebra(M)
        assert is_nilpotent_space(M, C) and M.normalizer(C) == C, m.label
        assert C.dim == cartan_by_phases(M, seed=seed).dim, m.label


def _descent_steps(monkeypatch, L):
    """The Cartan subalgebra of L, and the Fitting nulls each descent step
    computed, as (subalgebra, nulls) pairs in step order."""
    calls = []
    fitting_null = decompose._fitting_null

    def counted(L, K, x):
        N = fitting_null(L, K, x)
        calls.append((K, N))
        return N

    monkeypatch.setattr(decompose, "_fitting_null", counted)
    C = cartan_subalgebra(L)
    monkeypatch.undo()
    steps = []
    for K, N in calls:
        if not steps or steps[-1][0] != K:
            steps.append((K, []))
        steps[-1][1].append(N)
    return C, steps


def _t_first_r2():
    """r2 with the acting element first: [x, t] = x = -[t, x]."""
    z, one = Fraction(0), Fraction(1)
    table = [[(z, z), (z, -one)], [(z, one), (z, z)]]
    return LeibnizAlgebra(QQ, table, ("t", "x"))


@pytest.mark.parametrize("make,first_step", [(lambda: fixture("r2", QQ), 2),
                                             (_t_first_r2, 1)],
                         ids=["r2", "t_first_r2"])
def test_descent_stops_at_the_first_non_nilpotent_candidate(monkeypatch, make,
                                                             first_step):
    L = make()
    C, steps = _descent_steps(monkeypatch, L)
    assert C.dim == 1 and L.normalizer(C) == C
    # one step; the line it gives is nilpotent, so no candidate is
    # tried on it
    assert [len(nulls) for _, nulls in steps] == [first_step]
    first = steps[0][1]
    assert first[-1] is not None and all(N is None for N in first[:-1])


def test_descent_on_sl2_in_an_ad_nilpotent_basis(monkeypatch):
    # in the basis (e, f, h + e - f) every basis vector acts nilpotently, so
    # the first step tries the three of them and then e + f, which is
    # semisimple; the null of e + f is a line, and no step follows
    L = change_basis(fixture("sl2", QQ), [[Fraction(c) for c in row] for row in
                                          ((1, 0, 1), (0, 1, -1), (0, 0, 1))])
    C, steps = _descent_steps(monkeypatch, L)
    assert C.dim == 1 and is_nilpotent_space(L, C) and L.normalizer(C) == C
    assert [len(nulls) for _, nulls in steps] == [4]
    nulls = steps[0][1]
    assert all(N is None for N in nulls[:3]) and nulls[3].dim == 1


def r2_on_cyclic_module(p):
    """r2 = span(a, b), [b, a] = a, acting on span(v_0, ..., v_{p-1}) over
    GF(p) by a.v_i = v_{i+1} (indices mod p) and b.v_i = i v_i, with
    [x, v] = x.v = -[v, x]; the basis is (a, b, v_0, ..., v_{p-1})."""
    F, n = gf(p), p + 2
    table = [[[F.zero] * n for _ in range(n)] for _ in range(n)]

    def put(x, y, z, c):
        table[x][y][z] = F.from_int(c)
        table[y][x][z] = F.from_int(-c)

    put(1, 0, 0, 1)
    for i in range(p):
        put(0, 2 + i, 2 + (i + 1) % p, 1)
        put(1, 2 + i, 2 + i, i)
    return LeibnizAlgebra(F, table, ("a", "b") + tuple(f"v{i}" for i in range(p)))


@pytest.mark.parametrize("p", [2, 3])
def test_cartan_fallback_after_a_two_step_descent(monkeypatch, p):
    L = r2_on_cyclic_module(p)
    L.require_leibniz()
    C, steps = _descent_steps(monkeypatch, L)
    # a acts invertibly on V, so the first step gives r2 = span(a, b); there
    # a acts nilpotently and b does not, and the second step gives span(b)
    (K0, nulls0), (K1, nulls1) = steps
    assert K0 == L.full_space() and nulls0 == [L.span([L.basis_vector(0), L.basis_vector(1)])]
    assert K1.dim == 2 and nulls1 == [None, L.span([L.basis_vector(1)])]
    # span(b) is nilpotent, but v_0 normalizes it, so the enumerated
    # search gives the answer
    line = L.span([L.basis_vector(1)])
    assert L.normalizer(line).contains(L.basis_vector(2))
    assert is_nilpotent_space(L, C) and L.normalizer(C) == C
    assert C == enumerated_cartan_subalgebras(L)[0]


def test_cartan_fallback_past_the_budget():
    with pytest.raises(DecompositionFailed, match="enumeration needs 666124288 subspaces"):
        cartan_subalgebra(r2_on_cyclic_module(5))


def _t_semidirect(coeffs, lie):
    """span(t) + Q^k with t acting by the companion matrix A of the monic
    x^k + c_{k-1} x^{k-1} + ... + c_0: [v, t] = Av, and [t, v] = -Av for
    the Lie semidirect product or 0 for the hemisemidirect one."""
    k, z = len(coeffs), Fraction(0)
    A = [[Fraction(int(i == j + 1)) for j in range(k)] for i in range(k)]
    for i, c in enumerate(coeffs):
        A[i][k - 1] = Fraction(-c)
    table = [[(z,) * (k + 1) for _ in range(k + 1)] for _ in range(k + 1)]
    for j in range(k):
        Av = (z,) + tuple(A[i][j] for i in range(k))
        table[j + 1][0] = Av
        if lie:
            table[0][j + 1] = tuple(-c for c in Av)
    return LeibnizAlgebra(QQ, table, ("t",) + tuple(f"v{i}" for i in range(k)))


# x^4 - 1, x^3 + x^2 + x + 1, x^3 - 1, x^2 + 1: eigenvalues off Q
COMPANION_COEFFS = ((-1, 0, 0, 0), (1, 1, 1), (-1, 0, 0), (1, 0))


def test_solvable_descent_steps_take_a_basis_vector(members, monkeypatch):
    # the solvable case of the _candidates proof: the elements that act
    # nilpotently form a proper subspace, which misses a basis vector, so
    # each step succeeds within its first m candidates
    rng = random.Random(0)
    bases = [_t_semidirect(c, lie) for c in COMPANION_COEFFS for lie in (True, False)]
    bases += [LeibnizAlgebra(m.algebra.field, m.algebra.table, m.algebra.names)
              for m in members if not m.algebra.field.is_finite and is_solvable(m.algebra)]
    checked = 0
    for L in bases:
        assert L.leibniz_violation() is None
        for M in [L] + [change_basis(L, random_invertible(QQ, L.dim, rng))
                        for _ in range(5)]:
            C, steps = _descent_steps(monkeypatch, M)
            assert is_nilpotent_space(M, C) and M.normalizer(C) == C
            for K, nulls in steps:
                assert len(nulls) <= K.dim and nulls[-1] is not None, str(M)
                checked += 1
    assert checked > 100


def test_cartan_of_the_zero_algebra_is_zero():
    L = LeibnizAlgebra(QQ, [], ())
    assert cartan_subalgebra(L) == L.zero_space()


def test_enumerated_cartans_r2_gf2():
    L = fixture("r2", gf(2))
    cartans = enumerated_cartan_subalgebras(L)
    keys = {C.basis for C in cartans}
    assert keys == {((0, 1),), ((1, 1),)}
    for C in cartans:
        assert is_nilpotent_space(L, C)
        assert L.normalizer(C) == C


def test_max_nilpotent_r2_gf2():
    L = fixture("r2", gf(2))
    maxes = max_nilpotent_subalgebras(L)
    assert sorted(U.basis for U in maxes) == [((0, 1),), ((1, 0),), ((1, 1),)]


def test_max_nilpotent_nilpotent_algebra(h3_gf2):
    assert list(max_nilpotent_subalgebras(h3_gf2)) == [h3_gf2.full_space()]


def test_lattice_filters_match_definitions(members):
    # the ideals read off the subalgebra scan, the maximal-members rule and
    # the Cartan subalgebras read off the maximal nilpotent ones agree,
    # order included, with an ideal test over every subspace, with the
    # all-pairs filter and with a self-normalizer test over the whole scan
    small = [m.algebra for m in members if m.algebra.field.is_finite
             and total_subspaces(m.algebra.dim, m.algebra.field.size) <= 1000]
    assert len(small) > 200
    for L in small:
        subs = enumerate_spaces(L, "subalgebras")
        nilp = [S for S in subs if is_nilpotent_space(L, S)]
        assert list(maximal_subalgebras(L)) == maximal_by_pairs(
            [S for S in subs if S.dim < L.dim])
        assert list(max_nilpotent_subalgebras(L)) == maximal_by_pairs(nilp)
        assert list(enumerated_cartan_subalgebras(L)) == [
            S for S in nilp if L.normalizer(S) == S]
        assert list(enumerate_spaces(L, "ideals")) == [
            S for S in iter_subspaces(L) if L.is_ideal(S)]


def test_max_nilpotent_tests_only_uncovered_members(monkeypatch):
    # in an abelian algebra the whole algebra is nilpotent, and every other
    # subalgebra lies inside it, so nilpotency is tested once
    calls = []

    def counted(L, S):
        calls.append(S)
        return is_nilpotent_space(L, S)

    monkeypatch.setattr(decompose, "is_nilpotent_space", counted)
    L = fixture("A2", gf(3))
    assert list(max_nilpotent_subalgebras(L)) == [L.full_space()]
    assert calls == [L.full_space()]


def test_cartans_normalize_only_max_nilpotents(monkeypatch):
    calls = []
    normalizer = LeibnizAlgebra.normalizer

    def counted(self, U):
        calls.append(U)
        return normalizer(self, U)

    monkeypatch.setattr(LeibnizAlgebra, "normalizer", counted)
    L = fixture("r2", gf(2))
    enumerated_cartan_subalgebras(L)
    assert calls == list(max_nilpotent_subalgebras(L))
    assert len(calls) == 3


# ---------------------------------------------------------------- triangular

def test_triangular_c2():
    L = fixture("C2", QQ)
    dec = triangular_decomposition(L)
    assert [P.dim for P in dec] == [1, 1]
    assert dec[0] == L.derived_space()
    assert dec[1] == L.span([(Fraction(1), Fraction(-1))])
    # partial sums from the bottom re-create the derived series
    assert dec[0].add(dec[1]).dim == 2
    for P in dec:
        assert L.is_abelian_space(P)


def test_triangular_r2(r2):
    dec = triangular_decomposition(r2)
    assert [P.dim for P in dec] == [1, 1]
    assert dec[0] == r2.derived_space()


def test_triangular_rejects_h3(h3):
    with pytest.raises(DecompositionFailed):
        triangular_decomposition(h3)


def test_triangular_rejects_sl2(sl2):
    with pytest.raises(DecompositionFailed, match="needs a solvable algebra"):
        triangular_decomposition(sl2)


def test_triangular_failure_cached(h3):
    with pytest.raises(DecompositionFailed):
        triangular_decomposition(h3)
    with pytest.raises(DecompositionFailed):
        triangular_decomposition(h3)


def test_ideal_decomposition():
    R = fixture("r2", QQ)
    dec = triangular_decomposition(R)
    D = R.derived_space()
    assert [D.intersect(P).dim for P in dec] == [1, 0]
    assert _check_ideal_chain_alignment(dec, [D]) == (True, "checked 1 ideals")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DecompositionFailed as exc:
        return str(exc)


def test_triangular_parts_match_the_recursion(members):
    # the loop in L's coordinates against the recursion on restricted
    # algebras: the same parts, or the same refusal; the decompositions of
    # the corpus have at most two parts, those of r2 on V_p three
    solvable = [m.algebra for m in members if is_solvable(m.algebra)]
    assert len(solvable) > 300
    extra = [r2_on_cyclic_module(p) for p in (2, 3, 5)]
    assert [len(triangular_decomposition(L)) for L in extra] == [3] * 3
    for L in solvable + extra:
        M = LeibnizAlgebra(L.field, L.table, L.names)
        assert (_outcome(triangular_decomposition, M)
                == _outcome(triangular_by_restriction, L)), str(L)


def test_candidates_match_the_restricted_stream(tiny_finite_members):
    # every subalgebra of the members up to dimension 3, with a budget that
    # keeps the finite-field sweep and with one that drops it past a point
    checked = 0
    for m in tiny_finite_members:
        L = m.algebra
        if L.dim > 3:
            continue
        for K in enumerate_spaces(L, "subalgebras"):
            for budget in (8, 10 ** 6):
                assert (list(decompose._candidates(K, budget))
                        == candidates_by_restriction(L, K, budget)), m.label
                checked += 1
    assert checked > 1000


def test_slice_checks_match_running_sums(tiny_finite_members):
    checked = 0
    for m in tiny_finite_members:
        L = m.algebra
        try:
            decomp = triangular_decomposition(L)
        except DecompositionFailed:
            continue
        checked += 1
        ideals = enumerate_spaces(L, "ideals")
        assert (_check_ideal_part_split(L, decomp, ideals)
                == ideal_part_split_by_sums(L, decomp, ideals))
        # subalgebras that are not ideals, and a repeated part, which makes
        # the slices of a space meeting the top part dependent, run the
        # failure branches as well
        spaces = enumerate_spaces(L, "subalgebras")
        for D in spaces:
            assert (_check_ideal_part_split(L, decomp, [D])
                    == ideal_part_split_by_sums(L, decomp, [D]))
        repeated = (decomp[0],) + decomp
        for dec in (decomp, repeated):
            for D in spaces:
                assert (_check_nilradical_chain_splitting(L, dec, D)
                        == nilradical_chain_by_sums(L, dec, D))
                assert (_check_ideal_chain_alignment(dec, [D])
                        == ideal_chain_alignment_by_sums(L, dec, [D]))
    assert checked


def test_subalgebra_centres_match_restriction(tiny_finite_members):
    for m in tiny_finite_members:
        L = m.algebra
        for U in enumerate_spaces(L, "subalgebras"):
            assert U.intersect(L.centralizer(U)) == centre_by_restriction(L, U)


# ------------------------------------------------------------ whole report

def test_structure_report_c2_gf3():
    L = fixture("C2", gf(3))
    rep = structure_report(L)
    assert rep.predicates["solvable"]
    assert not rep.predicates["nilpotent"]
    assert rep.decomposition is not None
    assert rep.decomposition_error is None
    assert rep.nilradical_mode == "exact"
    assert rep.nilradical == L.derived_space()
    names = {c.clause for c in rep.clauses}
    assert "ideal_chain_alignment" in names
    assert not any(c.failed for c in rep.clauses)


def test_structure_report_lists_each_known_ideal_once(r2):
    # 0, L^2 and L; Leib(L) and Z(L) are zero
    rep = structure_report(r2)
    clause = next(c for c in rep.clauses if c.clause == "ideal_chain_alignment")
    assert clause.detail == "checked 3 ideals"


def test_structure_report_h3_records_failure(h3):
    rep = structure_report(h3)
    assert rep.decomposition is None
    assert rep.decomposition_error


def test_clause_result_failed_semantics():
    assert not ClauseResult("x", False, None, "n/a").failed
    assert not ClauseResult("x", True, True).failed
    assert ClauseResult("x", True, False).failed
