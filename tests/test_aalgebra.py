import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from kernel_reference import (ideal_centralizer_by_pairs,
                              ideal_chain_alignment_by_sums,
                              ideal_part_split_by_sums,
                              intersection_quotient_by_pairs,
                              lemma_aa_by_decomposition,
                              left_products_chain_by_every_pair, perturbed,
                              quotient_closure_by_quotients,
                              quotient_verdicts_by_quotients,
                              witness_candidates_by_every_operator,
                              witness_candidates_by_scalar_draws,
                              witness_search_by_every_operator,
                              witness_search_by_scalar_draws,
                              witness_search_without_engel_bound)
from leibnizalg import aalgebra, decompose, linalg
from leibnizalg.aalgebra import (_BATTERY, _STRUCTURE, ClauseResult,
                                 _check_abelian_ideals_commute,
                                 _check_cartan_complements,
                                 _check_ideal_centralizer_criterion,
                                 _check_ideal_chain_alignment,
                                 _check_ideal_part_split,
                                 _check_intersection_quotient,
                                 _check_left_products_in_right_chain,
                                 _check_quotient_closure, _engel_bounded,
                                 _necessary_condition_violation,
                                 _witness_candidates, is_a_algebra,
                                 lemma_aa_certificate, structure_report,
                                 theorem_battery, verify_witness,
                                 witness_search)
from leibnizalg.core import LeibnizAlgebra, direct_sum
from leibnizalg.corpus import fixture
from leibnizalg.cyclic import build_cyclic
from leibnizalg.enumeration import (DEFAULT_BUDGET, enumerate_spaces,
                                    is_enumerable, total_subspaces)
from leibnizalg.errors import NotAnIdeal, NotLeibniz
from leibnizalg.fields import QQ, gf
from leibnizalg.series import (is_metabelian, is_nilpotent_space,
                               upper_central_series)


# ------------------------------------------------------------------ verdicts

def test_c2_true_by_certificate():
    v = is_a_algebra(fixture("C2", QQ))
    assert v.is_true and v.certificate == "lemma_aa"
    assert v.witness is None


def test_r2_true():
    v = is_a_algebra(fixture("r2", QQ))
    assert v.is_true and v.certificate == "lemma_aa"


def test_c3a_false_with_witness():
    L = fixture("C3a", QQ)
    v = is_a_algebra(L)
    assert v.is_false
    assert v.witness is not None
    assert v.witness.basis == ((Fraction(1), Fraction(0), Fraction(-1)),
                               (Fraction(0), Fraction(1), Fraction(-1)))
    assert verify_witness(L, v.witness)


def test_h3_false_nilpotent_self(h3):
    v = is_a_algebra(h3)
    assert v.is_false and v.certificate == "nilpotent_self"
    assert v.witness.dim == 3
    assert verify_witness(h3, v.witness)


def test_sl2_unknown(sl2):
    v = is_a_algebra(sl2)
    assert v.is_unknown
    assert v.value is None
    assert len(v.reasons) == 3
    assert any("metabelian" in r for r in v.reasons)
    assert any("witness" in r for r in v.reasons)
    assert any("infinite field" in r for r in v.reasons)


def test_necessary_condition_violation_is_a_battery_detail():
    # H3 + r2 is solvable; its second derived term also holds the centre of
    # H3, its second lower nilpotent term is only the derived line of r2
    L = direct_sum(fixture("H3", QQ), fixture("r2", QQ))
    assert (_necessary_condition_violation(L)
            == "derived series differs from the lower nilpotent series")
    v = is_a_algebra(L)
    assert v.is_false and v.certificate == "witness"
    assert _necessary_condition_violation(fixture("r2", QQ)) is None
    assert _necessary_condition_violation(fixture("sl2", QQ)) is None


def test_sl2_finite_decided():
    # over GF(3) the whole subalgebra lattice is enumerable
    v = is_a_algebra(fixture("sl2", gf(3)))
    assert not v.is_unknown


def test_abelian_certificates():
    v = is_a_algebra(fixture("A2", QQ))
    assert v.is_true and v.certificate == "abelian"
    one = fixture("A2", QQ)
    v = is_a_algebra(one.quotient(one.span([(0, 1)])))
    assert v.is_true and v.certificate == "dimension"


def test_exhaustive_certificate():
    v = is_a_algebra(fixture("C2", gf(3)))
    assert v.is_true and v.certificate == "exhaustive"


def test_verdict_cached():
    L = fixture("C2", QQ)
    assert is_a_algebra(L) is is_a_algebra(L)


def test_exhaustive_verdict_memoises_subalgebra_scan():
    # the battery's Cartan, nilpotent and Frattini clauses reuse this scan
    L = fixture("r2", gf(3))
    assert is_a_algebra(L).certificate == "exhaustive"
    assert ("_scan", "subalgebras") in L._cache


def test_false_witnesses_verified(small_finite_members):
    for m in small_finite_members[:60]:
        v = is_a_algebra(m.algebra)
        if v.is_false:
            assert v.witness is not None
            assert verify_witness(m.algebra, v.witness)


def test_verify_witness_rejects_bad(sl2, h3):
    # the full sl2 is not nilpotent, so it is no witness
    assert not verify_witness(sl2, sl2.full_space())
    # an abelian subalgebra is no witness either
    assert not verify_witness(h3, h3.span([(0, 0, 1)]))
    # dimension 1 can never witness
    assert not verify_witness(h3, h3.span([(1, 0, 0)]))


# --------------------------------------------------------------- lemma gate

def test_witness_search_squares_each_operator_once(monkeypatch):
    # one Fitting power per candidate: a 3 x 3 operator needs at most two
    # squarings, whether it is nilpotent or not
    calls = Counter()
    mat_mul, right_mult = linalg.mat_mul, LeibnizAlgebra.right_mult

    def counting_mat_mul(*args):
        calls["mat_mul"] += 1
        return mat_mul(*args)

    def counting_right_mult(self, x):
        calls["right_mult"] += 1
        return right_mult(self, x)

    monkeypatch.setattr(linalg, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(LeibnizAlgebra, "right_mult", counting_right_mult)
    witness_search(fixture("sl2", QQ))
    assert 0 < calls["mat_mul"] <= 2 * calls["right_mult"]


def test_witness_search_takes_no_closure_the_engel_bound_refuses(monkeypatch):
    # sl2 has no witness: each basis sum or difference squares to 0, so it
    # spans a line and takes no closure, and a random element acts
    # non-nilpotently, so no random pair passes the bound
    generators = []
    closure = LeibnizAlgebra.closure

    def counting_closure(self, vectors):
        generators.append(len(vectors))
        return closure(self, vectors)

    monkeypatch.setattr(LeibnizAlgebra, "closure", counting_closure)
    assert witness_search(fixture("sl2", QQ)) is None
    assert generators == []


@pytest.mark.parametrize("L", [fixture("C3a", QQ), build_cyclic(QQ, (0, 0, 1))],
                         ids=["C3a", "cyclic"])
def test_witness_candidates_close_only_singles_that_square_to_nonzero(monkeypatch, L):
    # a single u with u^2 = 0 spans the line Fu, which is no witness; every
    # other single that passes the Engel bound takes its closure
    closed = []
    closure = LeibnizAlgebra.closure

    def recording_closure(self, vectors):
        if len(vectors) == 1:
            closed.append(tuple(vectors[0]))
        return closure(self, vectors)

    monkeypatch.setattr(LeibnizAlgebra, "closure", recording_closure)
    list(_witness_candidates(L, 0))
    singles = decompose._sums_differences(L.field, L.full_space().basis)
    squaring = [u for u in singles if any(L.bracket(u, u))]
    assert closed == [u for u in squaring if _engel_bounded(L, [u])]
    assert closed and len(squaring) < len(singles)


@pytest.mark.parametrize("X", [fixture("r2", QQ), build_cyclic(QQ, (0, 0, 1))],
                         ids=["r2", "cyclic"])
def test_witness_search_takes_one_fitting_null_per_operator(monkeypatch, X):
    # R_x = R_y when x - y lies in the abelian summand, so only the distinct
    # right multiplications among the first 2n singles get a Fitting null.
    # In the cyclic algebra, x^2 has [x^2, L] = 0 but R_{x^2} != 0
    L = direct_sum(X, fixture("A2", QQ))
    xs = []
    fitting_null = aalgebra._fitting_null

    def recording_fitting_null(L, K, x):
        xs.append(tuple(x))
        return fitting_null(L, K, x)

    monkeypatch.setattr(aalgebra, "_fitting_null", recording_fitting_null)
    list(_witness_candidates(L, 0))
    singles = decompose._sums_differences(L.field, L.full_space().basis)[:2 * L.dim]
    operators = {}
    for x in singles:
        operators.setdefault(tuple(map(tuple, L.right_mult(x))), x)
    assert xs == list(operators.values())
    assert len(xs) < len(singles)


def test_engel_bound_passes_every_nilpotent_subalgebra(members):
    # and refuses some subalgebra that is not nilpotent, or it would gate nothing
    refused = 0
    for m in members:
        L = m.algebra
        if not L.field.is_finite or total_subspaces(L.dim, L.field.size) > 400:
            continue
        for U in enumerate_spaces(L, "subalgebras", 400):
            if is_nilpotent_space(L, U):
                assert _engel_bounded(L, U.basis), (m.label, U.basis)
            else:
                refused += not _engel_bounded(L, U.basis)
    assert refused


@pytest.mark.parametrize("finite", [False, True], ids=["rational", "finite"])
def test_engel_bound_changes_no_witness_search(members, finite):
    # every member, whatever its subspace count: a finite one past the
    # budget reaches the search through is_a_algebra
    for m in members:
        L = m.algebra
        if L.field.is_finite == finite:
            for seed in (0, 1):
                assert (witness_search(L, seed)
                        == witness_search_without_engel_bound(L, seed)), m.label


@pytest.mark.parametrize("finite", [False, True], ids=["rational", "finite"])
def test_vector_draws_change_no_witness_candidate(members, finite):
    # the whole candidate stream, not just the witness: no corpus verdict
    # rests on the random phase, so only its closures show a changed draw.
    # A finite member reaches the search through is_a_algebra when its
    # lattice is past the budget, here 10^4 subspaces
    for m in members:
        L = m.algebra
        if L.field.is_finite == finite and not is_enumerable(L, 10 ** 4):
            for seed in (0, 1):
                assert (list(_witness_candidates(L, seed))
                        == witness_candidates_by_scalar_draws(L, seed)), m.label
                assert (witness_search(L, seed)
                        == witness_search_by_scalar_draws(L, seed)), m.label


def _verified_order(candidates):
    """The candidates of dimension >= 2, each at its first appearance: the
    ones ``witness_search`` verifies, in its order."""
    return list(dict.fromkeys(U for U in candidates if U.dim >= 2))


@pytest.mark.parametrize("finite", [False, True], ids=["rational", "finite"])
def test_operator_skips_change_no_witness_search(members, finite):
    # the stream without skips also yields lines and repeated Fitting
    # nulls, which witness_search passes over; the corpus must show skips
    skipped = 0
    for m in members:
        L = m.algebra
        if L.field.is_finite == finite and not is_enumerable(L, 10 ** 4):
            for seed in (0, 1):
                new = list(_witness_candidates(L, seed))
                old = list(witness_candidates_by_every_operator(L, seed))
                assert _verified_order(new) == _verified_order(old), m.label
                assert (witness_search(L, seed)
                        == witness_search_by_every_operator(L, seed)), m.label
                skipped += len(old) - len(new)
    assert skipped > 0


def _chain_keys(L, ideals):
    """The pairs (A, x) the left-products clause counts, the pairs among
    them with L_x != 0 on A, and their distinct keys (A, L_x on A, R_x on A)."""
    xs = decompose._sums_differences(L.field, L.full_space().basis)
    pairs, acting, keys = 0, 0, set()
    for A in ideals:
        if A.dim == 0 or not L.is_abelian_space(A):
            continue
        for x in xs:
            if pairs >= aalgebra._TRIPLE_CAP:
                break
            if A.contains(L.bracket(x, x)):
                pairs += 1
                lx = tuple(L.bracket(x, w) for w in A.basis)
                if any(map(any, lx)):
                    acting += 1
                    keys.add((A, lx, tuple(L.bracket(w, x) for w in A.basis)))
    return pairs, acting, len(keys)


def test_chain_skips_change_no_left_products_clause(members, monkeypatch):
    # a chain starts with right = A, the ideal object itself, so the calls
    # of contains_space on an ideal count the pairs whose chains are built:
    # one per distinct key, and fewer than half of the pairs
    built = []
    contains_space = linalg.Subspace.contains_space

    def recording_contains_space(self, other):
        built.append(self)
        return contains_space(self, other)

    monkeypatch.setattr(linalg.Subspace, "contains_space", recording_contains_space)
    totals = Counter()
    for m in members:
        L = m.algebra
        ideals = aalgebra._Facts(L, 0, 3000).ideals
        built.clear()
        got = _check_left_products_in_right_chain(L, ideals)
        chains = sum(any(U is A for A in ideals) for U in built)
        assert got == left_products_chain_by_every_pair(L, ideals), m.label
        pairs, acting, keys = _chain_keys(L, ideals)
        assert got == (True, f"checked {pairs} pairs") and chains == keys, m.label
        totals.update(pairs=pairs, acting=acting, keys=keys)
    assert totals["keys"] < totals["acting"] and totals["keys"] < totals["pairs"] / 2


def test_chain_skips_keep_the_failure_detail(members):
    # a perturbed table breaks the identity, and the ideals of the algebra
    # it came from are mostly no ideals of it, so some chain escapes
    rng = random.Random("left-products")
    outcomes = Counter()
    for m in members:
        L = m.algebra
        if L.dim > 5:
            continue
        ideals = aalgebra._Facts(L, 0, 3000).ideals
        for _ in range(2):
            P = perturbed(L, rng)
            got = _check_left_products_in_right_chain(P, ideals)
            assert got == left_products_chain_by_every_pair(P, ideals), m.label
            outcomes[got[0]] += 1
    assert outcomes[False] and outcomes[True]


def test_engel_bound_ignores_nonzero_scalings(members):
    # (a y) R_{b x}^k = a b^k y R_x^k; the sets span both answers, or the
    # test would show nothing
    rng = random.Random(27)
    answers = Counter()
    for m in members:
        L = m.algebra
        if L.field.is_finite:
            continue
        singles = decompose._sums_differences(L.field, L.full_space().basis)
        for gens in [[u] for u in singles] + [list(p) for p in zip(singles, singles[1:])]:
            scalars = [QQ.random_scalar(rng) or 1 for _ in gens]
            scaled = [tuple(QQ.mul(c, a) for a in g) for c, g in zip(scalars, gens)]
            bounded = _engel_bounded(L, gens)
            answers[bounded] += 1
            assert _engel_bounded(L, scaled) == bounded, (m.label, gens, scalars)
    assert answers[True] and answers[False]


def _t_semidirect_h3():
    """span(t) acting on H3 = span(x, y, z): [t,x] = x, [t,y] = y,
    [t,z] = 2z, [x,y] = z, and the opposite brackets negated."""
    index = {"t": 0, "x": 1, "y": 2, "z": 3}
    table = [[(Fraction(0),) * 4 for _ in range(4)] for _ in range(4)]
    for a, b, c, k in (("t", "x", "x", 1), ("t", "y", "y", 1),
                       ("t", "z", "z", 2), ("x", "y", "z", 1)):
        v = [Fraction(0)] * 4
        v[index[c]] = Fraction(k)
        table[index[a]][index[b]] = tuple(v)
        table[index[b]][index[a]] = tuple(-e for e in v)
    return LeibnizAlgebra(QQ, table, tuple(index))


@pytest.mark.parametrize("silenced,found", [
    ((), True), (("lower_nilpotent_series",), True), (("derived_series",), True),
    (("derived_series", "lower_nilpotent_series"), False)],
    ids=["both", "derived", "lower_nilpotent", "neither"])
def test_witness_search_finds_h3_through_a_series_phase(monkeypatch, silenced, found):
    # no basis sum or difference, Fitting null or random pair exposes
    # H3 = L^2 here; the derived and the lower nilpotent series each do
    L = _t_semidirect_h3()
    L.require_leibniz()
    for name in silenced:
        monkeypatch.setattr(aalgebra, name, lambda L: (L.full_space(),))
    for seed in (0, 1):
        W = witness_search(L, seed)
        assert W == (L.derived_space() if found else None)


def test_lemma_aa_certificate_c2():
    granted, reason = lemma_aa_certificate(fixture("C2", QQ))
    assert granted


def test_lemma_aa_refuses_h3(h3):
    granted, reason = lemma_aa_certificate(h3)
    assert not granted
    assert reason


def test_lemma_aa_refuses_non_metabelian(sl2):
    granted, reason = lemma_aa_certificate(sl2)
    assert not granted
    assert "metabelian" in reason


def test_lemma_aa_enumerates_complements_at_the_exhaustive_budget(tiny_finite_members):
    # total_subspaces(n, q) is the least budget at which the
    # monolithic_strong_certificate row runs
    for m in tiny_finite_members:
        L = m.algebra
        _, reason = lemma_aa_certificate(L, total_subspaces(L.dim, L.field.size))
        assert "unenumerable" not in reason, m.label


def test_lemma_aa_matches_the_decomposition_certificate(members):
    """Where the triangular decomposition exists, its bottom part and the
    coordinate complement of L^2 decide alike; where it does not, the
    coordinate complement grants nothing either."""
    for m in members:
        for budget in (10 ** 5, 100):
            granted, reason = lemma_aa_certificate(m.algebra, budget)
            ref = lemma_aa_by_decomposition(m.algebra, budget)
            if ref[1].startswith("no split"):
                assert not granted, (m.label, budget)
            else:
                assert (granted, reason) == ref, (m.label, budget)


def test_lemma_aa_is_its_definition_on_tiny_metabelian_members(tiny_finite_members):
    """Granted exactly when R_x is invertible on L^2 for every x outside
    L^2, wherever the gate lets the certificate decide."""
    decided = 0
    for m in tiny_finite_members:
        L = m.algebra
        if not is_metabelian(L):
            continue
        granted, reason = lemma_aa_certificate(L, DEFAULT_BUDGET)
        if "unenumerable" in reason:
            continue
        decided += 1
        der = L.derived_space()
        definition = all(
            L.span([L.bracket(d, x) for d in der.basis]).dim == der.dim
            for x in itertools.product(L.field.elements(), repeat=L.dim)
            if not der.contains(x))
        assert granted == definition, m.label
    assert decided > 100


def test_lemma_aa_and_verdicts_need_no_decomposition(members, monkeypatch):
    rational = [m.algebra for m in members if not m.algebra.field.is_finite]
    expected = [(lemma_aa_certificate(L), is_a_algebra(L)) for L in rational]

    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition was computed")

    monkeypatch.setattr(aalgebra, "triangular_decomposition", refuse)
    monkeypatch.setattr(aalgebra, "fitting_family", refuse)
    monkeypatch.setattr(decompose, "cartan_subalgebra", refuse)
    for L, want in zip(rational, expected):
        fresh = LeibnizAlgebra(L.field, L.table, L.names)
        assert (lemma_aa_certificate(fresh), is_a_algebra(fresh)) == want, str(L)


# ------------------------------------------------------------------- battery

def test_battery_c3b_gf2():
    rep = theorem_battery(fixture("C3b", gf(2)))
    assert rep.ok
    assert rep.verdict.is_true
    assert not rep.hard_failures
    assert len(rep.clauses) == 34
    names = {c.clause for c in rep.clauses}
    for expected in ("abelian_ideals_commute", "quotient_closure",
                     "derived_equals_lower_nilpotent", "strong_split",
                     "centre_derived_intersection", "abelian_complement_criterion",
                     "left_products_in_right_chain", "derived_length_bound"):
        assert expected in names


def test_battery_c2_gf3():
    rep = theorem_battery(fixture("C2", gf(3)))
    assert rep.ok and rep.verdict.is_true


def test_battery_runs_on_unknown(sl2):
    rep = theorem_battery(sl2)
    assert rep.verdict.is_unknown
    assert rep.ok


def test_battery_h3(h3):
    # H3 is not an A-algebra: A-gated clauses are skipped, general ones run
    rep = theorem_battery(h3)
    assert rep.verdict.is_false
    assert rep.ok


def test_battery_probe_findings_not_failures():
    rep = theorem_battery(fixture("C3a", QQ))
    probe = [c for c in rep.clauses if c.clause == "derived_length_bound"]
    assert len(probe) == 1
    assert "derived_length_bound" not in rep.hard_failures


def test_failing_probe_is_a_finding_not_a_failure():
    def check(L):
        return False, f"dimension {L.dim}"

    row = aalgebra._Row("probe_clause", check, probe=True)
    facts = aalgebra._Facts(fixture("r2", QQ), 0, DEFAULT_BUDGET)
    clauses, findings = aalgebra._run((row,), facts)
    assert clauses == (ClauseResult("probe_clause", True, True, "finding: dimension 2"),)
    assert findings == ("dimension 2",)
    assert not any(c.failed for c in clauses)


@pytest.mark.parametrize("report", [theorem_battery, structure_report],
                         ids=["theorem_battery", "structure_report"])
def test_both_reports_refuse_a_table_that_is_not_leibniz(report):
    # [e1, e1] = e1 breaks the identity at (0, 0, 0): e1 = [e1, e1] - [e1, e1] = 0
    with pytest.raises(NotLeibniz) as exc:
        report(LeibnizAlgebra(QQ, [[[1]]]))
    assert exc.value.violation.triple == (0, 0, 0)


def _gf4_on_gf2_squared():
    """GF(4) = GF(2)[w]/(w^2 + w + 1) acting on V = GF(2)^2 by
    multiplication: basis v1 = 1, v2 = w of V and b1 = 1, b2 = w of GF(4),
    with [v, b] = v b and every other bracket zero.  A Leibniz algebra
    that is not a Lie algebra, as [b, v] = 0 != -[v, b]."""
    F = gf(2)
    zero = (0, 0, 0, 0)
    table = [[zero] * 4 for _ in range(4)]
    table[0][2] = (1, 0, 0, 0)  # [v1, b1] = 1
    table[0][3] = (0, 1, 0, 0)  # [v1, b2] = w
    table[1][2] = (0, 1, 0, 0)  # [v2, b1] = w
    table[1][3] = (1, 1, 0, 0)  # [v2, b2] = w^2 = 1 + w
    return LeibnizAlgebra(F, table, ("v1", "v2", "b1", "b2"))


def test_non_lie_algebra_granted_by_the_finite_certificate_sweep():
    L = _gf4_on_gf2_squared()
    L.require_leibniz()
    assert L.bracket(L.basis_vector(2), L.basis_vector(0)) == (0, 0, 0, 0)
    assert L.derived_space().dim == 2  # so the complement B has dim 2
    assert lemma_aa_certificate(L) == (True, "")
    v = is_a_algebra(L)
    assert v.is_true and v.certificate == "exhaustive"
    rep = theorem_battery(L)
    assert rep.ok
    holds = {c.clause: (c.applicable, c.holds) for c in rep.clauses}
    assert holds["abelian_complement_criterion"] == (True, True)
    assert holds["monolithic_strong_certificate"] == (True, True)


def test_battery_deterministic():
    a = theorem_battery(fixture("C3b", gf(2)), seed=0)
    b = theorem_battery(fixture("C3b", gf(2)), seed=0)
    assert [(c.clause, c.applicable, c.holds) for c in a.clauses] == \
           [(c.clause, c.applicable, c.holds) for c in b.clauses]


# ------------------------------------------- battery fast paths vs definitions

def _commute_by_products(L, B, C):
    return L.product(B, C).dim == 0 == L.product(C, B).dim


def _assert_commute_matches_products(L):
    """The clause and every pair's centralizer test against [B,C] and [C,B]."""
    ideals = list(enumerate_spaces(L, "ideals"))
    outcome = _check_abelian_ideals_commute(L, ideals)
    expected = (True, "")
    if L.is_abelian():
        # every bracket is zero, so every product of subspaces is zero
        assert all(L.centralizer(B) == L.full_space() for B in ideals)
    else:
        abelian = [I for I in ideals if L.is_abelian_space(I)]
        cent = {B: L.centralizer(B) for B in abelian}
        for B, C in itertools.combinations_with_replacement(abelian, 2):
            commute = _commute_by_products(L, B, C)
            assert cent[B].contains_space(C) == commute
            if not commute and expected[0]:
                expected = (False, f"abelian ideals of dims {B.dim}, {C.dim} do not commute")
    assert outcome == expected
    return outcome


def test_abelian_ideals_commute_matches_products(small_finite_members):
    for m in small_finite_members:
        _assert_commute_matches_products(m.algebra)


def test_abelian_ideals_commute_detects_h3_gf2(h3_gf2):
    L = h3_gf2
    xz = L.span([(1, 0, 0), (0, 0, 1)])
    yz = L.span([(0, 1, 0), (0, 0, 1)])
    assert L.is_abelian_space(xz) and L.is_abelian_space(yz)
    assert not L.centralizer(xz).contains_space(yz)
    assert not _commute_by_products(L, xz, yz)
    holds, _ = _assert_commute_matches_products(L)
    assert not holds


def test_battery_builds_each_quotient_once(monkeypatch):
    L = fixture("C3b", gf(3))
    ideals = list(enumerate_spaces(L, "ideals"))
    built = Counter()
    quotient = LeibnizAlgebra.quotient

    def counting_quotient(self, I):
        Q = quotient(self, I)
        if self is L and Q is not L:
            built[I] += 1
        return Q

    monkeypatch.setattr(LeibnizAlgebra, "quotient", counting_quotient)
    rep = theorem_battery(L)
    assert rep.ok and rep.verdict.certificate == "exhaustive"
    names = {c.clause for c in rep.clauses}
    assert {"quotient_closure", "intersection_quotient"} <= names
    assert built[L.zero_space()] == 0
    assert set(built) <= {I for I in ideals if 0 < I.dim < L.dim}
    assert all(count == 1 for count in built.values())
    # the verdicts the intersection clause draws on are all memoised
    _check_quotient_closure(L, ideals, DEFAULT_BUDGET, 0)
    memoised = {key[1]: v for key, v in L._cache.items()
                if key[0] == "_quotient_verdict" and key[2:] == (DEFAULT_BUDGET, 0)}
    assert set(memoised) == {I for I in ideals if I.dim < L.dim}
    assert memoised[L.zero_space()] is is_a_algebra(L)


def test_cartan_complements_take_no_intersection(monkeypatch):
    L = fixture("C3b", gf(3))
    clause = next(c for c in theorem_battery(L).clauses
                  if c.clause == "cartan_complements")
    calls = []
    intersect = linalg.Subspace.intersect

    def counting_intersect(self, other):
        calls.append(other)
        return intersect(self, other)

    monkeypatch.setattr(linalg.Subspace, "intersect", counting_intersect)
    outcome = _check_cartan_complements(L, DEFAULT_BUDGET)
    assert clause.applicable and clause.holds and outcome == (True, "")
    assert calls == []


def test_quotient_clauses_match_the_quotient_algebras(members):
    # every member, the non-A ones with the A-gate dropped: the checks and
    # the verdicts they memoise equal those read off the quotient algebras
    failed = Counter()
    for m in members:
        L = m.algebra
        ideals = aalgebra._Facts(L, 0, 3000).ideals
        verdict = quotient_verdicts_by_quotients(L, 3000, 0)
        got = [_check_quotient_closure(L, ideals, 3000, 0),
               _check_intersection_quotient(L, ideals, 3000, 0),
               _check_ideal_centralizer_criterion(L, ideals)]
        assert got == [quotient_closure_by_quotients(L, ideals, verdict),
                       intersection_quotient_by_pairs(L, ideals, verdict),
                       ideal_centralizer_by_pairs(L, ideals)], m.label
        memoised = {key[1]: v for key, v in L._cache.items()
                    if key[0] == "_quotient_verdict" and key[2:] == (3000, 0)}
        assert all(v == verdict(I) for I, v in memoised.items()), m.label
        failed.update(i for i, (holds, _) in enumerate(got) if holds is False)
    # the failure branches run: quotient_closure fails on every non-A
    # member, through L/0, and the centralizer criterion on some
    assert failed[0] > 100 and failed[2] > 10


def _abelian_line(F):
    return LeibnizAlgebra(F, (((F.zero,),),))


def test_quotient_verdict_refuses_a_subspace_that_is_no_ideal():
    F = gf(4)
    L = direct_sum(fixture("r2", F), _abelian_line(F))
    for U in (L.span([L.basis_vector(1), L.basis_vector(2)]), L.span([L.basis_vector(1)])):
        assert not L.is_ideal(U)
        with pytest.raises(NotAnIdeal):
            aalgebra._quotient_verdict(L, U, DEFAULT_BUDGET, 0)


@pytest.mark.parametrize("X", ["r2", "A2"])
def test_quotient_and_meet_skips_build_nothing_they_decide(monkeypatch, X):
    # X + A1 over GF(4), a battery-dense input: a quotient for exactly the
    # ideals not containing L^2, and a meet for exactly the pairs, and the
    # ideals, that no skip decides; A2 + A1 is abelian and forms none
    F = gf(4)
    L = direct_sum(fixture(X, F), _abelian_line(F))
    facts = aalgebra._Facts(L, 0, DEFAULT_BUDGET)
    ideals, decomp, der = facts.ideals, facts.decomp, L.derived_space()
    pool = ideals[:aalgebra._PAIR_CAP]
    cent = {D: L.centralizer(D) for D in pool}
    top, rest = decomp[0], L.span([v for P in decomp[1:] for v in P.basis])
    quotients, meets = [], []
    quotient, intersect = LeibnizAlgebra.quotient, linalg.Subspace.intersect

    def counting_quotient(self, I):
        if self is L:
            quotients.append(I)
        return quotient(self, I)

    def counting_intersect(self, other):
        meets.append((self, other))
        return intersect(self, other)

    monkeypatch.setattr(LeibnizAlgebra, "quotient", counting_quotient)
    monkeypatch.setattr(linalg.Subspace, "intersect", counting_intersect)
    over = {I for I in ideals if I.contains_space(der)}
    split = [D for D in ideals if not (D.contains_space(top) or D.contains_space(rest))]
    assert len(over) > 2 and bool(split) == (X == "r2")

    assert _check_quotient_closure(L, ideals, DEFAULT_BUDGET, 0) == (True, "")
    assert quotients == [I for I in ideals if I.dim < L.dim and I not in over]
    meets.clear()
    assert _check_intersection_quotient(L, ideals, DEFAULT_BUDGET, 0) == (True, "")
    assert meets == [(B, C) for B, C in itertools.combinations(pool, 2)
                     if B.dim < L.dim and C.dim < L.dim and not (B in over and C in over)]
    meets.clear()
    assert _check_ideal_centralizer_criterion(L, ideals) == (True, "")
    assert meets == [(B, D) for B, D in itertools.combinations_with_replacement(pool, 2)
                     if not cent[D].contains_space(B)]
    meets.clear()
    assert _check_ideal_part_split(L, decomp, ideals) == (True, "")
    assert meets == [(D, P) for D in split for P in (top, rest)]
    meets.clear()
    assert (_check_ideal_chain_alignment(decomp, ideals)
            == (True, f"checked {len(ideals)} ideals"))
    S = L.span([v for P in decomp[:-1] for v in P.basis])
    assert meets == [(D, P) for D in ideals if not D.contains_space(S) for P in decomp]


def test_ideal_splits_skip_nothing_without_a_direct_decomposition():
    # with the top part repeated the parts are no direct sum, so an ideal
    # containing the top part is checked, and it does not split
    F = gf(4)
    L = direct_sum(fixture("r2", F), _abelian_line(F))
    decomp = aalgebra._Facts(L, 0, DEFAULT_BUDGET).decomp
    repeated = (decomp[0],) + decomp
    ideals = list(enumerate_spaces(L, "ideals"))
    assert _check_ideal_part_split(L, repeated, ideals) == ideal_part_split_by_sums(
        L, repeated, ideals) == (False, "ideal of dim 1 does not split")
    assert _check_ideal_chain_alignment(repeated, ideals) == ideal_chain_alignment_by_sums(
        L, repeated, ideals) == (False, "ideal of dim 1 does not align")


@pytest.mark.parametrize("field", [gf(3), QQ], ids=str)
@pytest.mark.parametrize("name", ["C3b", "r2"])
def test_no_copy_of_the_algebra_is_built(monkeypatch, name, field):
    L = fixture(name, field)
    copies = []
    init = LeibnizAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.table == L.table:
            copies.append(self)

    monkeypatch.setattr(LeibnizAlgebra, "__init__", counting_init)
    theorem_battery(L)
    structure_report(L)
    upper_central_series(L)
    assert copies == []
    assert L.restrict(L.full_space()) is L
    assert L.quotient(L.zero_space()) is L


# ------------------------------------------------------- golden report digest

GOLDEN_SUBSPACE_CAP = 300


@pytest.fixture(scope="module")
def golden_reports(members):
    """Battery and structure reports of every member over Q and every
    finite member with at most GOLDEN_SUBSPACE_CAP subspaces."""
    out = []
    for m in members:
        L = m.algebra
        if L.field.is_finite and total_subspaces(L.dim, L.field.size) > GOLDEN_SUBSPACE_CAP:
            continue
        out.append((m, theorem_battery(L), structure_report(L)))
    return out


def _clause_rows(clauses):
    return [(c.clause, c.applicable, c.holds, c.detail) for c in clauses]


def test_battery_and_structure_reports_golden_digest(golden_reports):
    digest = hashlib.sha256()
    for m, rep, srep in golden_reports:
        battery = (m.label, rep.verdict.label, rep.verdict.certificate,
                   _clause_rows(rep.clauses), list(rep.findings))
        dec = srep.decomposition
        structure = (m.label, list(srep.predicates.items()),
                     None if dec is None else [P.dim for P in dec],
                     srep.decomposition_error, srep.nilradical.dim,
                     srep.nilradical_mode, _clause_rows(srep.clauses))
        digest.update(repr((battery, structure)).encode())
    assert len(golden_reports) == 231
    assert digest.hexdigest() == (
        "457ff2c5220b50b8d1a8cc6ee79058e573819eb0b1d922027e338f916ca61acd")


def test_structure_clauses_are_the_battery_clauses_on_a_decomposition(golden_reports):
    """The structure report runs the battery's own rows, gates included,
    and only when L has a decomposition: each of its clauses is the
    battery's result of the same name."""
    positions = [next(i for i, row in enumerate(_BATTERY) if row is s) for s in _STRUCTURE]
    assert positions == sorted(positions) and len(positions) == 9
    names = {row.clause for row in _STRUCTURE}
    compared = 0
    for m, rep, srep in golden_reports:
        expected = [] if srep.decomposition is None else [
            c for c in rep.clauses if c.clause in names]
        assert list(srep.clauses) == expected, m.label
        compared += len(expected)
    assert compared == 1168


# Clauses whose hypotheses can hold over Q; the others need an enumerated
# subspace lattice of L or of a section of it, by a hypothesis or by the
# socle they read.
RATIONAL_CLAUSES = {
    "abelian_ideals_commute", "nilradical_maximal_abelian", "quotient_closure",
    "intersection_quotient", "derived_equals_lower_nilpotent",
    "centre_derived_intersection", "abelian_chain_decomposition",
    "ideal_chain_alignment", "ideal_part_split", "nilradical_chain_splitting",
    "part_centre_alignment", "strong_split", "ideal_centralizer_criterion",
    "left_products_in_right_chain", "nilradical_centralizer",
    "abelian_complement_criterion", "derived_length_bound", "char_zero_metabelian",
}
LATTICE_NAMES = {"exhaustive", "finite_field", "socle"}


def test_every_clause_applies_somewhere(golden_reports):
    applied = {True: set(), False: set()}
    for m, rep, _ in golden_reports:
        applied[m.algebra.field.is_finite] |= {c.clause for c in rep.clauses
                                                if c.applicable}
    table = [row.clause for row in _BATTERY]
    assert len(table) == len(set(table)) == 33
    assert all(row.check.__name__ == "_check_" + row.clause for row in _BATTERY)
    assert set(table) == applied[True] | applied[False]
    assert set(table) - applied[True] == {"char_zero_metabelian"}
    assert applied[False] == RATIONAL_CLAUSES
    assert {row.clause for row in _BATTERY
            if LATTICE_NAMES.isdisjoint(row.gates + row.needs + row.reads)
            } == RATIONAL_CLAUSES
