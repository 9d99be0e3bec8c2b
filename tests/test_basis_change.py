"""Basis-change invariance: what the library says about L does not depend
on the basis its table is written in.

Each pinned member is compared with a copy of itself in the basis of the
columns of one seeded random invertible P.  The witness search draws its
candidates from the basis, so an A-verdict may be decided in one basis
and unknown in the other; such a flip is reported as a finding, and the
clauses that read the verdict are then not compared.
"""

import random
import warnings
from collections import Counter

from kernel_reference import (change_basis, ideal_centralizer_by_pairs,
                              ideal_chain_alignment_by_sums,
                              ideal_part_split_by_sums,
                              intersection_quotient_by_pairs,
                              left_products_chain_by_every_pair,
                              quotient_closure_by_quotients,
                              quotient_verdicts_by_quotients,
                              random_invertible, triangular_by_restriction,
                              witness_search_by_every_operator,
                              witness_search_by_scalar_draws,
                              witness_search_without_engel_bound)
from leibnizalg import aalgebra
from leibnizalg.aalgebra import (lemma_aa_certificate, structure_report, theorem_battery,
                                 witness_search)
from leibnizalg.core import LeibnizAlgebra
from leibnizalg.decompose import triangular_decomposition
from leibnizalg.enumeration import enumerate_spaces, total_subspaces
from leibnizalg.errors import (BudgetExceeded, DecompositionFailed,
                               InfiniteFieldUnsupported)
from leibnizalg.series import nilradical, radical

BASIS_SEED = 18
BUDGET = 3000
RATIONAL_SAMPLE = 8
FINITE_SAMPLE = 16
FINITE_SUBSPACE_CAP = 300


def _radical(L):
    try:
        return radical(L, BUDGET)[0].dim
    except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
        return type(exc).__name__


def _lattice_profile(L):
    if not L.field.is_finite:
        return None
    return tuple(sorted(Counter(U.dim for U in enumerate_spaces(L, kind, BUDGET)).items())
                 for kind in ("subalgebras", "ideals"))


def _invariants(L):
    """What must not change, and the verdict-dependent part apart."""
    report = theorem_battery(L, budget=BUDGET)
    N, mode = nilradical(L, BUDGET)
    fixed = {
        "nilradical": (N.dim, mode),
        "radical": _radical(L),
        "lattices": _lattice_profile(L),
        "certificate": lemma_aa_certificate(L, BUDGET),
    }
    by_verdict = {
        "clauses": [(c.clause, c.applicable, c.holds) for c in report.clauses],
        "hard_failures": len(report.hard_failures),
        "structure": [(c.clause, c.applicable, c.holds)
                      for c in structure_report(L, BUDGET).clauses],
    }
    return report.verdict.label, fixed, by_verdict


def _pinned(members):
    rng = random.Random(BASIS_SEED)
    rational = [m for m in members if not m.algebra.field.is_finite]
    finite = [m for m in members if m.algebra.field.is_finite
              and total_subspaces(m.algebra.dim, m.algebra.field.size) <= FINITE_SUBSPACE_CAP]
    return rng.sample(rational, RATIONAL_SAMPLE) + rng.sample(finite, FINITE_SAMPLE)


def test_answers_do_not_depend_on_the_basis(members):
    rng = random.Random(BASIS_SEED)
    flips = []
    for m in _pinned(members):
        L = m.algebra
        M = change_basis(L, random_invertible(L.field, L.dim, rng))
        label, fixed, by_verdict = _invariants(L)
        label_m, fixed_m, by_verdict_m = _invariants(M)
        assert fixed == fixed_m, m.label
        if "unknown" in (label, label_m) and label != label_m:
            flips.append(f"{m.label}: {label} becomes {label_m}")
            continue
        assert label == label_m, m.label
        assert by_verdict == by_verdict_m, m.label
    for flip in flips:
        warnings.warn(f"finding: basis change flips an A-verdict, {flip}")


def test_engel_bound_changes_no_witness_search_on_the_copies(members):
    rng = random.Random(BASIS_SEED)
    for m in _pinned(members):
        L = m.algebra
        M = change_basis(L, random_invertible(L.field, L.dim, rng))
        for seed in (0, 1):
            assert (witness_search(M, seed)
                    == witness_search_without_engel_bound(M, seed)), m.label


def test_vector_draws_change_no_witness_search_on_the_copies(members):
    rng = random.Random(BASIS_SEED)
    for m in _pinned(members):
        L = m.algebra
        M = change_basis(L, random_invertible(L.field, L.dim, rng))
        for seed in (0, 1):
            assert witness_search(M, seed) == witness_search_by_scalar_draws(M, seed), m.label


def test_operator_skips_change_no_search_or_chain_on_the_copies(members):
    rng = random.Random(BASIS_SEED)
    for m in _pinned(members):
        L = m.algebra
        M = change_basis(L, random_invertible(L.field, L.dim, rng))
        for seed in (0, 1):
            assert (witness_search(M, seed)
                    == witness_search_by_every_operator(M, seed)), m.label
        ideals = aalgebra._Facts(M, 0, BUDGET).ideals
        assert (aalgebra._check_left_products_in_right_chain(M, ideals)
                == left_products_chain_by_every_pair(M, ideals)), m.label


def _triangular_outcome(fn, L):
    try:
        return fn(L, BUDGET)
    except DecompositionFailed as exc:
        return str(exc)


def test_triangular_parts_match_the_recursion_on_the_copies(members):
    rng = random.Random(BASIS_SEED)
    for m in _pinned(members):
        L = m.algebra
        M = change_basis(L, random_invertible(L.field, L.dim, rng))
        copy = LeibnizAlgebra(M.field, M.table, M.names)
        assert (_triangular_outcome(triangular_decomposition, M)
                == _triangular_outcome(triangular_by_restriction, copy)), m.label


def test_quotient_and_ideal_pair_clauses_match_the_reference_loops_on_the_copies(members):
    rng = random.Random(BASIS_SEED)
    for m in _pinned(members):
        L = m.algebra
        M = change_basis(L, random_invertible(L.field, L.dim, rng))
        facts = aalgebra._Facts(M, 0, BUDGET)
        ideals, decomp = facts.ideals, facts.decomp
        verdict = quotient_verdicts_by_quotients(M, BUDGET, 0)
        assert (aalgebra._check_quotient_closure(M, ideals, BUDGET, 0)
                == quotient_closure_by_quotients(M, ideals, verdict)), m.label
        assert (aalgebra._check_intersection_quotient(M, ideals, BUDGET, 0)
                == intersection_quotient_by_pairs(M, ideals, verdict)), m.label
        assert (aalgebra._check_ideal_centralizer_criterion(M, ideals)
                == ideal_centralizer_by_pairs(M, ideals)), m.label
        if decomp is not None:
            assert (aalgebra._check_ideal_part_split(M, decomp, ideals)
                    == ideal_part_split_by_sums(M, decomp, ideals)), m.label
            assert (aalgebra._check_ideal_chain_alignment(decomp, ideals)
                    == ideal_chain_alignment_by_sums(M, decomp, ideals)), m.label
