"""A-algebra verdicts and the empirical theorem battery.

An algebra is an A-algebra when every nilpotent subalgebra is abelian.
Over a finite field within the enumeration budget the verdict is decided
exhaustively.  Otherwise the verdict engine combines necessary-condition
checks, a sufficient-condition certificate, and a targeted witness
search; when none of them settles the question the verdict is honestly
"unknown" with the reasons recorded.  A "false" verdict always carries a
re-verified witness subalgebra.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .core import Embedding, LeibnizAlgebra, memo
from .decompose import (ClauseResult, DecompositionFailed, _na,
                        check_frattini_free_socle, check_ideal_chain_alignment,
                        check_max_nilpotent_cartan_split,
                        check_max_nilpotent_complement,
                        check_max_nilpotent_inventory, check_minimal_ideal_centre,
                        check_minimal_ideal_derived, check_minimal_ideal_location,
                        check_minimal_ideal_position, check_monolith_abelian,
                        check_monolith_centralizer, check_monolith_centre_product,
                        check_monolith_frattini, check_monolith_nilradical_top,
                        check_nilradical_chain, check_part_centre_alignment,
                        check_strong_split, enumerated_cartan_subalgebras,
                        max_nilpotent_subalgebras, triangular_decomposition)
from .enumeration import (DEFAULT_BUDGET, enumerate_spaces, socle_analysis,
                          total_subspaces)
from .errors import (BudgetExceeded, InfiniteFieldUnsupported, NoSolution,
                     NotDecomposing)
from .linalg import (Subspace, fitting_power, kernel, restrict_operator,
                     vec_add, vec_sub)
from .series import (derived_series, is_completely_solvable, is_metabelian,
                     is_nilpotent, is_nilpotent_space, is_solvable,
                     lower_nilpotent_series, nilradical)

_WITNESS_RANDOM_TRIES = 40
_PAIR_CAP = 20
_TRIPLE_CAP = 500


@dataclass(frozen=True)
class AVerdict:
    """Three-valued answer: True, False with witness, or None (unknown)."""
    value: Optional[bool]
    certificate: Optional[str] = None
    witness: Optional[Subspace] = None
    reasons: tuple = ()

    @property
    def is_true(self) -> bool:
        return self.value is True

    @property
    def is_false(self) -> bool:
        return self.value is False

    @property
    def is_unknown(self) -> bool:
        return self.value is None

    @property
    def label(self) -> str:
        return {True: "true", False: "false", None: "unknown"}[self.value]


def verify_witness(L: LeibnizAlgebra, U: Subspace) -> bool:
    """A valid witness is a nilpotent non-abelian subalgebra."""
    if U.dim < 2:
        return False
    if not U.contains_space(L.product(U, U)):
        return False
    if L.is_abelian_space(U):
        return False
    return is_nilpotent_space(L, U)


def _false_verdict(L: LeibnizAlgebra, U: Subspace, certificate: str) -> AVerdict:
    if not verify_witness(L, U):
        raise NotDecomposing("candidate witness failed re-verification")
    return AVerdict(False, certificate, U)


def _basis_sums_differences(L: LeibnizAlgebra) -> list:
    """The basis vectors, then e_i + e_j and e_i - e_j for each i < j."""
    F, n = L.field, L.dim
    out = [L.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u, v = L.basis_vector(i), L.basis_vector(j)
            out.append(vec_add(F, u, v))
            out.append(vec_sub(F, u, v))
    return out


def _witness_candidates(L: LeibnizAlgebra, seed: int):
    """Deterministic stream of subalgebra candidates likely to expose a
    nilpotent non-abelian subalgebra."""
    F, n = L.field, L.dim
    singles = _basis_sums_differences(L)
    for u in singles:
        yield L.closure([u])
    for x in singles[:2 * n]:
        power = fitting_power(F, L.right_mult(x))
        if any(map(any, power)):  # x does not act nilpotently
            yield kernel(F, power)
    ds = derived_series(L)
    for term in ds.terms[1:]:
        yield term
    lns = lower_nilpotent_series(L)
    for term in lns.terms[1:]:
        yield term
    rng = random.Random(seed)
    for _ in range(_WITNESS_RANDOM_TRIES):
        u = tuple(F.random_scalar(rng) for _ in range(n))
        v = tuple(F.random_scalar(rng) for _ in range(n))
        yield L.closure([u, v])


def witness_search(L: LeibnizAlgebra, seed: int = 0) -> Optional[Subspace]:
    """First re-verified nilpotent non-abelian subalgebra found, if any."""
    seen = set()
    for U in _witness_candidates(L, seed):
        if U in seen:
            continue
        seen.add(U)
        if verify_witness(L, U):
            return U
    return None


def _invertible_on(L: LeibnizAlgebra, x, space: Subspace) -> bool:
    try:
        R = restrict_operator(L.field, L.right_mult(x), space)
    except NoSolution:
        return False
    return kernel(L.field, R, ncols=space.dim).dim == 0


@memo
def lemma_aa_certificate(L: LeibnizAlgebra, seed: int = 0,
                         budget: int = DEFAULT_BUDGET):
    """Sufficient condition: metabelian with a complement B to the derived
    subalgebra such that right multiplication by every nonzero element of
    B is invertible on it.

    Returns (granted, reason).  The universal quantifier over B is only
    decidable when the derived subalgebra is zero, B is a line, or the
    field is finite and small enough; otherwise the certificate is
    refused with the reason.
    """
    if not is_metabelian(L):
        return False, "algebra is not metabelian"
    der = L.derived_space()
    if der.dim == 0:
        return True, "abelian"
    try:
        decomp = triangular_decomposition(L, seed=seed, budget=budget)
    except DecompositionFailed as exc:
        return False, f"no split over the derived subalgebra: {exc}"
    B = decomp.bottom
    F = L.field
    if B.dim == 1:
        ok = _invertible_on(L, B.basis[0], der)
        return ok, "" if ok else "right multiplication by the complement line degenerates"
    if F.is_finite and F.size ** B.dim <= budget:
        embedding = Embedding(B)
        for coeffs in itertools.product(F.elements(), repeat=B.dim):
            if not any(coeffs):
                continue
            if not _invertible_on(L, embedding.embed(coeffs), der):
                return False, "some complement element degenerates on the derived subalgebra"
        return True, ""
    return False, "complement of dimension >= 2 over an unenumerable field"


def _necessary_condition_violation(L: LeibnizAlgebra) -> Optional[str]:
    if is_solvable(L):
        ds = derived_series(L)
        lns = lower_nilpotent_series(L)
        if ds.terms != lns.terms:
            return "derived series differs from the lower nilpotent series"
        if L.centre().intersect(L.derived_space()).dim != 0:
            return "centre meets the derived subalgebra"
        if L.field.char == 0 and not is_metabelian(L):
            return "characteristic-zero solvable algebra is not metabelian"
    return None


@memo
def is_a_algebra(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET,
                 seed: int = 0) -> AVerdict:
    """Decide whether every nilpotent subalgebra is abelian."""
    if L.dim <= 1:
        return AVerdict(True, "dimension")
    if is_nilpotent(L):
        if L.is_abelian():
            return AVerdict(True, "abelian")
        return _false_verdict(L, L.full_space(), "nilpotent_self")
    if L.field.is_finite and total_subspaces(L.dim, L.field.size) <= budget:
        for U in enumerate_spaces(L, "subalgebras", budget):
            if U.dim < 2:
                continue
            if not L.is_abelian_space(U) and is_nilpotent_space(L, U):
                return _false_verdict(L, U, "exhaustive")
        return AVerdict(True, "exhaustive")
    reasons = []
    violation = _necessary_condition_violation(L)
    if violation is not None:
        w = witness_search(L, seed)
        if w is not None:
            return _false_verdict(L, w, "witness")
        return AVerdict(None, None, None,
                        (violation + "; witness search found nothing",))
    granted, why = lemma_aa_certificate(L, seed, budget)
    if granted:
        return AVerdict(True, "lemma_aa")
    reasons.append(f"certificate refused: {why}")
    w = witness_search(L, seed)
    if w is not None:
        return _false_verdict(L, w, "witness")
    reasons.append("witness search found nothing")
    if not L.field.is_finite:
        reasons.append("exhaustive check unavailable over an infinite field")
    else:
        reasons.append("subspace count exceeds the enumeration budget")
    return AVerdict(None, None, None, tuple(reasons))


@dataclass(frozen=True)
class BatteryReport:
    verdict: AVerdict
    clauses: tuple
    findings: tuple = ()

    @property
    def hard_failures(self) -> tuple:
        return tuple(c.clause for c in self.clauses if c.failed)

    @property
    def ok(self) -> bool:
        return not self.hard_failures


def _known_ideals(L: LeibnizAlgebra, budget: int):
    """Enumerated ideals when possible, else the structurally available ones."""
    if L.field.is_finite:
        try:
            return list(enumerate_spaces(L, "ideals", budget)), True
        except (InfiniteFieldUnsupported, BudgetExceeded):
            pass
    known = [L.zero_space(), L.derived_space(), L.leib_ideal(), L.centre(),
             L.full_space()]
    for term in derived_series(L).terms:
        known.append(term)
    for term in lower_nilpotent_series(L).terms:
        known.append(term)
    out = []
    for U in known:
        if U not in out and L.is_ideal(U):
            out.append(U)
    return out, False


def _check_abelian_ideals_commute(L, ideals) -> ClauseResult:
    """All pairs commute exactly when the sum of the abelian ideals is
    abelian.  Otherwise the first failing pair is found by containment:
    [B,C] = 0 = [C,B] exactly when C lies in the centralizer of B."""
    clause = "abelian_ideals_commute"
    abelian = [I for I in ideals if L.is_abelian_space(I)]
    if L.is_abelian_space(L.span([v for I in abelian for v in I.basis])):
        return ClauseResult(clause, True, True)
    cent = {B: L.centralizer(B) for B in abelian}
    for B, C in itertools.combinations_with_replacement(abelian, 2):
        if not cent[B].contains_space(C):
            return ClauseResult(clause, True, False,
                                f"abelian ideals of dims {B.dim}, {C.dim} do not commute")
    return ClauseResult(clause, True, True)


def _check_nilradical_maximal_abelian(L, ideals, N, exact) -> ClauseResult:
    clause = "nilradical_maximal_abelian"
    if not exact:
        return _na(clause, "nilradical only known as a lower bound")
    if not L.is_abelian_space(N):
        return ClauseResult(clause, True, False, "nilradical is not abelian")
    for I in ideals:
        if L.is_abelian_space(I) and not N.contains_space(I):
            return ClauseResult(clause, True, False,
                                f"abelian ideal of dim {I.dim} escapes the nilradical")
    return ClauseResult(clause, True, True)


def _quotient_verdict(L, I, budget, seed, verdict_map) -> AVerdict:
    """The verdict of L/I, decided at most once per ideal of a battery."""
    v = verdict_map.get(I)
    if v is None:
        v = is_a_algebra(L.quotient(I)[0], budget, seed)
        verdict_map[I] = v
    return v


def _check_quotient_closure(L, ideals, budget, seed, verdict_map) -> ClauseResult:
    clause = "quotient_closure"
    skipped = 0
    for I in ideals:
        if I.dim == L.dim:
            continue
        v = _quotient_verdict(L, I, budget, seed, verdict_map)
        if v.is_false:
            return ClauseResult(clause, True, False,
                                f"quotient by an ideal of dim {I.dim} has a witness")
        if v.is_unknown:
            skipped += 1
    note = f"{skipped} quotient verdicts unknown" if skipped else ""
    return ClauseResult(clause, True, True, note)


def _check_intersection_quotient(L, ideals, budget, seed, verdict_map) -> ClauseResult:
    clause = "intersection_quotient"
    good = [I for I in ideals[:_PAIR_CAP] if verdict_map.get(I, AVerdict(None)).is_true]
    for B, C in itertools.combinations(good, 2):
        D = B.intersect(C)
        if D.dim == L.dim:
            continue
        if _quotient_verdict(L, D, budget, seed, verdict_map).is_false:
            return ClauseResult(clause, True, False,
                                f"quotient by an intersection of dims {B.dim} cap {C.dim} fails")
    return ClauseResult(clause, True, True)


def _check_series_match(L) -> ClauseResult:
    clause = "derived_equals_lower_nilpotent"
    if not is_solvable(L):
        return _na(clause, "algebra is not solvable")
    if derived_series(L).terms != lower_nilpotent_series(L).terms:
        return ClauseResult(clause, True, False, "the two series disagree")
    return ClauseResult(clause, True, True)


def _check_centre_derived(L) -> ClauseResult:
    clause = "centre_derived_intersection"
    if not is_solvable(L):
        return _na(clause, "algebra is not solvable")
    d = L.centre().intersect(L.derived_space()).dim
    if d:
        return ClauseResult(clause, True, False,
                            f"centre meets the derived subalgebra in dim {d}")
    return ClauseResult(clause, True, True)


def _check_nilradical_centralizer(L, N, exact) -> ClauseResult:
    clause = "nilradical_centralizer"
    if not is_solvable(L):
        return _na(clause, "algebra is not solvable")
    if not exact:
        return _na(clause, "nilradical only known as a lower bound")
    if not N.contains_space(L.centralizer(N)):
        return ClauseResult(clause, True, False,
                            "centralizer of the nilradical escapes it")
    return ClauseResult(clause, True, True)


def _check_left_products(L, ideals) -> ClauseResult:
    """For an abelian ideal A and x with x^2 in A, iterated left products
    of x into A stay inside the span of one fewer iterated right products."""
    clause = "left_products_in_right_chain"
    n = L.dim
    xs = _basis_sums_differences(L)
    abelian = [A for A in ideals if L.is_abelian_space(A) and A.dim > 0]
    tried = 0
    for A in abelian:
        for x in xs:
            if tried >= _TRIPLE_CAP:
                break
            if not A.contains(L.bracket(x, x)):
                continue
            tried += 1
            left = A
            right = A
            for _ in range(1, n + 2):
                left = L.span([L.bracket(x, w) for w in left.basis])
                if not right.contains_space(left):
                    return ClauseResult(clause, True, False,
                                        "left product chain escapes the right chain")
                if left.is_zero():
                    break  # every later left term is zero as well
                right = L.span([L.bracket(w, x) for w in right.basis])
    return ClauseResult(clause, True, True, f"checked {tried} pairs")


def _check_ideal_centralizer_criterion(L, ideals) -> ClauseResult:
    """B centralizes D iff B cap D is central in both B and D."""
    clause = "ideal_centralizer_criterion"
    pool = ideals[:_PAIR_CAP]
    cent = {D: L.centralizer(D) for D in pool}
    for B, D in itertools.combinations_with_replacement(pool, 2):
        lhs = cent[D].contains_space(B)
        # I lies in B and in D, so it is central in each exactly when
        # that one's centralizer contains it
        I = B.intersect(D)
        rhs = cent[B].contains_space(I) and cent[D].contains_space(I)
        if lhs != rhs:
            return ClauseResult(clause, True, False,
                                f"criterion fails for ideals of dims {B.dim}, {D.dim}")
    return ClauseResult(clause, True, True)


def _check_abelian_chain(L, seed, budget):
    clause = "abelian_chain_decomposition"
    if not is_solvable(L):
        return _na(clause, "algebra is not solvable"), None
    try:
        decomp = triangular_decomposition(L, seed=seed, budget=budget)
    except DecompositionFailed as exc:
        return ClauseResult(clause, True, False, str(exc)), None
    return ClauseResult(clause, True, True,
                        f"{len(decomp.parts)} abelian parts"), decomp


def _check_ideal_part_split(L, decomp, ideals) -> ClauseResult:
    """Ideals split over the top part and the sum of the others."""
    clause = "ideal_part_split"
    B = decomp.top
    C = L.span([v for P in decomp.parts[1:] for v in P.basis])
    for D in ideals:
        # B and C are independent, so D cap B and D cap C are as well
        if D.intersect(B).dim + D.intersect(C).dim != D.dim:
            return ClauseResult(clause, True, False,
                                f"ideal of dim {D.dim} does not split")
    return ClauseResult(clause, True, True)


def _check_cartan_complements(L, budget) -> ClauseResult:
    """In each two-step derived section, Cartan subalgebras coincide with
    the subalgebra complements of the middle term."""
    clause = "cartan_complements"
    if not is_solvable(L):
        return _na(clause, "algebra is not solvable")
    if not L.field.is_finite:
        return _na(clause, "needs exhaustive enumeration")
    ds = derived_series(L)
    d = len(ds.terms) - 1
    for i in range(max(d - 1, 1)):
        M = ds.terms[i]
        inner = ds.terms[i + 1] if i + 1 < len(ds.terms) else L.zero_space()
        inner2 = ds.terms[i + 2] if i + 2 < len(ds.terms) else L.zero_space()
        Malg, Memb = L.restrict(M)
        inner_loc = Malg.span([Memb.coords(v) for v in inner.basis])
        inner2_loc = Malg.span([Memb.coords(v) for v in inner2.basis])
        Q, qmap = Malg.quotient(inner2_loc)
        target = Q.span([qmap.push(v) for v in inner_loc.basis])
        try:
            cartans = set(enumerated_cartan_subalgebras(Q, budget))
            whole = Q.full_space()
            complements = {S for S in enumerate_spaces(Q, "subalgebras", budget)
                           if whole.is_direct_sum(S, target)}
        except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
            return _na(clause, str(exc))
        if cartans != complements:
            return ClauseResult(clause, True, False,
                                f"section {i}: {len(cartans)} Cartans vs "
                                f"{len(complements)} complements")
    return ClauseResult(clause, True, True)


def _check_certificate_consistency(L, verdict, seed, budget) -> ClauseResult:
    """If the sufficient-condition certificate is granted, the verdict
    must not be a witnessed failure."""
    clause = "abelian_complement_criterion"
    granted, why = lemma_aa_certificate(L, seed, budget)
    if not granted:
        return _na(clause, why or "certificate refused")
    if verdict.is_false:
        return ClauseResult(clause, True, False,
                            "certificate granted but a witness exists")
    if not is_completely_solvable(L):
        return ClauseResult(clause, True, False,
                            "certificate granted but algebra is not completely solvable")
    return ClauseResult(clause, True, True)


def _check_monolithic_strong_certificate(L, verdict, seed, budget) -> ClauseResult:
    """Monolithic case: completely solvable A-algebra iff the certificate
    condition holds."""
    clause = "monolithic_strong_certificate"
    try:
        soc = socle_analysis(L, budget)
    except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
        return _na(clause, str(exc))
    if not soc.monolithic:
        return _na(clause, "algebra is not monolithic")
    if verdict.is_unknown:
        return _na(clause, "A-verdict unknown")
    granted, why = lemma_aa_certificate(L, seed, budget)
    if "unenumerable" in why or "budget" in why:
        return _na(clause, why)
    lhs = verdict.is_true and is_completely_solvable(L)
    if lhs != granted:
        return ClauseResult(clause, True, False,
                            f"certificate {granted} vs strong-A status {lhs}")
    return ClauseResult(clause, True, True)


def _check_derived_length_probe(L, verdict) -> ClauseResult:
    clause = "derived_length_bound"
    if not (verdict.is_true and is_solvable(L)):
        return _na(clause, "needs a solvable A-algebra")
    d = len(derived_series(L).terms) - 1
    if d > 3:
        return ClauseResult(clause, True, False, f"derived length {d} exceeds 3")
    return ClauseResult(clause, True, True, f"derived length {d}")


def _check_char_zero_metabelian(L, verdict) -> ClauseResult:
    clause = "char_zero_metabelian"
    if L.field.char != 0 or not (verdict.is_true and is_solvable(L)):
        return _na(clause, "needs a characteristic-zero solvable A-algebra")
    if not is_metabelian(L):
        return ClauseResult(clause, True, False, "not metabelian")
    return ClauseResult(clause, True, True)


def theorem_battery(L: LeibnizAlgebra, seed: int = 0,
                    budget: int = DEFAULT_BUDGET) -> BatteryReport:
    """Run every statement of the library's theorem catalogue that applies
    to this algebra and report per-clause outcomes.

    A clause is checked only when its hypotheses hold and the data it
    needs is computable within the budget; the probe clause
    (derived_length_bound) reports findings instead of failures.
    """
    L.require_leibniz()
    verdict = is_a_algebra(L, budget, seed)
    ideals, exhaustive = _known_ideals(L, budget)
    N, nmode = nilradical(L, budget)
    exact = nmode == "exact"  # always so when the ideals are exhaustive
    clauses = []
    verdict_map = {}

    # statements that need the A property
    if verdict.is_true:
        clauses.append(_check_abelian_ideals_commute(L, ideals))
        clauses.append(_check_nilradical_maximal_abelian(L, ideals, N, exact))
        clauses.append(_check_quotient_closure(L, ideals, budget, seed, verdict_map))
        clauses.append(_check_intersection_quotient(L, ideals, budget, seed, verdict_map))
        clauses.append(_check_series_match(L))
        clauses.append(_check_centre_derived(L))
        clauses.append(_check_cartan_complements(L, budget))
        chain, decomp = _check_abelian_chain(L, seed, budget)
        clauses.append(chain)
        if decomp is not None:
            clauses.append(check_ideal_chain_alignment(L, decomp, ideals))
            clauses.append(_check_ideal_part_split(L, decomp, ideals))
            if exact:
                clauses.append(check_nilradical_chain(L, decomp, N))
                clauses.append(check_part_centre_alignment(L, decomp, N))
                clauses.append(check_strong_split(L, decomp, N))
            minimals = None
            if exhaustive:
                minimals = socle_analysis(L, budget).minimal_ideals
                clauses.append(check_minimal_ideal_location(L, decomp, N, minimals))
                clauses.append(check_minimal_ideal_position(L, decomp, minimals))
                clauses.append(check_minimal_ideal_centre(L, decomp, minimals))
                clauses.append(check_minimal_ideal_derived(L, minimals))
        clauses.append(check_frattini_free_socle(L, budget))
        clauses.append(_check_ideal_centralizer_criterion(L, ideals))
        if exhaustive:
            clauses.append(check_max_nilpotent_cartan_split(L, budget))
            clauses.append(check_max_nilpotent_inventory(L, budget))
            soc = socle_analysis(L, budget)
            if soc.monolithic and is_solvable(L):
                W = soc.monolith
                clauses.append(check_monolith_abelian(L, W))
                clauses.append(check_monolith_centre_product(L, W))
                if decomp is not None:
                    clauses.append(check_monolith_nilradical_top(L, decomp, N))
                clauses.append(check_monolith_centralizer(L, W, N))
                clauses.append(check_monolith_frattini(L, W, N, budget))

    # statements that hold without the A property
    if is_metabelian(L) and exhaustive:
        for U in max_nilpotent_subalgebras(L, budget):
            res = check_max_nilpotent_complement(L, U)
            clauses.append(res)
            if res.failed:
                break
    clauses.append(_check_left_products(L, ideals))
    clauses.append(_check_nilradical_centralizer(L, N, exact))
    clauses.append(_check_certificate_consistency(L, verdict, seed, budget))
    if exhaustive:
        clauses.append(_check_monolithic_strong_certificate(L, verdict, seed, budget))

    findings = []
    probe = _check_derived_length_probe(L, verdict)
    if probe.failed:
        findings.append(probe.detail)
        probe = ClauseResult(probe.clause, True, True, "finding: " + probe.detail)
    clauses.append(probe)
    clauses.append(_check_char_zero_metabelian(L, verdict))
    return BatteryReport(verdict, tuple(clauses), tuple(findings))
