"""A-algebra verdicts and the empirical theorem battery.

An algebra is an A-algebra when every nilpotent subalgebra is abelian.
Over a finite field within the enumeration budget the verdict is decided
exhaustively.  Otherwise the verdict engine combines necessary-condition
checks, a sufficient-condition certificate, and a targeted witness
search; when none of them settles the question the verdict is honestly
"unknown" with the reasons recorded.  A "false" verdict always carries a
re-verified witness subalgebra.

The theorem battery and the structure report are one ordered table of
clauses run by one runner.  Each row names its clause, the hypotheses
that leave it out of a report or mark it not applicable, and its check;
the runner evaluates the hypotheses lazily, in row order.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from typing import Optional

from .core import LeibnizAlgebra, memo
from .decompose import (_fitting_null, _sums_differences,
                        enumerated_cartan_subalgebras, fitting_family,
                        max_nilpotent_subalgebras, triangular_decomposition)
from .enumeration import (DEFAULT_BUDGET, enumerate_spaces, frattini_ideal,
                          is_enumerable, socle_analysis)
from .errors import (BudgetExceeded, DecompositionFailed,
                     InfiniteFieldUnsupported, LeibnizError)
from .linalg import Subspace
from .series import (derived_series, is_completely_solvable, is_metabelian,
                     is_nilpotent, is_nilpotent_space, is_solvable,
                     lower_nilpotent_series, nilradical, predicates)
from .value import Value

_WITNESS_RANDOM_TRIES = 40
_PAIR_CAP = 20
_TRIPLE_CAP = 500


class AVerdict(Value):
    """Three-valued answer: True, False with witness, or None (unknown)."""
    _fields = ("value", "certificate", "witness", "reasons")
    certificate = witness = None
    reasons = ()

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
    if U.dim < 2 or not L.is_subalgebra(U):
        return False
    if L.is_abelian_space(U):
        return False
    return is_nilpotent_space(L, U)


def _false_verdict(L: LeibnizAlgebra, U: Subspace, certificate: str) -> AVerdict:
    if not verify_witness(L, U):
        raise LeibnizError("candidate witness failed re-verification")
    return AVerdict(False, certificate, U)


def _engel_bounded(L: LeibnizAlgebra, gens) -> bool:
    """Whether y R_x^n = 0 for every x and y in ``gens``, with n = dim L.

    Each chain y, [y, x], [[y, x], x], ... stops at its first zero, so a
    check forms at most n brackets per pair.  Every subset of a nilpotent
    subalgebra passes.  Let U be one, of dimension d <= n, with U^1 = U
    and U^(k+1) = [U^k, U] (``series._lower_central_chain``).  For x and
    y in U, y R_x^k lies in U^(k+1), and the series falls strictly until
    it reaches 0, so U^(d+1) = 0 and y R_x^n = 0.  The closure of a set
    that fails is therefore not nilpotent, and ``verify_witness`` would
    reject it: refusing the set before its closure leaves the witness
    search's result unchanged.  Nor does scaling a generator change the
    answer: (a y) R_{b x}^k = a b^k y R_x^k for nonzero scalars a and b.
    """
    n = L.dim
    for x in gens:
        for y in gens:
            for _ in range(n):
                y = L._bracket(y, x)
                if not any(y):
                    break
            else:
                return False
    return True


def _witness_candidates(L: LeibnizAlgebra, seed: int):
    """Deterministic stream of subalgebra candidates likely to expose a
    nilpotent non-abelian subalgebra.  The closures of generators that
    fail ``_engel_bounded`` are skipped, since none of them is nilpotent.
    The random pairs are drawn by ``random_vector``, whose multiples of
    the scalar draws leave both that bound and each closure unchanged.

    Two more skips leave the search's first witness unchanged, because
    ``witness_search`` passes over repeats and lines.  A single u with
    u^2 = 0 generates the line Fu, as [a u, b u] = a b u^2 = 0, and a
    line is no witness; so only a u with u^2 != 0 takes the bound and its
    closure.  And ``_fitting_null(L, full, x)`` reads x only through R_x.
    R_x = R_y exactly when [L, x - y] = 0, that is when x - y lies in
    ann = {z : [L, z] = 0}, so x and y with one remainder mod ann give
    one null: each remainder is handled once."""
    F, n, full = L.field, L.dim, L.full_space()
    singles = _sums_differences(F, full.basis)
    for u in singles:
        if any(L._bracket(u, u)) and _engel_bounded(L, [u]):
            yield L.closure([u])
    ann = L._kernel_mod(L.zero_space(), lambda z: [L._bracket(e, z) for e in L._basis])
    operators = set()
    for x in singles[:2 * n]:
        key = ann.reduce(x)
        if key in operators:
            continue
        operators.add(key)
        null = _fitting_null(L, full, x)
        if null is not None:
            yield null
    yield from derived_series(L)[1:]
    yield from lower_nilpotent_series(L)[1:]
    rng = random.Random(seed)
    for _ in range(_WITNESS_RANDOM_TRIES):
        u, v = F.random_vector(rng, n), F.random_vector(rng, n)
        if _engel_bounded(L, [u, v]):
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


def _invertible_on(L: LeibnizAlgebra, x, ideal: Subspace) -> bool:
    """Whether R_x, which preserves the ideal, is invertible on it: exactly
    when its image [ideal, x] is the whole ideal."""
    return L.product(ideal, L.span([x])) == ideal


@memo
def lemma_aa_certificate(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """Sufficient condition: L is metabelian and right multiplication by
    every x outside L^2 is invertible on L^2.

    Then L is an A-algebra.  A nilpotent subalgebra U inside L^2 is
    abelian, as L^2 is.  One that is not has some u in U outside L^2.
    R_u is nilpotent on U and invertible on the ideal L^2, so it is both
    on U cap L^2, which is therefore 0.  So U embeds in the abelian
    L/L^2, and U is abelian.  Because L^2 is abelian, R_{b+d} = R_b on
    L^2 for d in L^2, so one complement B of L^2 stands for all x
    outside L^2: the span of the unit vectors at the free positions of
    L^2's echelon basis.

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
    F, B = L.field, L.span([L.basis_vector(j) for j in der.free_positions()])
    if B.dim == 1:
        ok = _invertible_on(L, B.basis[0], der)
        return ok, "" if ok else "right multiplication by the complement line degenerates"
    if F.is_finite and F.size ** B.dim <= budget:
        for coeffs in itertools.product(F.elements(), repeat=B.dim):
            if any(coeffs) and not _invertible_on(L, B.embed(coeffs), der):
                return False, "some complement element degenerates on the derived subalgebra"
        return True, ""
    return False, "complement of dimension >= 2 over an unenumerable field"


def _necessary_condition_violation(L: LeibnizAlgebra) -> Optional[str]:
    """The detail of the first battery clause that every solvable A-algebra
    passes and L, solvable, fails; None when there is none."""
    if not is_solvable(L):
        return None
    checks = [_check_derived_equals_lower_nilpotent, _check_centre_derived_intersection]
    if L.field.char == 0:
        checks.append(_check_char_zero_metabelian)
    for check in checks:
        holds, detail = check(L)
        if not holds:
            return detail
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
    if is_enumerable(L, budget):
        for U in enumerate_spaces(L, "subalgebras", budget):
            if U.dim < 2:
                continue
            if not L.is_abelian_space(U) and is_nilpotent_space(L, U):
                return _false_verdict(L, U, "exhaustive")
        return AVerdict(True, "exhaustive")
    violation = _necessary_condition_violation(L)
    if violation is None:
        granted, why = lemma_aa_certificate(L, budget)
        if granted:
            return AVerdict(True, "lemma_aa")
    w = witness_search(L, seed)
    if w is not None:
        return _false_verdict(L, w, "witness")
    if violation is not None:
        return AVerdict(None, None, None,
                        (violation + "; witness search found nothing",))
    if not L.field.is_finite:
        unavailable = "exhaustive check unavailable over an infinite field"
    else:
        unavailable = "subspace count exceeds the enumeration budget"
    return AVerdict(None, None, None, (f"certificate refused: {why}",
                                       "witness search found nothing", unavailable))


# ------------------------------------------------------------------ reports

class ClauseResult(Value):
    _fields = ("clause", "applicable", "holds", "detail")
    detail = ""

    @property
    def failed(self) -> bool:
        return self.applicable and self.holds is False


class BatteryReport(Value):
    _fields = ("verdict", "clauses", "findings")
    findings = ()

    @property
    def hard_failures(self) -> tuple:
        return tuple(c.clause for c in self.clauses if c.failed)

    @property
    def ok(self) -> bool:
        return not self.hard_failures


class StructureReport(Value):
    _fields = ("predicates", "decomposition", "decomposition_error", "nilradical",
               "nilradical_mode", "clauses")


def _series_ideals(L: LeibnizAlgebra) -> list:
    """0, L^2, Leib(L), Z(L) and L, then the ideals among the derived and
    lower nilpotent series terms, each once."""
    known = [L.zero_space(), L.derived_space(), L.leib_ideal(), L.centre(),
             L.full_space(), *derived_series(L), *lower_nilpotent_series(L)]
    return [U for U in dict.fromkeys(known) if L.is_ideal(U)]


# ------------------------------------------------------------- clause checks
#
# A check returns (holds, detail); holds None marks the clause not
# applicable.  Its parameters are named after the _Facts it reads.

def _check_abelian_ideals_commute(L, ideals):
    """All pairs commute exactly when the sum of the abelian ideals is
    abelian.  Otherwise the first failing pair is found by containment:
    [B,C] = 0 = [C,B] exactly when C lies in the centralizer of B."""
    abelian = [I for I in ideals if L.is_abelian_space(I)]
    if L.is_abelian_space(L.span([v for I in abelian for v in I.basis])):
        return True, ""
    cent = {B: L.centralizer(B) for B in abelian}
    for B, C in itertools.combinations_with_replacement(abelian, 2):
        if not cent[B].contains_space(C):
            return False, f"abelian ideals of dims {B.dim}, {C.dim} do not commute"
    return True, ""


def _check_nilradical_maximal_abelian(L, ideals, N):
    if not L.is_abelian_space(N):
        return False, "nilradical is not abelian"
    for I in ideals:
        if L.is_abelian_space(I) and not N.contains_space(I):
            return False, f"abelian ideal of dim {I.dim} escapes the nilradical"
    return True, ""


@memo
def _quotient_verdict(L: LeibnizAlgebra, I: Subspace, budget: int,
                      seed: int) -> AVerdict:
    """The verdict of L/I, decided once per ideal, budget and seed.

    An I that contains L^2 needs no quotient algebra.  It is an ideal, as
    [I, L] + [L, I] lies in L^2, and L/I is abelian; so ``is_a_algebra``
    would answer "dimension" when codim I <= 1 and "abelian" otherwise.
    Every ideal of codimension <= 1 is such an I: a Leibniz algebra of
    dimension <= 1 is abelian, since [x, x] = a x gives
    a^2 x = [x, [x, x]] = 0.  Every other I builds its quotient, which
    refuses a subspace that is not an ideal."""
    if I.contains_space(L.derived_space()):
        return AVerdict(True, "dimension" if L.dim - I.dim <= 1 else "abelian")
    return is_a_algebra(L.quotient(I), budget, seed)


def _check_quotient_closure(L, ideals, budget, seed):
    skipped = 0
    for I in ideals:
        if I.dim == L.dim:
            continue
        v = _quotient_verdict(L, I, budget, seed)
        if v.is_false:
            return False, f"quotient by an ideal of dim {I.dim} has a witness"
        if v.is_unknown:
            skipped += 1
    return True, f"{skipped} quotient verdicts unknown" if skipped else ""


def _check_intersection_quotient(L, ideals, budget, seed):
    """Runs after quotient_closure, which decided the proper quotients.

    A pair whose ideals both contain L^2 is skipped without its meet: the
    meet contains L^2 as well, so its quotient is abelian and passes.  A
    meet lies in the proper ideal B, so it is proper."""
    good = [I for I in ideals[:_PAIR_CAP]
            if I.dim < L.dim and _quotient_verdict(L, I, budget, seed).is_true]
    der = L.derived_space()
    for B, C in itertools.combinations(good, 2):
        if B.contains_space(der) and C.contains_space(der):
            continue
        if _quotient_verdict(L, B.intersect(C), budget, seed).is_false:
            return False, f"quotient by an intersection of dims {B.dim} cap {C.dim} fails"
    return True, ""


def _check_derived_equals_lower_nilpotent(L):
    ok = derived_series(L) == lower_nilpotent_series(L)
    return ok, "" if ok else "derived series differs from the lower nilpotent series"


def _check_centre_derived_intersection(L):
    d = L.centre().intersect(L.derived_space()).dim
    return not d, f"centre meets the derived subalgebra in dim {d}" if d else ""


def _check_cartan_complements(L, budget):
    """In each two-step derived section, Cartan subalgebras coincide with
    the subalgebra complements of the middle term."""
    ds = derived_series(L)
    d = len(ds) - 1
    for i in range(max(d - 1, 1)):
        M = ds[i]
        inner = ds[i + 1] if i + 1 < len(ds) else L.zero_space()
        inner2 = ds[i + 2] if i + 2 < len(ds) else L.zero_space()
        Malg = L.restrict(M)
        inner_loc = Malg.span([M.coords_of(v) for v in inner.basis])
        inner2_loc = Malg.span([M.coords_of(v) for v in inner2.basis])
        Q = Malg.quotient(inner2_loc)
        target = Q.span([inner2_loc.quotient_coords(v) for v in inner_loc.basis])
        cartans = set(enumerated_cartan_subalgebras(Q, budget))
        whole = Q.full_space()
        complements = {S for S in enumerate_spaces(Q, "subalgebras", budget)
                       if whole.is_direct_sum(S, target)}
        if cartans != complements:
            return False, (f"section {i}: {len(cartans)} Cartans vs "
                           f"{len(complements)} complements")
    return True, ""


def _check_abelian_chain_decomposition(decomposition):
    decomp, error = decomposition
    return (False, error) if decomp is None else (True, f"{len(decomp)} abelian parts")


def _check_ideal_chain_alignment(decomp, ideals):
    """Every ideal is the direct sum of its intersections with the parts.

    When the parts are a direct sum of the whole space, an ideal D that
    contains S, the sum of every part but the last P, aligns without a
    meet: by the modular law D = S + (D cap P), and S is the direct sum
    of its parts, each of which is its own meet with D."""
    P0 = decomp[0]
    S = Subspace.span(P0.field, P0.ambient, [v for P in decomp[:-1] for v in P.basis])
    direct = Subspace.full_space(P0.field, P0.ambient).is_direct_sum(*decomp)
    for D in ideals:
        if direct and D.contains_space(S):
            continue
        if not D.is_direct_sum(*(D.intersect(P) for P in decomp)):
            return False, f"ideal of dim {D.dim} does not align"
    return True, f"checked {len(ideals)} ideals"


def _check_ideal_part_split(L, decomp, ideals):
    """Ideals split over the top part and the sum of the others.

    When the parts are a direct sum of L, so that L = B + C directly, an
    ideal D that contains B or C splits without a meet: by the modular law
    D = B + (D cap C), or D = (D cap B) + C."""
    B = decomp[0]
    C = L.span([v for P in decomp[1:] for v in P.basis])
    direct = L.full_space().is_direct_sum(*decomp)
    for D in ideals:
        if direct and (D.contains_space(B) or D.contains_space(C)):
            continue
        # B and C are independent, so D cap B and D cap C are as well
        if D.intersect(B).dim + D.intersect(C).dim != D.dim:
            return False, f"ideal of dim {D.dim} does not split"
    return True, ""


def _check_nilradical_chain_splitting(L, decomp, N):
    """N = A_n + (N cap A_{n-1}) + ... with pairwise zero products."""
    pieces = [N.intersect(P) for P in decomp]
    if pieces[0] != decomp[0]:
        return False, "top part is not inside the nilradical"
    if not N.is_direct_sum(*pieces):
        return False, "nilradical is not the direct sum of its slices"
    for i, Pi in enumerate(pieces):
        for j, Pj in enumerate(pieces):
            if i != j and L.product(Pi, Pj).dim != 0:
                return False, f"slices {i} and {j} do not multiply to zero"
    return True, ""


def _check_part_centre_alignment(L, decomp, N):
    """The centre of the i-th derived term is N cap A_i."""
    ds = derived_series(L)
    n = len(decomp) - 1
    for i in range(n + 1):
        term = ds[i]
        Z = term.intersect(L.centralizer(term))
        if Z != N.intersect(decomp[n - i]):
            return False, f"centre of derived term {i} misaligned"
    return True, ""


def _check_strong_split(L, decomp, N):
    """Derived subalgebra abelian with an abelian complement, and the
    nilradical is the direct sum of the derived subalgebra and centre."""
    der = L.derived_space()
    B = decomp[-1]
    if not L.is_abelian_space(der):
        return False, "derived subalgebra not abelian"
    if not L.is_abelian_space(B):
        return False, "complement not abelian"
    if not L.full_space().is_direct_sum(der, B):
        return False, "complement does not split"
    if not N.is_direct_sum(der, L.centre()):
        return False, "nilradical is not derived-plus-centre"
    return True, ""


def _check_minimal_ideal_location(decomp, N, socle):
    """Each minimal ideal lies in N cap A_i for some i."""
    slices = [N.intersect(P) for P in decomp]
    for W in socle.minimal_ideals:
        if not any(S.contains_space(W) for S in slices):
            return False, f"minimal ideal of dim {W.dim} fits no slice"
    return True, ""


def _check_minimal_ideal_position(L, decomp, socle):
    """Each minimal ideal lies in the derived subalgebra or the complement."""
    der = L.derived_space()
    B = decomp[-1]
    for W in socle.minimal_ideals:
        if not der.contains_space(W) and not B.contains_space(W):
            return False, f"minimal ideal of dim {W.dim} straddles the split"
    return True, ""


def _check_minimal_ideal_centre(L, decomp, socle):
    """A minimal ideal lies in the complement iff it is central, and then
    it is one dimensional."""
    B = decomp[-1]
    Z = L.centre()
    for W in socle.minimal_ideals:
        in_B = B.contains_space(W)
        if in_B != Z.contains_space(W):
            return False, "complement membership disagrees with centrality"
        if in_B and W.dim != 1:
            return False, "central minimal ideal is not a line"
    return True, ""


def _check_minimal_ideal_derived(L, socle):
    """A minimal ideal lies in the derived subalgebra iff right products
    with the whole algebra reproduce it."""
    der = L.derived_space()
    full = L.full_space()
    for W in socle.minimal_ideals:
        if der.contains_space(W) != (L.product(W, full) == W):
            return False, "derived membership disagrees with [W,L] = W"
    return True, ""


def _check_frattini_free_socle(L, budget, socle):
    """Zero Frattini ideal iff the derived subalgebra sits inside the sum
    of abelian minimal ideals."""
    phi = frattini_ideal(L, budget)
    rhs = socle.asoc.contains_space(L.derived_space())
    ok = (phi.dim == 0) == rhs
    return ok, "" if ok else f"frattini dim {phi.dim}, derived in socle: {rhs}"


def _check_ideal_centralizer_criterion(L, ideals):
    """B centralizes D iff B cap D is central in both B and D.

    The meet is formed only when B does not centralize D.  When it does,
    the right-hand side holds: B cap D lies in B, inside C(D), and in D,
    inside C(B), since [b, d] = 0 = [d, b] for all b in B and d in D says
    both at once."""
    pool = ideals[:_PAIR_CAP]
    cent = {D: L.centralizer(D) for D in pool}
    for B, D in itertools.combinations_with_replacement(pool, 2):
        if cent[D].contains_space(B):
            continue
        # I lies in B and in D, so it is central in each exactly when
        # that one's centralizer contains it
        I = B.intersect(D)
        if cent[B].contains_space(I) and cent[D].contains_space(I):
            return False, f"criterion fails for ideals of dims {B.dim}, {D.dim}"
    return True, ""


def _check_max_nilpotent_cartan_split(L, budget):
    """Each maximal nilpotent subalgebra U splits as
    (U cap L^2) + (U cap C) for some Cartan subalgebra C."""
    cartans = enumerated_cartan_subalgebras(L, budget)
    der = L.derived_space()
    for U in max_nilpotent_subalgebras(L, budget):
        I = U.intersect(der)
        if not any(U.is_direct_sum(I, U.intersect(C)) for C in cartans):
            return False, f"no Cartan splits a maximal nilpotent of dim {U.dim}"
    return True, ""


def _check_max_nilpotent_inventory(L, budget):
    """In the monolithic completely solvable case the maximal nilpotent
    subalgebras are the derived subalgebra together with the Cartan
    subalgebras; a nilpotent algebra has only itself."""
    maxes = max_nilpotent_subalgebras(L, budget)
    if is_nilpotent(L):
        ok = set(maxes) == {L.full_space()}
        return ok, "" if ok else "nilpotent algebra has extra maximals"
    expected = {L.derived_space()} | set(enumerated_cartan_subalgebras(L, budget))
    if set(maxes) != expected:
        return False, f"{len(maxes)} maximals vs {len(expected)} expected"
    return True, ""


def _check_monolith_abelian(L, socle):
    ok = L.is_abelian_space(socle.monolith)
    return ok, "" if ok else "monolith not abelian"


def _check_monolith_centre_product(L, socle):
    """Non-abelian monolithic case: trivial centre and one-sided products
    with the whole algebra reproduce the monolith."""
    if L.is_abelian():
        return None, "algebra is abelian"
    full, W = L.full_space(), socle.monolith
    if L.centre().dim != 0:
        return False, "centre is nonzero"
    if L.product(full, W) != W and L.product(W, full) != W:
        return False, "neither one-sided product reproduces the monolith"
    return True, ""


def _check_monolith_nilradical_top(L, decomp, N):
    """The nilradical is the top part, which is the last derived term."""
    ds = derived_series(L)
    last = ds[-2] if ds[-1].is_zero() and len(ds) >= 2 else ds[-1]
    ok = N == decomp[0] and N == last
    return ok, "" if ok else "nilradical differs from the top part"


def _check_monolith_centralizer(L, socle, N):
    ok = L.centralizer(socle.monolith) == N
    return ok, "" if ok else "centralizer of monolith is not the nilradical"


def _check_monolith_frattini(L, socle, N, budget):
    """Zero Frattini ideal iff the monolith is the whole nilradical."""
    phi = frattini_ideal(L, budget)
    rhs = socle.monolith == N
    ok = (phi.dim == 0) == rhs
    return ok, "" if ok else f"frattini dim {phi.dim}, monolith equals nilradical: {rhs}"


def _check_max_nilpotent_complement(L, U):
    """For a maximal nilpotent subalgebra U of a metabelian algebra, the
    derived subalgebra splits as (U cap L^2) + K with K an ideal
    satisfying [K, U] = K."""
    der = L.derived_space()
    I = U.intersect(der)
    if not L.is_abelian_space(I) or not L.is_ideal(I):
        return False, "U cap L^2 is not an abelian ideal"
    try:
        _, K = fitting_family(L, U)
    except DecompositionFailed as exc:
        return False, str(exc)
    if not der.is_direct_sum(I, K):
        return False, "derived subalgebra does not split over U cap L^2"
    if not L.is_ideal(K):
        return False, "complement K is not an ideal"
    if L.product(K, U) != K:
        return False, "[K, U] differs from K"
    return True, ""


def _check_left_products_in_right_chain(L, ideals):
    """For an abelian ideal A and x with x^2 in A, iterated left products
    of x into A stay inside the span of one fewer iterated right products.

    Both chains stay in the ideal A, so they read x only through
    lx = ([x, w] for w in A.basis) and rx = ([w, x] for w in A.basis),
    which fix L_x and R_x on A.  A pair with lx = 0 passes at once: its
    first left term is zero.  A pair with the key (A, lx, rx) of an
    earlier pair repeats that pair's chains, which passed, or the check
    would have returned; so it is skipped, and the first failing pair is
    unchanged.  Skipped pairs still count towards ``tried`` and the cap,
    so the detail and the pairs reached are the same as without skips."""
    n = L.dim
    xs = _sums_differences(L.field, L._basis)
    abelian = [A for A in ideals if L.is_abelian_space(A) and A.dim > 0]
    tried = 0
    for A in abelian:
        chains = set()
        for x in xs:
            if tried >= _TRIPLE_CAP:
                break
            if not A.contains(L._bracket(x, x)):
                continue
            tried += 1
            lx = tuple(L._bracket(x, w) for w in A.basis)
            if not any(map(any, lx)):
                continue
            key = (lx, tuple(L._bracket(w, x) for w in A.basis))
            if key in chains:
                continue
            chains.add(key)
            left = A
            right = A
            for _ in range(1, n + 2):
                left = Subspace.span(L.field, n, [L._bracket(x, w) for w in left.basis])
                if not right.contains_space(left):
                    return False, "left product chain escapes the right chain"
                if left.is_zero():
                    break  # every later left term is zero as well
                right = Subspace.span(L.field, n, [L._bracket(w, x) for w in right.basis])
    return True, f"checked {tried} pairs"


def _check_nilradical_centralizer(L, N):
    ok = N.contains_space(L.centralizer(N))
    return ok, "" if ok else "centralizer of the nilradical escapes it"


def _check_abelian_complement_criterion(L, verdict, budget):
    """If the sufficient-condition certificate is granted, the verdict
    must not be a witnessed failure."""
    granted, why = lemma_aa_certificate(L, budget)
    if not granted:
        return None, why
    if verdict.is_false:
        return False, "certificate granted but a witness exists"
    if not is_completely_solvable(L):
        return False, "certificate granted but algebra is not completely solvable"
    return True, ""


def _check_monolithic_strong_certificate(L, verdict, budget):
    """Monolithic case: completely solvable A-algebra iff the certificate
    condition holds."""
    # The row runs only when every subspace fits the budget.  So
    # is_a_algebra decides the verdict, and the certificate never refuses
    # an "unenumerable" complement: B complements L^2 != 0, and
    # q^dim B <= q^(n-1) <= [n, 1]_q <= total_subspaces(n, q) <= budget.
    granted, _ = lemma_aa_certificate(L, budget)
    lhs = verdict.is_true and is_completely_solvable(L)
    ok = lhs == granted
    return ok, "" if ok else f"certificate {granted} vs strong-A status {lhs}"


def _check_derived_length_bound(L):
    d = len(derived_series(L)) - 1
    return d <= 3, f"derived length {d}" + (" exceeds 3" if d > 3 else "")


def _check_char_zero_metabelian(L):
    ok = is_metabelian(L)
    return ok, "" if ok else "characteristic-zero solvable algebra is not metabelian"


# ------------------------------------------------------------- clause table

class _Facts:
    """What the rows of one report read about L, each computed on first
    use: data, named by the checks' parameters, and hypotheses, named by
    the rows.  A table that is not Leibniz is refused with NotLeibniz."""

    def __init__(self, L: LeibnizAlgebra, seed: int, budget: int):
        L.require_leibniz()
        self.L, self.seed, self.budget = L, seed, budget

    @cached_property
    def verdict(self) -> AVerdict:
        return is_a_algebra(self.L, self.budget, self.seed)

    @cached_property
    def ideals(self) -> list:
        """All the ideals when exhaustive, else the known ones."""
        if self.exhaustive:
            return list(enumerate_spaces(self.L, "ideals", self.budget))
        return _series_ideals(self.L)

    @cached_property
    def _nilradical(self):
        return nilradical(self.L, self.budget)

    @property
    def N(self) -> Subspace:
        return self._nilradical[0]

    @cached_property
    def decomposition(self):
        """(triangular decomposition, None), or (None, why there is none)."""
        if not self.solvable:
            return None, _UNMET["solvable"]
        try:
            return triangular_decomposition(self.L, self.budget), None
        except DecompositionFailed as exc:
            return None, str(exc)

    @property
    def decomp(self) -> Optional[tuple]:
        return self.decomposition[0]

    @property
    def socle(self):
        return socle_analysis(self.L, self.budget)

    @property
    def max_nilpotents(self) -> tuple:
        return max_nilpotent_subalgebras(self.L, self.budget)

    # hypotheses
    @property
    def a_algebra(self) -> bool:
        return self.verdict.is_true

    @property
    def decomposed(self) -> bool:
        return self.decomp is not None

    @property
    def exact(self) -> bool:
        return self._nilradical[1] == "exact"  # always so when exhaustive

    @property
    def exhaustive(self) -> bool:
        return is_enumerable(self.L, self.budget)

    @property
    def finite_field(self) -> bool:
        return self.L.field.is_finite

    @property
    def solvable(self) -> bool:
        return is_solvable(self.L)

    @property
    def completely_solvable(self) -> bool:
        return is_completely_solvable(self.L)

    @property
    def metabelian(self) -> bool:
        return is_metabelian(self.L)

    @property
    def monolithic(self) -> bool:
        return self.socle.monolithic

    @property
    def monolithic_completely_solvable(self) -> bool:
        return self.monolithic and self.completely_solvable

    @property
    def solvable_a_algebra(self) -> bool:
        return self.a_algebra and self.solvable

    @property
    def char_zero_solvable_a_algebra(self) -> bool:
        return self.L.field.char == 0 and self.solvable_a_algebra


# The detail of a row that needs a hypothesis which fails.
_UNMET = {
    "solvable": "algebra is not solvable",
    "completely_solvable": "algebra is not completely solvable",
    "exact": "nilradical only known as a lower bound",
    "finite_field": "needs exhaustive enumeration",
    "monolithic": "algebra is not monolithic",
    "monolithic_completely_solvable": "algebra is not monolithic completely solvable",
    "solvable_a_algebra": "needs a solvable A-algebra",
    "char_zero_solvable_a_algebra": "needs a characteristic-zero solvable A-algebra",
}


class _Row(Value):
    """A clause, the hypotheses that leave it out of a report (gates) or
    mark it not applicable (needs), and its check.  An ``each`` row checks
    every member of that fact, passed last, up to the first failure; a
    probe reports a failure as a finding."""
    _fields = ("clause", "check", "gates", "needs", "each", "probe")
    gates = needs = ()
    each = None
    probe = False

    @cached_property
    def reads(self) -> tuple:
        code = self.check.__code__
        params = code.co_varnames[:code.co_argcount]
        return params[:-1] if self.each else params


_A = ("a_algebra",)
_DECOMPOSED = _A + ("decomposed",)
_MONOLITHIC = _A + ("exhaustive", "monolithic", "solvable")

# The theorem battery, in report order.
_BATTERY = (
    # statements that need the A property
    _Row("abelian_ideals_commute", _check_abelian_ideals_commute, _A),
    _Row("nilradical_maximal_abelian", _check_nilradical_maximal_abelian, _A, ("exact",)),
    _Row("quotient_closure", _check_quotient_closure, _A),
    _Row("intersection_quotient", _check_intersection_quotient, _A),
    _Row("derived_equals_lower_nilpotent", _check_derived_equals_lower_nilpotent, _A,
         ("solvable",)),
    _Row("centre_derived_intersection", _check_centre_derived_intersection, _A, ("solvable",)),
    _Row("cartan_complements", _check_cartan_complements, _A, ("solvable", "finite_field")),
    _Row("abelian_chain_decomposition", _check_abelian_chain_decomposition, _A, ("solvable",)),
    _Row("ideal_chain_alignment", _check_ideal_chain_alignment, _DECOMPOSED),
    _Row("ideal_part_split", _check_ideal_part_split, _DECOMPOSED),
    _Row("nilradical_chain_splitting", _check_nilradical_chain_splitting,
         _DECOMPOSED + ("exact",)),
    _Row("part_centre_alignment", _check_part_centre_alignment, _DECOMPOSED + ("exact",)),
    _Row("strong_split", _check_strong_split, _DECOMPOSED + ("exact",), ("completely_solvable",)),
    _Row("minimal_ideal_location", _check_minimal_ideal_location, _DECOMPOSED + ("exhaustive",)),
    _Row("minimal_ideal_position", _check_minimal_ideal_position, _DECOMPOSED + ("exhaustive",)),
    _Row("minimal_ideal_centre", _check_minimal_ideal_centre, _DECOMPOSED + ("exhaustive",)),
    _Row("minimal_ideal_derived", _check_minimal_ideal_derived, _DECOMPOSED + ("exhaustive",)),
    _Row("frattini_free_socle", _check_frattini_free_socle, _A, ("completely_solvable",)),
    _Row("ideal_centralizer_criterion", _check_ideal_centralizer_criterion, _A),
    _Row("max_nilpotent_cartan_split", _check_max_nilpotent_cartan_split, _A + ("exhaustive",),
         ("completely_solvable",)),
    _Row("max_nilpotent_inventory", _check_max_nilpotent_inventory, _A + ("exhaustive",),
         ("monolithic_completely_solvable",)),
    _Row("monolith_abelian", _check_monolith_abelian, _MONOLITHIC),
    _Row("monolith_centre_product", _check_monolith_centre_product, _MONOLITHIC),
    _Row("monolith_nilradical_top", _check_monolith_nilradical_top,
         _MONOLITHIC + ("decomposed",)),
    _Row("monolith_centralizer", _check_monolith_centralizer, _MONOLITHIC),
    _Row("monolith_frattini", _check_monolith_frattini, _MONOLITHIC),
    # statements that hold without the A property
    _Row("max_nilpotent_complement", _check_max_nilpotent_complement,
         ("metabelian", "exhaustive"), each="max_nilpotents"),
    _Row("left_products_in_right_chain", _check_left_products_in_right_chain),
    _Row("nilradical_centralizer", _check_nilradical_centralizer, (), ("solvable", "exact")),
    _Row("abelian_complement_criterion", _check_abelian_complement_criterion),
    _Row("monolithic_strong_certificate", _check_monolithic_strong_certificate,
         ("exhaustive",), ("monolithic",)),
    _Row("derived_length_bound", _check_derived_length_bound, (), ("solvable_a_algebra",),
         probe=True),
    _Row("char_zero_metabelian", _check_char_zero_metabelian, (),
         ("char_zero_solvable_a_algebra",)),
)

# The structure report's rows: the battery's own, gates included.
_STRUCTURE = tuple(row for row in _BATTERY if row.clause in {
    "ideal_chain_alignment", "nilradical_chain_splitting", "part_centre_alignment",
    "strong_split", "minimal_ideal_location", "minimal_ideal_position",
    "minimal_ideal_centre", "minimal_ideal_derived", "frattini_free_socle"})


def _outcomes(row: _Row, facts: _Facts) -> list:
    """The (holds, detail) pairs of a row whose gates hold."""
    for name in row.needs:
        if not getattr(facts, name):
            return [(None, _UNMET[name])]
    args = [getattr(facts, name) for name in row.reads]
    if row.each is None:
        return [row.check(*args)]
    outcomes = []
    for item in getattr(facts, row.each):
        outcomes.append(row.check(*args, item))
        if outcomes[-1][0] is False:
            break
    return outcomes


def _run(rows, facts: _Facts):
    """The results of the rows whose gates hold, in order, and the
    findings of their probes."""
    results, findings = [], []
    for row in rows:
        if not all(getattr(facts, name) for name in row.gates):
            continue
        try:
            outcomes = _outcomes(row, facts)
        except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
            outcomes = [(None, str(exc))]
        for holds, detail in outcomes:
            if holds is None:
                results.append(ClauseResult(row.clause, False, None, detail))
            elif row.probe and not holds:
                findings.append(detail)
                results.append(ClauseResult(row.clause, True, True, "finding: " + detail))
            else:
                results.append(ClauseResult(row.clause, True, holds, detail))
    return tuple(results), tuple(findings)


def theorem_battery(L: LeibnizAlgebra, seed: int = 0,
                    budget: int = DEFAULT_BUDGET) -> BatteryReport:
    """Run every statement of the library's theorem catalogue that applies
    to this algebra and report per-clause outcomes.

    A clause is checked only when its hypotheses hold and the data it
    needs is computable within the budget; the probe clause
    (derived_length_bound) reports findings instead of failures.
    """
    facts = _Facts(L, seed, budget)
    clauses, findings = _run(_BATTERY, facts)
    return BatteryReport(facts.verdict, clauses, findings)


def structure_report(L: LeibnizAlgebra,
                     budget: int = DEFAULT_BUDGET) -> StructureReport:
    """Decomposition-centric summary used by reporting front ends.

    Its clauses are the battery's rows on the decomposition and the
    socle, with the battery's gates and seed 0; they run only when L has
    a decomposition, and ``decompose`` exits 1 when one fails.
    """
    facts = _Facts(L, 0, budget)
    N, mode = facts._nilradical
    decomp, error = facts.decomposition
    clauses = _run(_STRUCTURE, facts)[0] if decomp is not None else ()
    return StructureReport(predicates(L), decomp, error, N, mode, clauses)
