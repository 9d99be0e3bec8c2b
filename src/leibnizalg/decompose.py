"""Fitting decompositions, Cartan subalgebras, triangular decompositions.

Every construction here re-verifies its own output before returning it:
Fitting pairs check directness, invariance and the nilpotent/invertible
split; Cartan candidates are accepted only after a nilpotency and
self-normalizer check; triangular decompositions confirm abelian parts
and alignment with the derived series.  Failures raise rather than
returning something plausible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .core import LeibnizAlgebra, memo
from .enumeration import (DEFAULT_BUDGET, _maximal_members, enumerate_spaces,
                          frattini_ideal, socle_analysis)
from .errors import (BudgetExceeded, CartanSearchFailed, DecompositionFailed,
                     InfiniteFieldUnsupported, NotDecomposing, NotSolvable)
from .linalg import (Subspace, fitting_power, image, is_nilpotent_operator,
                     kernel, mat_vec, restrict_operator, vec_add)
from .series import (derived_series, is_completely_solvable, is_metabelian,
                     is_nilpotent, is_nilpotent_space, is_solvable, nilradical)

_RANDOM_TRIES = 120


@dataclass(frozen=True)
class FittingPair:
    null: Subspace
    one: Subspace


def fitting(L: LeibnizAlgebra, A) -> FittingPair:
    """Fitting decomposition of the space of L under one operator matrix.

    Returns the kernel and the image of the Fitting power of A, after
    checking that they are complementary, invariant, and that A is
    nilpotent on the first and invertible on the second.
    """
    F, n = L.field, L.dim
    power = fitting_power(F, A)
    null = kernel(F, power, ncols=n)
    one = image(F, power)
    if not L.full_space().is_direct_sum(null, one):
        raise NotDecomposing("operator Fitting components are not complementary")
    for space, name in ((null, "null"), (one, "one")):
        for v in space.basis:
            if not space.contains(mat_vec(F, A, v)):
                raise NotDecomposing(f"Fitting {name} component is not invariant")
    if one.dim:
        R = restrict_operator(F, A, one)
        if kernel(F, R, ncols=one.dim).dim != 0:
            raise NotDecomposing("operator is not invertible on its one-component")
    if null.dim:
        R = restrict_operator(F, A, null)
        if not is_nilpotent_operator(F, R):
            raise NotDecomposing("operator is not nilpotent on its null component")
    return FittingPair(null, one)


def fitting_family(L: LeibnizAlgebra, C: Subspace) -> FittingPair:
    """Joint Fitting decomposition of L under right multiplication by a
    nilpotent subalgebra C.

    null  = vectors killed by every long enough chain of right products
            with C,
    one   = stabilized span of iterated products [.. [L, C], C] .. .
    """
    F, n = L.field, L.dim
    mats = [L.right_mult(c) for c in C.basis]
    one = L.full_space()
    for _ in range(n + 1):
        nxt = L.product(one, C)
        if nxt == one:
            break
        one = nxt
        if one.dim == 0:
            break
    null = L.zero_space()
    for _ in range(n + 1):
        stacked = []
        for A in mats:
            cols = [null.reduce(tuple(row[j] for row in A)) for j in range(n)]
            for i in range(n):
                stacked.append(tuple(col[i] for col in cols))
        nxt = kernel(F, stacked, ncols=n)
        if nxt == null:
            break
        null = nxt
    if not L.full_space().is_direct_sum(null, one):
        raise NotDecomposing("joint Fitting components are not complementary")
    if not null.contains_space(C):
        raise NotDecomposing("null component does not contain the acting subalgebra")
    if not null.contains_space(L.product(null, null)):
        raise NotDecomposing("null component is not a subalgebra")
    if not one.contains_space(L.product(one, C)):
        raise NotDecomposing("one component is not invariant")
    return FittingPair(null, one)


def _candidate_phases(K: LeibnizAlgebra, rng: random.Random, budget: int):
    """Element candidates for the Cartan descent, cheapest first."""
    F, m = K.field, K.dim
    yield [K.basis_vector(i) for i in range(m)]
    pairs = [vec_add(F, K.basis_vector(i), K.basis_vector(j))
             for i in range(m) for j in range(i + 1, m)]
    if pairs:
        yield pairs
    randoms = []
    for _ in range(_RANDOM_TRIES):
        v = tuple(F.random_scalar(rng) for _ in range(m))
        if any(v):
            randoms.append(v)
    if randoms:
        yield randoms
    if F.is_finite and F.size ** m <= budget:
        sweep = [v for v in itertools.product(F.elements(), repeat=m) if any(v)]
        yield sweep


def _descend_step(K: LeibnizAlgebra, rng: random.Random,
                  budget: int) -> Optional[Subspace]:
    """Smallest Fitting-null subspace over candidates acting
    non-nilpotently, or None when no candidate acts non-nilpotently."""
    F = K.field
    for phase in _candidate_phases(K, rng, budget):
        best = None
        for x in phase:
            power = fitting_power(F, K.right_mult(x))
            if not any(map(any, power)):  # x acts nilpotently
                continue
            null = kernel(F, power)
            if best is None or null.dim < best.dim:
                best = null
        if best is not None:
            return best
    return None


@memo
def cartan_subalgebra(L: LeibnizAlgebra, seed: int = 0,
                      budget: int = DEFAULT_BUDGET) -> Subspace:
    """A nilpotent self-normalizing subalgebra, found by Fitting descent.

    Starting from L, repeatedly restrict to the generalized null space of
    an element acting non-nilpotently, preferring the candidate with the
    smallest null space.  The final candidate is verified; on failure a
    finite field falls back to exhaustive search.
    """
    rng = random.Random(seed)
    K = L.full_space()
    while K.dim:
        Kalg, Kemb = L.restrict(K)
        null_local = _descend_step(Kalg, rng, budget)
        if null_local is None:
            break
        K = Kemb.embed_space(null_local)
    result = None
    if K.dim == 0 and L.dim == 0:
        result = K
    elif K.dim and is_nilpotent_space(L, K) and L.normalizer(K) == K:
        result = K
    if result is None and L.field.is_finite:
        cartans = enumerated_cartan_subalgebras(L, budget)
        if cartans:
            result = cartans[0]
    if result is None:
        raise CartanSearchFailed(
            "no nilpotent self-normalizing subalgebra found")
    return result


@memo
def enumerated_cartan_subalgebras(L: LeibnizAlgebra,
                                  budget: int = DEFAULT_BUDGET):
    """All Cartan subalgebras of a small finite-field algebra, canonical order.

    These are the self-normalizing members of ``max_nilpotent_subalgebras``,
    because a nilpotent self-normalizing subalgebra H is maximal nilpotent.
    Let H be a proper subalgebra of a nilpotent subalgebra K, whose upper
    central series 0 = Z_0(K) < Z_1(K) < ... ends at K.  Take i minimal
    with Z_i(K) not inside H and z in Z_i(K) outside H.  Then
    [z, H] + [H, z] lies in Z_{i-1}(K), which lies in H, so z is in N(H)
    but not in H.
    """
    return tuple(S for S in max_nilpotent_subalgebras(L, budget)
                 if L.normalizer(S) == S)


@memo
def max_nilpotent_subalgebras(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """Maximal nilpotent subalgebras of a small finite-field algebra."""
    return _maximal_members(enumerate_spaces(L, "subalgebras", budget),
                            lambda S: is_nilpotent_space(L, S))


@dataclass(frozen=True)
class TriangularDecomposition:
    """Abelian chain decomposition L = A_n + ... + A_0 (parts listed from
    A_n down to A_0) with each partial sum A_n + ... + A_i equal to the
    i-th derived term."""
    parts: tuple

    @property
    def top(self) -> Subspace:
        return self.parts[0]

    @property
    def bottom(self) -> Subspace:
        return self.parts[-1]


def _triangular_parts(L: LeibnizAlgebra, seed: int, budget: int):
    ds = derived_series(L)
    if not ds.reaches_zero:
        raise NotSolvable("triangular decomposition needs a solvable algebra")
    d = len(ds.terms) - 1
    if d <= 1:
        return [L.full_space()]
    top = ds.terms[d - 1]
    M = ds.terms[d - 2]
    Malg, Memb = L.restrict(M)
    C = Memb.embed_space(cartan_subalgebra(Malg, seed=seed, budget=budget))
    pair = fitting_family(L, C)
    B, one = pair.null, pair.one
    if not top.contains_space(one):
        raise DecompositionFailed(
            "iterated product component escapes the last derived term")
    if not L.full_space().is_direct_sum(B, top):
        raise DecompositionFailed(
            "Fitting null component does not complement the last derived term")
    Balg, Bemb = L.restrict(B)
    sub = _triangular_parts(Balg, seed, budget)
    return [top] + [Bemb.embed_space(P) for P in sub]


@memo
def triangular_decomposition(L: LeibnizAlgebra, seed: int = 0,
                             budget: int = DEFAULT_BUDGET) -> TriangularDecomposition:
    try:
        return _verified_triangular(L, seed, budget)
    except (DecompositionFailed, NotDecomposing, CartanSearchFailed) as exc:
        raise DecompositionFailed(str(exc)) from exc


def _verified_triangular(L, seed, budget):
    parts = _triangular_parts(L, seed, budget)
    for idx, P in enumerate(parts):
        if not L.is_abelian_space(P):
            raise DecompositionFailed(f"part {idx} is not abelian")
    total = L.span([v for P in parts for v in P.basis])
    if total.dim != sum(P.dim for P in parts):
        raise DecompositionFailed("parts are not independent")
    if total.dim != L.dim:
        raise DecompositionFailed("parts do not span the algebra")
    ds = derived_series(L)
    partials = list(itertools.accumulate(parts, Subspace.add))
    for i, partial in enumerate(reversed(partials)):
        expected = ds.terms[i] if i < len(ds.terms) else L.zero_space()
        if partial != expected:
            raise DecompositionFailed(
                f"partial sum of parts does not match derived term {i}")
    return TriangularDecomposition(tuple(parts))


def ideal_decomposition(L: LeibnizAlgebra, decomp: TriangularDecomposition,
                        D: Subspace):
    """Slice an ideal along the parts: D = (D cap A_n) + ... + (D cap A_0)."""
    pieces = [D.intersect(P) for P in decomp.parts]
    total = L.span([v for piece in pieces for v in piece.basis])
    if total.dim != sum(piece.dim for piece in pieces):
        raise DecompositionFailed("ideal slices are not independent")
    if total != D:
        raise DecompositionFailed("ideal is not the sum of its part slices")
    return tuple(pieces)


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    applicable: bool
    holds: Optional[bool]
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.applicable and self.holds is False


def _na(clause: str, detail: str = "") -> ClauseResult:
    return ClauseResult(clause, False, None, detail)


def check_ideal_chain_alignment(L, decomp, ideals) -> ClauseResult:
    """Every ideal is the direct sum of its intersections with the parts."""
    clause = "ideal_chain_alignment"
    ideals = list(ideals)
    for D in ideals:
        try:
            ideal_decomposition(L, decomp, D)
        except DecompositionFailed:
            return ClauseResult(clause, True, False,
                                f"ideal of dim {D.dim} does not align")
    return ClauseResult(clause, True, True, f"checked {len(ideals)} ideals")


def check_nilradical_chain(L, decomp, N) -> ClauseResult:
    """N = A_n + (N cap A_{n-1}) + ... with pairwise zero products."""
    clause = "nilradical_chain_splitting"
    pieces = [N.intersect(P) for P in decomp.parts]
    if pieces[0] != decomp.top:
        return ClauseResult(clause, True, False,
                            "top part is not inside the nilradical")
    total = L.span([v for piece in pieces for v in piece.basis])
    if total.dim != sum(piece.dim for piece in pieces):
        return ClauseResult(clause, True, False, "slices are not independent")
    if total != N:
        return ClauseResult(clause, True, False,
                            "nilradical is not the sum of its slices")
    for i, Pi in enumerate(pieces):
        for j, Pj in enumerate(pieces):
            if i != j and L.product(Pi, Pj).dim != 0:
                return ClauseResult(clause, True, False,
                                    f"slices {i} and {j} do not multiply to zero")
    return ClauseResult(clause, True, True)


def check_part_centre_alignment(L, decomp, N) -> ClauseResult:
    """The centre of the i-th derived term is N cap A_i."""
    clause = "part_centre_alignment"
    ds = derived_series(L)
    n = len(decomp.parts) - 1
    for i in range(n + 1):
        term = ds.terms[i]
        Z = term.intersect(L.centralizer(term))
        expected = N.intersect(decomp.parts[n - i])
        if Z != expected:
            return ClauseResult(clause, True, False,
                                f"centre of derived term {i} misaligned")
    return ClauseResult(clause, True, True)


def check_minimal_ideal_location(L, decomp, N, minimals) -> ClauseResult:
    """Each minimal ideal lies in N cap A_i for some i."""
    clause = "minimal_ideal_location"
    slices = [N.intersect(P) for P in decomp.parts]
    for W in minimals:
        if not any(S.contains_space(W) for S in slices):
            return ClauseResult(clause, True, False,
                                f"minimal ideal of dim {W.dim} fits no slice")
    return ClauseResult(clause, True, True)


def check_strong_split(L, decomp, N) -> ClauseResult:
    """Derived subalgebra abelian with an abelian complement, and the
    nilradical is the direct sum of the derived subalgebra and centre."""
    clause = "strong_split"
    if not is_completely_solvable(L):
        return _na(clause, "algebra is not completely solvable")
    der = L.derived_space()
    B = decomp.bottom
    if not L.is_abelian_space(der):
        return ClauseResult(clause, True, False, "derived subalgebra not abelian")
    if not L.is_abelian_space(B):
        return ClauseResult(clause, True, False, "complement not abelian")
    if not L.full_space().is_direct_sum(der, B):
        return ClauseResult(clause, True, False, "complement does not split")
    Z = L.centre()
    if not N.is_direct_sum(der, Z):
        return ClauseResult(clause, True, False,
                            "nilradical is not derived-plus-centre")
    return ClauseResult(clause, True, True)


def check_minimal_ideal_position(L, decomp, minimals) -> ClauseResult:
    """Each minimal ideal lies in the derived subalgebra or the complement."""
    clause = "minimal_ideal_position"
    der = L.derived_space()
    B = decomp.bottom
    for W in minimals:
        if not der.contains_space(W) and not B.contains_space(W):
            return ClauseResult(clause, True, False,
                                f"minimal ideal of dim {W.dim} straddles the split")
    return ClauseResult(clause, True, True)


def check_minimal_ideal_centre(L, decomp, minimals) -> ClauseResult:
    """A minimal ideal lies in the complement iff it is central, and then
    it is one dimensional."""
    clause = "minimal_ideal_centre"
    B = decomp.bottom
    Z = L.centre()
    for W in minimals:
        in_B = B.contains_space(W)
        central = Z.contains_space(W)
        if in_B != central:
            return ClauseResult(clause, True, False,
                                "complement membership disagrees with centrality")
        if in_B and W.dim != 1:
            return ClauseResult(clause, True, False,
                                "central minimal ideal is not a line")
    return ClauseResult(clause, True, True)


def check_minimal_ideal_derived(L, minimals) -> ClauseResult:
    """A minimal ideal lies in the derived subalgebra iff right products
    with the whole algebra reproduce it."""
    clause = "minimal_ideal_derived"
    der = L.derived_space()
    full = L.full_space()
    for W in minimals:
        if der.contains_space(W) != (L.product(W, full) == W):
            return ClauseResult(clause, True, False,
                                "derived membership disagrees with [W,L] = W")
    return ClauseResult(clause, True, True)


def check_frattini_free_socle(L, budget: int = DEFAULT_BUDGET) -> ClauseResult:
    """Zero Frattini ideal iff the derived subalgebra sits inside the sum
    of abelian minimal ideals."""
    clause = "frattini_free_socle"
    if not is_completely_solvable(L):
        return _na(clause, "algebra is not completely solvable")
    try:
        phi = frattini_ideal(L, budget)
        soc = socle_analysis(L, budget)
    except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
        return _na(clause, str(exc))
    lhs = phi.dim == 0
    rhs = soc.asoc.contains_space(L.derived_space())
    if lhs != rhs:
        return ClauseResult(clause, True, False,
                            f"frattini dim {phi.dim}, derived in socle: {rhs}")
    return ClauseResult(clause, True, True)


def check_max_nilpotent_complement(L, U) -> ClauseResult:
    """For a maximal nilpotent subalgebra U of a metabelian algebra, the
    derived subalgebra splits as (U cap L^2) + K with K an ideal
    satisfying [K, U] = K."""
    clause = "max_nilpotent_complement"
    if not is_metabelian(L):
        return _na(clause, "algebra is not metabelian")
    der = L.derived_space()
    I = U.intersect(der)
    if not L.is_abelian_space(I) or not L.is_ideal(I):
        return ClauseResult(clause, True, False,
                            "U cap L^2 is not an abelian ideal")
    try:
        pair = fitting_family(L, U)
    except NotDecomposing as exc:
        return ClauseResult(clause, True, False, str(exc))
    K = pair.one
    if not der.is_direct_sum(I, K):
        return ClauseResult(clause, True, False,
                            "derived subalgebra does not split over U cap L^2")
    if not L.is_ideal(K):
        return ClauseResult(clause, True, False, "complement K is not an ideal")
    if L.product(K, U) != K:
        return ClauseResult(clause, True, False, "[K, U] differs from K")
    return ClauseResult(clause, True, True)


def check_max_nilpotent_cartan_split(L, budget: int = DEFAULT_BUDGET) -> ClauseResult:
    """Each maximal nilpotent subalgebra U splits as
    (U cap L^2) + (U cap C) for some Cartan subalgebra C."""
    clause = "max_nilpotent_cartan_split"
    if not is_completely_solvable(L):
        return _na(clause, "algebra is not completely solvable")
    try:
        maxes = max_nilpotent_subalgebras(L, budget)
        cartans = enumerated_cartan_subalgebras(L, budget)
    except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
        return _na(clause, str(exc))
    der = L.derived_space()
    for U in maxes:
        I = U.intersect(der)
        if not any(U.is_direct_sum(I, U.intersect(C)) for C in cartans):
            return ClauseResult(clause, True, False,
                                f"no Cartan splits a maximal nilpotent of dim {U.dim}")
    return ClauseResult(clause, True, True)


def check_max_nilpotent_inventory(L, budget: int = DEFAULT_BUDGET) -> ClauseResult:
    """In the monolithic completely solvable case the maximal nilpotent
    subalgebras are the derived subalgebra together with the Cartan
    subalgebras; a nilpotent algebra has only itself."""
    clause = "max_nilpotent_inventory"
    try:
        soc = socle_analysis(L, budget)
        maxes = max_nilpotent_subalgebras(L, budget)
    except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
        return _na(clause, str(exc))
    if not soc.monolithic or not is_completely_solvable(L):
        return _na(clause, "algebra is not monolithic completely solvable")
    if is_nilpotent(L):
        ok = set(maxes) == {L.full_space()}
        return ClauseResult(clause, True, ok,
                            "" if ok else "nilpotent algebra has extra maximals")
    try:
        cartans = enumerated_cartan_subalgebras(L, budget)
    except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
        return _na(clause, str(exc))
    expected = {L.derived_space()} | set(cartans)
    if set(maxes) != expected:
        return ClauseResult(clause, True, False,
                            f"{len(maxes)} maximals vs {len(expected)} expected")
    return ClauseResult(clause, True, True)


def check_monolith_abelian(L, W) -> ClauseResult:
    clause = "monolith_abelian"
    ok = L.is_abelian_space(W)
    return ClauseResult(clause, True, ok, "" if ok else "monolith not abelian")


def check_monolith_centre_product(L, W) -> ClauseResult:
    """Non-abelian monolithic case: trivial centre and one-sided products
    with the whole algebra reproduce the monolith."""
    clause = "monolith_centre_product"
    if L.is_abelian():
        return _na(clause, "algebra is abelian")
    full = L.full_space()
    if L.centre().dim != 0:
        return ClauseResult(clause, True, False, "centre is nonzero")
    if L.product(full, W) != W and L.product(W, full) != W:
        return ClauseResult(clause, True, False,
                            "neither one-sided product reproduces the monolith")
    return ClauseResult(clause, True, True)


def check_monolith_nilradical_top(L, decomp, N) -> ClauseResult:
    """The nilradical is the top part, which is the last derived term."""
    clause = "monolith_nilradical_top"
    ds = derived_series(L)
    last = ds.terms[-2] if ds.reaches_zero and len(ds.terms) >= 2 else ds.terms[-1]
    if N != decomp.top or N != last:
        return ClauseResult(clause, True, False,
                            "nilradical differs from the top part")
    return ClauseResult(clause, True, True)


def check_monolith_centralizer(L, W, N) -> ClauseResult:
    clause = "monolith_centralizer"
    ok = L.centralizer(W) == N
    return ClauseResult(clause, True, ok,
                        "" if ok else "centralizer of monolith is not the nilradical")


def check_monolith_frattini(L, W, N, budget: int = DEFAULT_BUDGET) -> ClauseResult:
    """Zero Frattini ideal iff the monolith is the whole nilradical."""
    clause = "monolith_frattini"
    try:
        phi = frattini_ideal(L, budget)
    except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
        return _na(clause, str(exc))
    lhs = phi.dim == 0
    rhs = W == N
    if lhs != rhs:
        return ClauseResult(clause, True, False,
                            f"frattini dim {phi.dim}, monolith equals nilradical: {rhs}")
    return ClauseResult(clause, True, True)


@dataclass(frozen=True)
class StructureReport:
    predicates: dict
    decomposition: Optional[TriangularDecomposition]
    decomposition_error: Optional[str]
    nilradical: Subspace
    nilradical_mode: str
    clauses: tuple


def structure_report(L: LeibnizAlgebra, seed: int = 0,
                     budget: int = DEFAULT_BUDGET) -> StructureReport:
    """Decomposition-centric summary used by reporting front ends."""
    preds = {
        "abelian": L.is_abelian(),
        "nilpotent": is_nilpotent(L),
        "solvable": is_solvable(L),
        "completely_solvable": is_completely_solvable(L),
        "metabelian": is_metabelian(L),
    }
    N, mode = nilradical(L, budget)
    decomp = None
    error = None
    if preds["solvable"]:
        try:
            decomp = triangular_decomposition(L, seed=seed, budget=budget)
        except DecompositionFailed as exc:
            error = str(exc)
    else:
        error = "algebra is not solvable"
    clauses = []
    if decomp is not None:
        known_ideals = list(dict.fromkeys([L.zero_space(), L.derived_space(),
                                           L.leib_ideal(), L.centre(),
                                           L.full_space()]))
        minimals = None
        if L.field.is_finite:
            try:
                known_ideals = list(enumerate_spaces(L, "ideals", budget))
                minimals = socle_analysis(L, budget).minimal_ideals
            except (InfiniteFieldUnsupported, BudgetExceeded):
                minimals = None
        clauses.append(check_ideal_chain_alignment(L, decomp, known_ideals))
        clauses.append(check_nilradical_chain(L, decomp, N))
        clauses.append(check_part_centre_alignment(L, decomp, N))
        clauses.append(check_strong_split(L, decomp, N))
        if minimals is not None:
            clauses.append(check_minimal_ideal_location(L, decomp, N, minimals))
            clauses.append(check_minimal_ideal_position(L, decomp, minimals))
            clauses.append(check_minimal_ideal_centre(L, decomp, minimals))
            clauses.append(check_minimal_ideal_derived(L, minimals))
        clauses.append(check_frattini_free_socle(L, budget))
    return StructureReport(preds, decomp, error, N, mode, tuple(clauses))
