"""Fitting decompositions, Cartan subalgebras, triangular decompositions.

Fitting components are (null, one) tuples of subspaces; the null
component under a subalgebra comes from ``LeibnizAlgebra._kernel_mod``,
the kernel builder that stabilizers use.  The Cartan descent and the
triangular decomposition work in L's coordinates, each step meeting its
subalgebra K or B with a null space in L.  Every construction here
re-verifies its own output before returning it: Fitting components check
directness, invariance and the nilpotent/invertible split; Cartan
candidates are accepted only after a nilpotency and self-normalizer
check; triangular decompositions confirm abelian parts and alignment
with the derived series.  Failures raise rather than returning something
plausible.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .core import LeibnizAlgebra, memo
from .enumeration import DEFAULT_BUDGET, _maximal_members, enumerate_spaces
from .errors import BudgetExceeded, DecompositionFailed
from .linalg import (Subspace, chain, fitting_power, image,
                     is_nilpotent_operator, kernel, mat_vec, restrict_operator,
                     vec_add, vec_sub)
from .series import derived_series, is_nilpotent_space, is_solvable


def fitting(L: LeibnizAlgebra, A) -> tuple:
    """Fitting decomposition of the space of L under one operator matrix.

    Returns (null, one), the kernel and the image of the Fitting power of
    A, after checking that they are complementary, invariant, and that A
    is nilpotent on the first and invertible on the second.
    """
    F, n = L.field, L.dim
    power = fitting_power(F, A)
    null = kernel(F, power, ncols=n)
    one = image(F, power)
    if not L.full_space().is_direct_sum(null, one):
        raise DecompositionFailed("operator Fitting components are not complementary")
    for space, name in ((null, "null"), (one, "one")):
        for v in space.basis:
            if not space.contains(mat_vec(F, A, v)):
                raise DecompositionFailed(f"Fitting {name} component is not invariant")
    if one.dim:
        R = restrict_operator(F, A, one)
        if kernel(F, R, ncols=one.dim).dim != 0:
            raise DecompositionFailed("operator is not invertible on its one-component")
    if null.dim:
        R = restrict_operator(F, A, null)
        if not is_nilpotent_operator(F, R):
            raise DecompositionFailed("operator is not nilpotent on its null component")
    return null, one


def fitting_family(L: LeibnizAlgebra, C: Subspace) -> tuple:
    """Joint Fitting decomposition (null, one) of L under right
    multiplication by a nilpotent subalgebra C.

    null  = vectors killed by every long enough chain of right products
            with C: the limit of W -> {x : [x, C] in W} from 0,
    one   = stabilized span of iterated products [.. [L, C], C] .. .
    """
    br = L._bracket
    one = chain(L.full_space(), lambda T: L.product(T, C))[-1]
    null = chain(L.zero_space(), lambda W: L._kernel_mod(
        W, lambda e: [br(e, c) for c in C.basis]))[-1]
    if not L.full_space().is_direct_sum(null, one):
        raise DecompositionFailed("joint Fitting components are not complementary")
    if not null.contains_space(C):
        raise DecompositionFailed("null component does not contain the acting subalgebra")
    if not null.contains_space(L.product(null, null)):
        raise DecompositionFailed("null component is not a subalgebra")
    if not one.contains_space(L.product(one, C)):
        raise DecompositionFailed("one component is not invariant")
    return null, one


def _sums_differences(F, basis) -> list:
    """The basis vectors, then u + v and u - v for each earlier u and later v."""
    return list(basis) + [w for u, v in itertools.combinations(basis, 2)
                          for w in (vec_add(F, u, v), vec_sub(F, u, v))]


def _candidates(K: Subspace, budget: int):
    """Candidates x in K for the Cartan descent, cheapest first: K's echelon
    basis with its sums and differences, then all of K over a small field.

    In characteristic 0 the basis vectors and their sums contain an element
    acting non-nilpotently on a non-nilpotent K, by Engel's theorem for
    Leibniz algebras and R_{[y,z]} = R_z R_y - R_y R_z, which makes R_K a
    Lie algebra.  If K is solvable, so is R_K, triangular over the closure
    by Lie's theorem: the nilpotently acting elements are the common kernel
    of the diagonal weights, a proper subspace, which misses a basis
    vector.  If not, R_K is not solvable either (ker R is abelian), so by
    Cartan's criterion tr(R_x R_y) != 0 for some x, y; a symmetric form
    vanishing on every e_i and e_i + e_j is zero, so some candidate has
    tr(R_x^2) != 0.
    """
    F, m = K.field, K.dim
    yield from _sums_differences(F, K.basis)
    if F.is_finite and F.size ** m <= budget:
        yield from map(K.embed, itertools.product(F.elements(), repeat=m))


def _fitting_null(L: LeibnizAlgebra, K: Subspace, x) -> Optional[Subspace]:
    """The Fitting null space K cap L_0(x) of R_x on the subalgebra K, which
    R_x preserves for x in K, or None when x acts nilpotently on K."""
    power = fitting_power(L.field, L.right_mult(x))
    null = kernel(L.field, power).intersect(K) if any(map(any, power)) else K
    return None if null.dim == K.dim else null


def cartan_subalgebra(L: LeibnizAlgebra,
                      budget: int = DEFAULT_BUDGET) -> Subspace:
    """A nilpotent self-normalizing subalgebra, found by Fitting descent.

    While K (at first L) is not nilpotent, meet it with L_0(x) for the
    first candidate x that acts non-nilpotently on K.
    A nilpotent K is verified self-normalizing; on failure a finite field
    falls back to exhaustive search, and past the budget the search fails.

    A descent that ends after one step ends self-normalizing.  Write
    x = x0 + x1 along L_0(x) + L_1(x), with K = L_0(x).  For large m,
    R_x^m x1 = R_x^m x = R_x^{m-1}(x^2) lies in the ideal Leib(L) of
    squares, and R_x is invertible on L_1(x), so x1 lies in Leib(L).
    Right multiplication by Leib(L) is zero, so R_x = R_{x0} with x0 in
    K, and the Lie argument applies: R_x moves a y normalizing K into K,
    so it moves the L_1(x) part of y into K cap L_1(x) = 0, and that part
    is zero.  Two or more steps can fail in characteristic p.  Let
    r2 = span(a, b), [b, a] = a, act on V = span(v_0, ..., v_{p-1}) over
    GF(p) by a.v_i = v_{i+1} (indices mod p) and b.v_i = i v_i.  The
    descent goes from r2 + V to r2 = L_0(a) and then to span(b), which
    v_0 normalizes.
    """
    K = L.full_space()
    while not is_nilpotent_space(L, K):
        nulls = (_fitting_null(L, K, x) for x in _candidates(K, budget))
        K = next((N for N in nulls if N is not None), None)
        if K is None:
            break
    else:
        if L.normalizer(K) == K:
            return K
    if L.field.is_finite:
        try:
            cartans = enumerated_cartan_subalgebras(L, budget)
        except BudgetExceeded as exc:
            raise DecompositionFailed(str(exc)) from exc
        if cartans:
            return cartans[0]
    raise DecompositionFailed("no nilpotent self-normalizing subalgebra found")


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
    return tuple(_maximal_members(enumerate_spaces(L, "subalgebras", budget),
                                  lambda S: is_nilpotent_space(L, S)))[::-1]


def triangular_decomposition(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Abelian chain decomposition L = A_n + ... + A_0, returned as the
    tuple of parts from A_n down to A_0, with each partial sum
    A_n + ... + A_i equal to the i-th derived term.

    B starts as L.  While B is not abelian, its last nonzero derived term
    is the next part, and B becomes B cap null for the Fitting components
    (null, one) of L under a Cartan subalgebra C of the term before that.
    C lies in B, so B is R_C-invariant and its own components under C are
    B cap null, by definition, and B cap one, which contains B's one
    component and meets B cap null in 0.
    """
    if not is_solvable(L):
        raise DecompositionFailed("triangular decomposition needs a solvable algebra")
    parts, B = [], L.full_space()
    while len(ds := derived_series(L, B)) > 2:
        top, M = ds[-2], ds[-3]
        C = M.embed_space(cartan_subalgebra(L.restrict(M), budget))
        null, one = fitting_family(L, C)
        if not top.contains_space(one.intersect(B)):
            raise DecompositionFailed(
                "iterated product component escapes the last derived term")
        N = null.intersect(B)
        if not B.is_direct_sum(N, top):
            raise DecompositionFailed(
                "Fitting null component does not complement the last derived term")
        parts.append(top)
        B = N
    parts.append(B)
    for idx, P in enumerate(parts):
        if not L.is_abelian_space(P):
            raise DecompositionFailed(f"part {idx} is not abelian")
    if not L.full_space().is_direct_sum(*parts):
        raise DecompositionFailed("algebra is not the direct sum of the parts")
    ds = derived_series(L)
    partials = list(itertools.accumulate(parts, Subspace.add))
    for i, partial in enumerate(reversed(partials)):
        expected = ds[i] if i < len(ds) else L.zero_space()
        if partial != expected:
            raise DecompositionFailed(
                f"partial sum of parts does not match derived term {i}")
    return tuple(parts)
