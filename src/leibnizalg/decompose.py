"""Fitting decompositions, Cartan subalgebras, triangular decompositions.

Fitting components are (null, one) tuples of subspaces; the null
component under a subalgebra comes from ``LeibnizAlgebra._kernel_mod``,
the kernel builder that stabilizers use.  Every construction here
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


def _candidates(K: LeibnizAlgebra, budget: int):
    """Element candidates for the Cartan descent, cheapest first: the basis
    sums and differences, then every vector of a small enough finite field.

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
    yield from _basis_sums_differences(K)
    if F.is_finite and F.size ** m <= budget:
        yield from itertools.product(F.elements(), repeat=m)


def _fitting_null(L: LeibnizAlgebra, x) -> Optional[Subspace]:
    """The Fitting null space of right multiplication by x, or None when x
    acts nilpotently."""
    power = fitting_power(L.field, L.right_mult(x))
    return kernel(L.field, power) if any(map(any, power)) else None


@memo
def cartan_subalgebra(L: LeibnizAlgebra,
                      budget: int = DEFAULT_BUDGET) -> Subspace:
    """A nilpotent self-normalizing subalgebra, found by Fitting descent.

    While K (at first L) is not nilpotent, restrict it to the generalized
    null space of the first candidate element that acts non-nilpotently.
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
        Kalg = L.restrict(K)
        nulls = (_fitting_null(Kalg, x) for x in _candidates(Kalg, budget))
        null_local = next((N for N in nulls if N is not None), None)
        if null_local is None:
            break
        K = K.embed_space(null_local)
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
    return _maximal_members(enumerate_spaces(L, "subalgebras", budget),
                            lambda S: is_nilpotent_space(L, S))


def _triangular_parts(L: LeibnizAlgebra, budget: int):
    if not is_solvable(L):
        raise DecompositionFailed("triangular decomposition needs a solvable algebra")
    ds = derived_series(L)
    d = len(ds) - 1
    if d <= 1:
        return [L.full_space()]
    top = ds[d - 1]
    M = ds[d - 2]
    C = M.embed_space(cartan_subalgebra(L.restrict(M), budget))
    B, one = fitting_family(L, C)
    if not top.contains_space(one):
        raise DecompositionFailed(
            "iterated product component escapes the last derived term")
    if not L.full_space().is_direct_sum(B, top):
        raise DecompositionFailed(
            "Fitting null component does not complement the last derived term")
    sub = _triangular_parts(L.restrict(B), budget)
    return [top] + [B.embed_space(P) for P in sub]


@memo
def triangular_decomposition(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Abelian chain decomposition L = A_n + ... + A_0, returned as the
    tuple of parts from A_n down to A_0, with each partial sum
    A_n + ... + A_i equal to the i-th derived term."""
    parts = _triangular_parts(L, budget)
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
