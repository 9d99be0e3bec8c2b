"""Characteristic series, solvability and nilpotency predicates, radicals.

A series is a tuple of `Subspace` terms, from the first term to the one
where it stabilizes, as `linalg.chain` builds it; it reaches zero when its
last term is zero.  Terms are in ambient coordinates even for the series
of a proper subalgebra: products of subspaces do not care whether the
computation happens in a restriction or in the ambient algebra.
Full-algebra series and predicates are memoised on the algebra; series of
a subspace and the radicals, which a report reads once, are not.
"""

from __future__ import annotations

from .core import LeibnizAlgebra, memo
from .enumeration import (DEFAULT_BUDGET, _largest_member, enumerate_spaces,
                          is_enumerable)
from .errors import InfiniteFieldUnsupported, LeibnizError
from .linalg import Subspace, chain


def _derived_chain(L: LeibnizAlgebra, U: Subspace) -> tuple:
    return chain(U, lambda T: L.product(T, T))


def _lower_central_chain(L: LeibnizAlgebra, U: Subspace) -> tuple:
    return chain(U, lambda T: L.product(T, U))


@memo
def _algebra_series(L: LeibnizAlgebra, builder) -> tuple:
    return builder(L, L.full_space())


def derived_series(L: LeibnizAlgebra, U: Subspace | None = None) -> tuple:
    """U (or L), then T -> [T, T]."""
    if U is None:
        return _algebra_series(L, _derived_chain)
    return _derived_chain(L, U)


def lower_central_series(L: LeibnizAlgebra, U: Subspace | None = None) -> tuple:
    """U (or L), then T -> [T, U]."""
    if U is None:
        return _algebra_series(L, _lower_central_chain)
    return _lower_central_chain(L, U)


@memo
def upper_central_series(L: LeibnizAlgebra) -> tuple:
    """Z_0 = 0 and Z_{i+1} = {x : [x, L] + [L, x] in Z_i}, the preimage of
    the centre of L/Z_i."""
    full = L.full_space()
    return chain(L.zero_space(), lambda W: L.stabilizer(full, W))


def hypercentre(L: LeibnizAlgebra) -> Subspace:
    return upper_central_series(L)[-1]


def nilpotent_residual(L: LeibnizAlgebra, U: Subspace | None = None) -> Subspace:
    """Stabilized term of the lower central series: smallest term K with
    the quotient (U or L)/K nilpotent."""
    return lower_central_series(L, U)[-1]


@memo
def lower_nilpotent_series(L: LeibnizAlgebra) -> tuple:
    """N_0 = L, each next term the nilpotent residual of the previous one,
    taken as an algebra in its own right."""
    return chain(L.full_space(), lambda T: nilpotent_residual(L, T))


def is_nilpotent(L: LeibnizAlgebra) -> bool:
    return lower_central_series(L)[-1].is_zero()


def is_solvable(L: LeibnizAlgebra) -> bool:
    return derived_series(L)[-1].is_zero()


@memo
def is_completely_solvable(L: LeibnizAlgebra) -> bool:
    """The derived subalgebra is nilpotent (sometimes called strongly
    solvable)."""
    return lower_central_series(L, L.derived_space())[-1].is_zero()


def is_metabelian(L: LeibnizAlgebra) -> bool:
    return L.is_abelian_space(L.derived_space())


def predicates(L: LeibnizAlgebra) -> dict:
    """The structural predicates of L, in the order the reports list them."""
    return {
        "abelian": L.is_abelian(),
        "nilpotent": is_nilpotent(L),
        "solvable": is_solvable(L),
        "completely_solvable": is_completely_solvable(L),
        "metabelian": is_metabelian(L),
    }


def nilpotency_class(L: LeibnizAlgebra) -> int:
    if not is_nilpotent(L):
        raise LeibnizError("nilpotency class undefined: algebra is not nilpotent")
    return len(lower_central_series(L)) - 1


def derived_length(L: LeibnizAlgebra) -> int:
    if not is_solvable(L):
        raise LeibnizError("derived length undefined: algebra is not solvable")
    return len(derived_series(L)) - 1


def is_nilpotent_space(L: LeibnizAlgebra, U: Subspace) -> bool:
    return lower_central_series(L, U)[-1].is_zero()


def is_solvable_space(L: LeibnizAlgebra, U: Subspace) -> bool:
    return derived_series(L, U)[-1].is_zero()


def nilradical(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """Largest nilpotent ideal when computable exactly.

    Returns (subspace, mode) with mode "exact" or "lower_bound".  Exact
    answers come from the nilpotent case or from exhausting the ideals of
    a small finite-field algebra.  Otherwise the result is a verified
    nilpotent ideal containing the hypercentre, the squares ideal and the
    first nilpotent derived term, which may be smaller than the true
    nilradical.
    """
    if is_nilpotent(L):
        return L.full_space(), "exact"
    if is_enumerable(L, budget):
        return _largest_member(enumerate_spaces(L, "ideals", budget),
                               lambda I: is_nilpotent_space(L, I)), "exact"
    total = hypercentre(L).add(L.leib_ideal())
    for term in derived_series(L)[1:]:
        if is_nilpotent_space(L, term):
            total = total.add(term)
            break
    if not L.is_ideal(total) or not is_nilpotent_space(L, total):
        raise LeibnizError("nilradical lower bound failed verification")
    return total, "lower_bound"


def radical(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """Largest solvable ideal; exact or it refuses.

    Returns (subspace, "exact").  Over infinite fields the only exact case
    implemented is the solvable one; anything else raises
    InfiniteFieldUnsupported rather than guessing.
    """
    if is_solvable(L):
        return L.full_space(), "exact"
    if not L.field.is_finite:
        raise InfiniteFieldUnsupported(
            "radical of a non-solvable algebra needs a finite ground field")
    return _largest_member(enumerate_spaces(L, "ideals", budget),
                           lambda I: is_solvable_space(L, I)), "exact"
