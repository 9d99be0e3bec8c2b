"""Exhaustive subspace, subalgebra and ideal enumeration over finite fields.

Subspaces of F^n are streamed in a canonical order: by dimension, then
lexicographically on the reduced-echelon basis rows (scalars of finite
fields are ints, so row tuples compare directly).  Every run revisits the
same subspaces in the same order, which makes enumeration-backed verdicts
and witnesses reproducible.

The subspace count is computed up front from Gaussian binomials and
checked against the caller's budget before any work happens.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import LeibnizAlgebra, memo
from .errors import BudgetExceeded, InfiniteFieldUnsupported
from .fields import PrimeField
from .linalg import Subspace

DEFAULT_BUDGET = 10 ** 6


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def total_subspaces(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, d, q) for d in range(n + 1))


def _check_enumerable(L: LeibnizAlgebra, budget: int) -> None:
    if not L.field.is_finite:
        raise InfiniteFieldUnsupported(
            "subspace enumeration needs a finite ground field")
    needed = total_subspaces(L.dim, L.field.size)
    if needed > budget:
        raise BudgetExceeded(needed, budget)


def echelon_bases(field, n: int):
    """Yield (rows, pivots) for every subspace of F^n in canonical order."""
    elems = list(field.elements())
    zero, one = field.zero, field.one
    for d in range(n + 1):
        batch = []
        for pivots in itertools.combinations(range(n), d):
            pivset = set(pivots)
            free = [(r, j) for r in range(d) for j in range(pivots[r] + 1, n)
                    if j not in pivset]
            base_rows = []
            for r in range(d):
                row = [zero] * n
                row[pivots[r]] = one
                base_rows.append(row)
            if not free:
                batch.append((tuple(tuple(r) for r in base_rows), pivots))
                continue
            for values in itertools.product(elems, repeat=len(free)):
                rows = [list(r) for r in base_rows]
                for (r, j), v in zip(free, values):
                    rows[r][j] = v
                batch.append((tuple(tuple(r) for r in rows), pivots))
        batch.sort(key=lambda rp: rp[0])
        yield from batch


def _subalgebra_tester(L: LeibnizAlgebra):
    """Fast closure test: do all pairwise basis products stay inside?"""
    table = L.table
    n = L.dim
    F = L.field
    if isinstance(F, PrimeField):
        p = F.p

        def test(rows, pivots) -> bool:
            for u in rows:
                for v in rows:
                    w = [0] * n
                    for i, a in enumerate(u):
                        if a:
                            row_i = table[i]
                            for j, b in enumerate(v):
                                if b:
                                    c = a * b
                                    ent = row_i[j]
                                    for m, e in enumerate(ent):
                                        if e:
                                            w[m] += c * e
                    if not _reduces_to_zero_mod(w, rows, pivots, p):
                        return False
            return True

        return test

    def test(rows, pivots) -> bool:
        for u in rows:
            for v in rows:
                w = list(L.bracket(u, v))
                if not _reduces_to_zero(F, w, rows, pivots):
                    return False
        return True

    return test


def _ideal_tester(L: LeibnizAlgebra):
    """Two-sided ideal test against all basis vectors; implies subalgebra."""
    table = L.table
    n = L.dim
    F = L.field
    if isinstance(F, PrimeField):
        p = F.p

        def test(rows, pivots) -> bool:
            for u in rows:
                for i in range(n):
                    right = [0] * n  # [u, e_i]
                    left = [0] * n   # [e_i, u]
                    row_i = table[i]
                    for m, a in enumerate(u):
                        if a:
                            for t, e in enumerate(table[m][i]):
                                if e:
                                    right[t] += a * e
                            for t, e in enumerate(row_i[m]):
                                if e:
                                    left[t] += a * e
                    if not _reduces_to_zero_mod(right, rows, pivots, p):
                        return False
                    if not _reduces_to_zero_mod(left, rows, pivots, p):
                        return False
            return True

        return test

    def test(rows, pivots) -> bool:
        for u in rows:
            for i in range(n):
                e = L.basis_vector(i)
                if not _reduces_to_zero(F, list(L.bracket(u, e)), rows, pivots):
                    return False
                if not _reduces_to_zero(F, list(L.bracket(e, u)), rows, pivots):
                    return False
        return True

    return test


def _reduces_to_zero_mod(w, rows, pivots, p) -> bool:
    for m in range(len(w)):
        w[m] %= p
    for row, pv in zip(rows, pivots):
        c = w[pv]
        if c:
            for m, rm in enumerate(row):
                if rm:
                    w[m] = (w[m] - c * rm) % p
    return not any(w)


def _reduces_to_zero(F, w, rows, pivots) -> bool:
    for row, pv in zip(rows, pivots):
        c = w[pv]
        if not F.is_zero(c):
            for m, rm in enumerate(row):
                if not F.is_zero(rm):
                    w[m] = F.sub(w[m], F.mul(c, rm))
    return all(F.is_zero(x) for x in w)


def iter_subspaces(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    _check_enumerable(L, budget)
    F, n = L.field, L.dim
    for rows, pivots in echelon_bases(F, n):
        yield Subspace(F, n, rows, pivots)


def iter_subalgebras(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    _check_enumerable(L, budget)
    F, n = L.field, L.dim
    test = _subalgebra_tester(L)
    for rows, pivots in echelon_bases(F, n):
        if test(rows, pivots):
            yield Subspace(F, n, rows, pivots)


def iter_ideals(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    _check_enumerable(L, budget)
    F, n = L.field, L.dim
    test = _ideal_tester(L)
    for rows, pivots in echelon_bases(F, n):
        if test(rows, pivots):
            yield Subspace(F, n, rows, pivots)


_ITERATORS = {
    "subspaces": iter_subspaces,
    "subalgebras": iter_subalgebras,
    "ideals": iter_ideals,
}


def enumerate_spaces(L: LeibnizAlgebra, kind: str, budget: int = DEFAULT_BUDGET):
    """All subspaces of the given kind, canonical order.

    The budget gate runs on every call.  A scan that passed it does not
    depend on the budget, so the scan is memoised per kind alone.
    """
    if kind not in _ITERATORS:
        raise ValueError(f"unknown enumeration kind {kind!r}")
    _check_enumerable(L, budget)
    return _scan(L, kind)


@memo
def _scan(L: LeibnizAlgebra, kind: str):
    return tuple(_ITERATORS[kind](L, math.inf))  # enumerate_spaces gated it


@dataclass(frozen=True)
class SocleReport:
    minimal_ideals: tuple
    asoc: Subspace  # sum of the abelian minimal ideals
    monolithic: bool
    monolith: Optional[Subspace]


@memo
def socle_analysis(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> SocleReport:
    minimal = []
    for I in enumerate_spaces(L, "ideals", budget):
        if I.is_zero():
            continue
        if any(M.dim < I.dim and I.contains_space(M) for M in minimal):
            continue
        minimal.append(I)
    asoc = L.zero_space()
    for M in minimal:
        if L.is_abelian_space(M):
            asoc = asoc.add(M)
    return SocleReport(tuple(minimal), asoc, len(minimal) == 1,
                       minimal[0] if len(minimal) == 1 else None)


@memo
def maximal_subalgebras(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """Maximal proper subalgebras, canonical order."""
    proper = [S for S in enumerate_spaces(L, "subalgebras", budget)
              if S.dim < L.dim]
    out = []
    for S in proper:
        if not any(T.dim > S.dim and T.contains_space(S) for T in proper):
            out.append(S)
    return tuple(out)


@memo
def frattini_ideal(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> Subspace:
    """Largest ideal inside the intersection of all maximal subalgebras.

    The intersection itself need not be an ideal, so it is not assumed to
    be one: when the check fails, the result is the sum of all enumerated
    ideals lying inside the intersection.
    """
    maxes = maximal_subalgebras(L, budget)
    if not maxes:
        return L.zero_space()
    inter = maxes[0]
    for M in maxes[1:]:
        inter = inter.intersect(M)
    if L.is_ideal(inter):
        return inter
    result = L.zero_space()
    for I in enumerate_spaces(L, "ideals", budget):
        if inter.contains_space(I):
            result = result.add(I)
    return result
