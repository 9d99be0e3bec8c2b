"""Exhaustive subspace, subalgebra and ideal enumeration over finite fields.

Subspaces of F^n are streamed in a canonical order: by dimension, then
lexicographically on the reduced-echelon basis rows (scalars of finite
fields are ints, so row tuples compare directly).  Every run revisits the
same subspaces in the same order, which makes enumeration-backed verdicts
and witnesses reproducible.

The subspace count is computed up front from Gaussian binomials and
checked against the caller's budget before any work happens.

One walker, ``echelon_bases``, serves both scans.  For the subspaces it
yields every echelon basis; for the subalgebras it is given the bracket and
prunes, row by row, every branch whose brackets cannot close, so the walk
itself decides closure and yields the subalgebras in the order of the full
walk.  Each algebra's subspaces are walked once: the subalgebra scan is
memoised, and the ideals are read off it, since every ideal is a
subalgebra.
"""

from __future__ import annotations

import itertools
import math

from .core import LeibnizAlgebra, memo
from .errors import BudgetExceeded, InfiniteFieldUnsupported, LeibnizError
from .linalg import Subspace, kernel
from .value import Value

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


def is_enumerable(L: LeibnizAlgebra, budget: int) -> bool:
    """Whether the field is finite and all subspaces fit the budget."""
    return L.field.is_finite and total_subspaces(L.dim, L.field.size) <= budget


def _check_enumerable(L: LeibnizAlgebra, budget: int) -> None:
    if not L.field.is_finite:
        raise InfiniteFieldUnsupported(
            "subspace enumeration needs a finite ground field")
    needed = total_subspaces(L.dim, L.field.size)
    if needed > budget:
        raise BudgetExceeded(needed, budget)


def echelon_bases(field, n: int, bracket=None):
    """Yield (rows, pivots) for the subspaces of F^n in canonical order:
    every subspace, or, given an algebra's ``bracket``, exactly its
    subalgebras.

    Each pivot pattern p_1 < ... < p_d is walked depth first, fixing the
    echelon rows r_1, r_2, ... one at a time (r_t is 1 at p_t, 0 at the
    other pivots and left of p_t).  Given ``bracket``, the walk keeps the
    residual of each [r_a, r_b] over the fixed rows: each time a row is
    fixed, the old residuals are reduced by the new row and checked first,
    and only then are its brackets with itself and the earlier rows formed
    and reduced by all fixed rows.  Each fixed row's support, as a (pivot,
    nonzero entries) pair, is computed once and carried down the recursion.
    A subspace is closed exactly when every residual is zero after all d
    rows.  Write p_{d+1} = n.

    - After r_1..r_t, a nonzero residual whose leading entry e is none of
      the remaining pivots p_{t+1}, ..., p_d kills the branch.  A later
      row r_s is zero left of p_s, and reducing by it subtracts
      rho[p_s] r_s: for p_s < e, rho[p_s] = 0 and nothing changes, and for
      p_s > e, r_s is zero at e and left of it.  So the entry at e never
      cancels, whatever the later rows are.  After r_d no pivot remains,
      and every residual must be zero.
    - Before r_t tries a candidate, each residual rho is zero left of p_t
      and leads at one of p_t, ..., p_d.  Reducing it by r_t subtracts
      rho[p_t] r_t, which must leave it zero left of p_{t+1}.  So when
      rho[p_t] != 0, r_t's free entries p_t + 1 ... p_{t+1} - 1 are
      rho[j] / rho[p_t], and the node dies when two residuals ask for
      different ones; when rho[p_t] = 0, rho leads at a later pivot and
      is already zero there.  The candidates list r_t's free entries as
      the digits of its index, first free position most significant, so
      the rows with a given prefix are one contiguous slice.  For r_d the
      prefix is the whole row, rho / rho[p_d].

    Given no bracket, every subspace is yielded.  Each dimension's yields
    are sorted by row tuple, so the subalgebras come in the order of the
    full walk.  ``reduced`` stays apart from ``Subspace.reduce``: each form
    of one shared reduction loop measured slowed a library workload 3-5%.
    """
    elems = tuple(field.elements())
    q = len(elems)  # the scalars are range(q), so each is its own digit
    zero, one = field.zero, field.one
    sub, mul, inv = field.sub, field.mul, field.inv

    def reduced(v, fixed):
        """v less its projection on the fixed rows, given as (pivot,
        nonzero entries) pairs: ``Subspace.reduce`` without a subspace."""
        w = list(v)
        for p, support in fixed:
            c = w[p]
            if c:
                for m, b in support:
                    w[m] = sub(w[m], mul(c, b))
        return w

    def dead(rho, later):
        """Whether the nonzero rho leads at none of the ``later`` pivots."""
        for e in range(n):
            if rho[e]:
                return e not in later

    def residuals_with(later, rows, fixed, r, residuals):
        """The nonzero residuals once r is fixed after ``rows``, whose
        (pivot, nonzero entries) pairs ``fixed`` ends with r's, or None when
        one leads at a position that is none of the ``later`` pivots.

        The old residuals are zero at the earlier pivots, and so is r, so
        they are reduced by r alone, and checked before any new bracket is
        formed; the new brackets are reduced by every fixed row."""
        last = fixed[-1:]
        kept = []
        for rho in residuals:
            rho = reduced(rho, last)
            if any(rho):
                if dead(rho, later):
                    return None
                kept.append(rho)
        pairs = [(r, r)] + [pair for a in rows for pair in ((a, r), (r, a))]
        for u, v in pairs:
            rho = reduced(bracket(u, v), fixed)
            if any(rho):
                if dead(rho, later):
                    return None
                kept.append(rho)
        return kept

    def walk(pivots, choices, rows, fixed, residuals, out):
        t = len(rows)
        if t == len(pivots):
            out.append((rows, pivots))
            return
        p = pivots[t]
        bound = pivots[t + 1] if t + 1 < len(pivots) else n
        candidates = choices[t]
        prefix = None
        for rho in residuals:
            c = rho[p]
            if c:
                c = inv(c)
                forced = [mul(c, a) for a in rho[p + 1:bound]]
                if prefix is None:
                    prefix = forced
                elif forced != prefix:
                    return
        if prefix is not None:
            index = 0
            for a in prefix:
                index = index * q + a
            size = len(candidates) // q ** len(prefix)
            candidates = candidates[index * size:(index + 1) * size]
        later = pivots[t + 1:]
        for r in candidates:
            step = fixed + ((p, [(m, b) for m, b in enumerate(r) if b]),)
            kept = residuals_with(later, rows, step, r, residuals)
            if kept is not None:
                walk(pivots, choices, rows + (r,), step, kept, out)

    for d in range(n + 1):
        batch = []
        for pivots in itertools.combinations(range(n), d):
            choices = []
            for p in pivots:
                free = [j for j in range(p + 1, n) if j not in pivots]
                row = [zero] * n
                row[p] = one
                rows = []
                for values in itertools.product(elems, repeat=len(free)):
                    for j, v in zip(free, values):
                        row[j] = v
                    rows.append(tuple(row))
                choices.append(rows)
            if bracket is None:
                batch.extend((basis, pivots) for basis in itertools.product(*choices))
            else:
                walk(pivots, choices, (), (), [], batch)
        batch.sort(key=lambda rp: rp[0])
        yield from batch


def iter_subspaces(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    _check_enumerable(L, budget)
    F, n = L.field, L.dim
    for rows, pivots in echelon_bases(F, n):
        yield Subspace(F, n, rows, pivots)


def iter_subalgebras(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    _check_enumerable(L, budget)
    F, n = L.field, L.dim
    for rows, pivots in echelon_bases(F, n, L._bracket):
        yield Subspace(F, n, rows, pivots)


def iter_ideals(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    for S in enumerate_spaces(L, "subalgebras", budget):
        if L.is_ideal(S):
            yield S


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


class SocleReport(Value):
    """The minimal ideals, the sum ``asoc`` of the abelian ones, and the
    monolith when there is exactly one (else None)."""

    _fields = ("minimal_ideals", "asoc", "monolithic", "monolith")


@memo
def socle_analysis(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> SocleReport:
    minimal = []
    for I in enumerate_spaces(L, "ideals", budget):
        if I.is_zero():
            continue
        if any(M.dim < I.dim and I.contains_space(M) for M in minimal):
            continue
        minimal.append(I)
    asoc = L.span([v for M in minimal if L.is_abelian_space(M) for v in M.basis])
    return SocleReport(tuple(minimal), asoc, len(minimal) == 1,
                       minimal[0] if len(minimal) == 1 else None)


def _maximal_members(spaces, keep):
    """The members of ``spaces``, a scan by ascending dimension, passing
    ``keep`` that no other such member strictly contains, in scan order.
    Visited backwards, largest first, a non-maximal one lies in a kept
    member of larger dimension, so each member is compared with the kept
    ones only, and ``keep`` runs only on those no kept one contains; the
    order within one dimension changes neither.

    Each kept member T gets its annihilator once, the x with x . t = 0
    for every t in T (all of F^n for T = 0, nothing for T = F^n).  As
    T = (T^perp)^perp, T contains S exactly when every annihilator row is
    orthogonal to every row of S: dim S * codim T dot products over the
    annihilator rows' nonzero entries, in place of dim S reductions by T.
    Only kept members get an annihilator; one for every tested member
    costs more than the tests it saves (ROADMAP item 18)."""
    kept = []
    for S in reversed(spaces):
        if not any(T.dim > S.dim and _annihilates(ann, S) for T, ann in kept) and keep(S):
            ann = kernel(S.field, S.basis, ncols=S.ambient).basis
            kept.append((S, [[(j, a) for j, a in enumerate(x) if a] for x in ann]))
    return tuple(S for S, _ in reversed(kept))


def _annihilates(annihilator, S):
    """Whether every row of S is orthogonal to each annihilator row, given
    as its (position, nonzero entry) pairs."""
    add, mul, zero = S.field.add, S.field.mul, S.field.zero
    for s in S.basis:
        for support in annihilator:
            dot = zero
            for j, a in support:
                b = s[j]
                if b:
                    dot = add(dot, mul(a, b))
            if dot:
                return False
    return True


def _largest_member(spaces, keep):
    """The member of ``spaces`` passing ``keep`` that contains every other
    such member: the one maximal member, when ``keep`` holds for a family
    closed under sums.  Raises when there is not exactly one, which would
    mean the family is not closed under sums."""
    top = _maximal_members(spaces, keep)
    if len(top) != 1:
        raise LeibnizError(f"{len(top)} maximal members where one largest was expected")
    return top[0]


@memo
def maximal_subalgebras(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """Maximal proper subalgebras, canonical order."""
    return _maximal_members(enumerate_spaces(L, "subalgebras", budget),
                            lambda S: S.dim < L.dim)


@memo
def frattini_ideal(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> Subspace:
    """Largest ideal inside the intersection of all maximal subalgebras.

    The intersection itself need not be an ideal, so the result is the
    largest enumerated ideal lying inside it.  The meets stop once the
    running intersection is zero, since 0 cap M = 0.
    """
    maxes = maximal_subalgebras(L, budget)
    if not maxes:
        return L.zero_space()
    inter = maxes[0]
    for M in maxes[1:]:
        if inter.is_zero():
            break
        inter = inter.intersect(M)
    return _largest_member(enumerate_spaces(L, "ideals", budget), inter.contains_space)
