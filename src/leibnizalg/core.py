"""Structure-constant Leibniz algebras and their basic constructions.

An algebra is a table: entry [i][j] is the coordinate vector of the
bracket of basis vectors i and j.  The (right) Leibniz identity reads

    [x, [y, z]] = [[x, y], z] - [[x, z], y]

and is only verified on demand, so tables that fail it can still be
loaded, reported on and rejected with a concrete violating triple.
A subalgebra or quotient is a new table on a basis read off the echelon
form of its subspace, whose methods give the coordinate maps:
``U.coords_of`` and ``U.embed`` pass between L and the subalgebra on U,
and ``I.quotient_coords`` maps L onto L/I.
"""

from __future__ import annotations

import functools
from typing import Optional

from .errors import (AmbientMismatch, FieldParseError, NotAnIdeal,
                     NotASubalgebra, NotLeibniz, ShapeMismatch)
from .linalg import Subspace, kernel, vec_add, vec_sub, zero_vec
from .value import Value, bind


class Violation(Value):
    """A basis triple (i, j, k) where the Leibniz identity fails: ``lhs``
    is [b_i, [b_j, b_k]] and ``rhs`` is [[b_i, b_j], b_k] - [[b_i, b_k], b_j]."""

    _fields = ("triple", "lhs", "rhs")


_MISSING = object()


def memo(fn):
    """Memoise ``fn(L, ...)`` on ``L._cache``.

    The key is the function's qualified name plus every argument after
    defaults are applied, so a result computed under one budget or seed is
    never returned for another.  A call that raises stores nothing, so it
    runs again and raises afresh: the memoised functions that raise fail at
    a cheap budget gate.  Only what the package rereads is memoised.
    Arguments after the algebra must be hashable, as subspaces are:
    ``aalgebra._quotient_verdict`` is keyed by its ideal.
    """
    name = fn.__qualname__
    code, defaults = fn.__code__, fn.__defaults__ or ()
    params = code.co_varnames[1:code.co_argcount]
    arity = len(params)

    @functools.wraps(fn)
    def wrapper(L, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(name, params, args, kwargs, defaults)
        key = (name, *args)
        hit = L._cache.get(key, _MISSING)
        if hit is _MISSING:
            hit = L._cache[key] = fn(L, *args)
        return hit

    return wrapper


class LeibnizAlgebra:
    """A finite-dimensional algebra given by structure constants."""

    def __init__(self, field, table, names=None):
        n = len(table)
        tab = []
        for i, row in enumerate(table):
            if len(row) != n:
                raise ShapeMismatch(f"table row {i} has {len(row)} entries, expected {n}")
            new_row = []
            for j, v in enumerate(row):
                if len(v) != n:
                    raise ShapeMismatch(
                        f"table entry [{i}][{j}] has length {len(v)}, expected {n}")
                new_row.append(tuple(v))
            tab.append(tuple(new_row))
        self.field = field
        self.dim = n
        self.table = tuple(tab)
        if names is None:
            names = tuple(f"e{i + 1}" for i in range(n))
        if len(names) != n:
            raise ShapeMismatch(f"{len(names)} basis names for dimension {n}")
        self.names = tuple(names)
        self._cache = {}
        self._products = {}

    def table_key(self):
        return (self.field, self.dim, self.table)

    # -- bracket ---------------------------------------------------------
    @functools.cached_property
    def _terms(self):
        """``_terms[i]``: ``(j, terms)`` for each j with [e_i, e_j] nonzero,
        where ``terms`` lists the nonzero ``(m, c)`` of [e_i, e_j], each c
        in the canonical form ``field.scalar`` gives it.  A scalar it
        refuses raises ``FieldParseError`` naming the table entry.

        Checking here, where the kernel first reads the table, costs one
        call per nonzero structure constant; a check in ``__init__`` would
        visit every scalar of every table built."""
        where = "table entry [{}][{}][{}]"
        return tuple(tuple((j, tuple((m, self._scalar(c, where, i, j, m))
                                     for m, c in enumerate(entry) if c))
                           for j, entry in enumerate(row) if any(entry))
                     for i, row in enumerate(self.table))

    def _scalar(self, c, where, *index):
        """c in the canonical form ``field.scalar`` gives it; a scalar it
        refuses raises ``FieldParseError`` naming ``where.format(*index)``."""
        try:
            return self.field.scalar(c)
        except FieldParseError as exc:
            raise FieldParseError(f"{where.format(*index)}: {exc}") from None

    @functools.cached_property
    def _basis(self):
        F = self.field
        return tuple(tuple(F.one if j == i else F.zero for j in range(self.dim))
                     for i in range(self.dim))

    def bracket(self, u, v):
        """[u, v] from the structure constants; the one arithmetic kernel.

        Zero scalars are skipped by truthiness (see ``fields``).  A vector
        of another length raises ShapeMismatch.
        """
        n = self.dim
        if len(u) != n or len(v) != n:
            raise ShapeMismatch(f"bracket of vectors of lengths {len(u)} and {len(v)} "
                                f"in dimension {n}")
        F = self.field
        add, mul = F.add, F.mul
        out = [F.zero] * n
        for a, row in zip(u, self._terms):
            if a:
                for j, terms in row:
                    b = v[j]
                    if b:
                        c = mul(a, b)
                        for m, e in terms:
                            out[m] = add(out[m], mul(c, e))
        return tuple(out)

    def _bracket(self, u, v):
        """[u, v] for vectors of tuples, memoised in ``_products``.

        The brackets the package forms of vectors it built come through
        here: the lattice walks and the battery clauses form the same pairs
        of canonical echelon rows again and again, and a miss costs one
        ``bracket``.  ``bracket`` and ``right_mult``, which take a caller's
        vectors, keep no memo: a list is not a key, and over Q a float
        equals and hashes like an int, so a memoised answer for ``(2.0, 1)``
        would depend on whether ``(2, 1)`` was asked first."""
        hit = self._products.get((u, v))
        if hit is None:
            hit = self._products[u, v] = self.bracket(u, v)
        return hit

    def basis_vector(self, i):
        return self._basis[i]

    def right_mult(self, x):
        """Matrix of u -> [u, x] on column vectors.  An x of another length
        raises ShapeMismatch, also in dimension 0, where no bracket runs."""
        if len(x) != self.dim:
            raise ShapeMismatch(f"right multiplication by a vector of length {len(x)} "
                                f"in dimension {self.dim}")
        cols = [self.bracket(self.basis_vector(j), x) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    # -- identity check ----------------------------------------------------
    @memo
    def leibniz_violation(self) -> Optional[Violation]:
        """First basis triple (i, j, k) in loop order breaking
        [x,[y,z]] = [[x,y],z] - [[x,z],y].

        For each i in order it accumulates the defects
        D_i(j, k) = [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]
        as sparse vectors, from the nonzero structure constants alone:
        each c^m_{jk} adds c [e_i, e_m] at (j, k), and each c^m_{ij}
        subtracts c [e_m, e_k] at (j, k) and adds it at (k, j).  A triple
        breaks the identity exactly when its defect is nonzero, so the
        least (j, k) with a nonzero D_i, at the least such i, is the
        first triple of the loop over all (i, j, k).  Only its ``lhs``
        and ``rhs`` are formed by brackets: an identity that holds costs
        none.
        """
        F = self.field
        add, sub, mul, zero = F.add, F.sub, F.mul, F.zero
        terms = self._terms
        for i, row in enumerate(terms):
            if not row:
                continue
            row_i = dict(row)
            defect = {}
            for j, row_j in enumerate(terms):
                for k, jk in row_j:
                    acc = defect.setdefault((j, k), {})
                    for m, c in jk:
                        for t, d in row_i.get(m, ()):
                            acc[t] = add(acc.get(t, zero), mul(c, d))
            for j, ij in row:
                for m, c in ij:
                    for k, mk in terms[m]:
                        at_jk = defect.setdefault((j, k), {})
                        at_kj = defect.setdefault((k, j), {})
                        for t, d in mk:
                            cd = mul(c, d)
                            at_jk[t] = sub(at_jk.get(t, zero), cd)
                            at_kj[t] = add(at_kj.get(t, zero), cd)
            bad = [jk for jk, acc in defect.items() if any(acc.values())]
            if bad:
                j, k = min(bad)
                br, basis, T = self._bracket, self._basis, self.table
                plus, minus = br(T[i][j], basis[k]), br(T[i][k], basis[j])
                return Violation((i, j, k), br(basis[i], T[j][k]),
                                 vec_sub(F, plus, minus))
        return None

    def require_leibniz(self):
        v = self.leibniz_violation()
        if v is not None:
            raise NotLeibniz(v)

    # -- subspace helpers --------------------------------------------------
    def span(self, vectors) -> Subspace:
        """Span of the given vectors, each scalar checked by ``field.scalar``
        (a refused one raises ``FieldParseError`` naming it); the kernel
        spans the brackets it forms through ``Subspace.span``, unchecked."""
        return Subspace.span(self.field, self.dim,
                             [tuple(self._scalar(c, "vector {} entry {}", i, k)
                                    for k, c in enumerate(v)) for i, v in enumerate(vectors)])

    def zero_space(self) -> Subspace:
        return Subspace.zero_space(self.field, self.dim)

    def full_space(self) -> Subspace:
        return Subspace.full_space(self.field, self.dim)

    def _own(self, *spaces):
        """AmbientMismatch unless every space lies in this algebra's F^dim."""
        for U in spaces:
            if not U._lies_in(self.field, self.dim):
                raise AmbientMismatch(f"{U} over {U.field} is not a subspace of {self}")

    def product(self, U: Subspace, V: Subspace) -> Subspace:
        """Span of [u, v] over basis pairs; equals [U, V] by bilinearity."""
        self._own(U, V)
        vecs = [self._bracket(u, v) for u in U.basis for v in V.basis]
        return Subspace.span(self.field, self.dim, vecs)

    def closure(self, vectors) -> Subspace:
        """Smallest subalgebra containing the given vectors.

        ``old + new`` is a basis of S and every bracket of two ``old``
        vectors lies in S, so each round brackets only the pairs with a
        ``new`` vector and spans them with S into T.  As S lies in T, the
        pivots of S are pivots of T, so the rows of T at the other pivots
        are independent modulo S and become the next ``new``: the closure
        forms at most dim(S)**2 brackets.  The full space is closed.
        """
        S = self.span(vectors)
        old, new = [], list(S.basis)
        while new and S.dim < self.dim:
            prods = [self._bracket(u, v) for u in old + new for v in new]
            prods += [self._bracket(v, u) for v in new for u in old]
            T = Subspace.span(self.field, self.dim, list(S.basis) + prods)
            known = set(S.pivots)
            old += new
            new = [row for row, p in zip(T.basis, T.pivots) if p not in known]
            S = T
        return S

    @memo
    def derived_space(self) -> Subspace:
        full = self.full_space()
        return self.product(full, full)

    def leib_ideal(self) -> Subspace:
        """Span of all squares: generated by [e_i, e_i] and the symmetrized
        brackets [e_i, e_j] + [e_j, e_i], which read the checked scalars."""
        F, e, br = self.field, self._basis, self._bracket
        vecs = [br(e[i], e[i]) for i in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                vecs.append(vec_add(F, br(e[i], e[j]), br(e[j], e[i])))
        return Subspace.span(F, self.dim, vecs)

    def is_abelian_space(self, U: Subspace) -> bool:
        self._own(U)
        return not any(any(self._bracket(u, v)) for u in U.basis for v in U.basis)

    def is_abelian(self) -> bool:
        return not any(any(v) for row in self.table for v in row)

    def is_subalgebra(self, U: Subspace) -> bool:
        self._own(U)
        return all(U.contains(self._bracket(u, v))
                   for u in U.basis for v in U.basis)

    def is_ideal(self, U: Subspace) -> bool:
        self._own(U)
        for e in self._basis:
            for u in U.basis:
                if not U.contains(self._bracket(u, e)):
                    return False
                if not U.contains(self._bracket(e, u)):
                    return False
        return True

    # -- distinguished subspaces -------------------------------------------
    @memo
    def centre(self) -> Subspace:
        """Two-sided centre {x : [x, L] = 0 = [L, x]}."""
        return self.centralizer(self.full_space())

    def centralizer(self, U: Subspace) -> Subspace:
        """{x : [x, u] = 0 = [u, x] for all u in U}."""
        return self.stabilizer(U, self.zero_space())

    def normalizer(self, U: Subspace) -> Subspace:
        """{x : [x, U] + [U, x] contained in U}."""
        return self.stabilizer(U, U)

    def stabilizer(self, U: Subspace, W: Subspace) -> Subspace:
        """{x : [x, U] + [U, x] contained in W}."""
        self._own(U, W)
        br = self._bracket
        return self._kernel_mod(W, lambda e: [p for u in U.basis
                                              for p in (br(e, u), br(u, e))])

    def _kernel_mod(self, W: Subspace, products) -> Subspace:
        """{x : products(x) contained in W} for a ``products`` linear in x:
        the kernel of the map sending each basis vector to its products,
        reduced mod W.  Stabilizers and the Fitting null chains of
        ``decompose.fitting_family`` are built here."""
        cols = [[c for p in products(e) for c in W.reduce(p)] for e in self._basis]
        return kernel(self.field, list(zip(*cols)), ncols=self.dim)

    # -- derived algebras ----------------------------------------------------
    def quotient(self, I: Subspace) -> "LeibnizAlgebra":
        """L/I on the basis of the free positions of I; I must be an ideal.

        ``I.quotient_coords`` maps L onto it.  The quotient by zero is L
        itself, sharing its memo."""
        if not self.is_ideal(I):
            raise NotAnIdeal(f"not an ideal: {I}")
        if I.is_zero():
            return self
        free = [self.basis_vector(a) for a in I.free_positions()]
        return LeibnizAlgebra(self.field, [[I.quotient_coords(self._bracket(u, v))
                                            for v in free] for u in free])

    def restrict(self, U: Subspace) -> "LeibnizAlgebra":
        """The subalgebra on the basis of U; U must be closed.

        ``U.coords_of`` and ``U.embed`` map between it and L.  The
        restriction to the whole space is L itself, sharing its memo."""
        if not self.is_subalgebra(U):
            raise NotASubalgebra(f"not a subalgebra: {U}")
        if U.dim == self.dim:
            return self
        return LeibnizAlgebra(self.field, [[U.coords_of(self._bracket(u, v))
                                            for v in U.basis] for u in U.basis])

    def __str__(self):
        return f"LeibnizAlgebra(dim={self.dim}, field={self.field})"


def direct_sum(A: LeibnizAlgebra, B: LeibnizAlgebra) -> LeibnizAlgebra:
    if A.field != B.field:
        raise ShapeMismatch("direct sum needs a common ground field")
    F = A.field
    n, m = A.dim, B.dim
    total = n + m

    def pad_left(v):
        return tuple(v) + zero_vec(F, m)

    def pad_right(v):
        return zero_vec(F, n) + tuple(v)

    table = []
    for i in range(total):
        row = []
        for j in range(total):
            if i < n and j < n:
                row.append(pad_left(A.table[i][j]))
            elif i >= n and j >= n:
                row.append(pad_right(B.table[i - n][j - n]))
            else:
                row.append(zero_vec(F, total))
        table.append(row)
    names = tuple(f"l.{s}" for s in A.names) + tuple(f"r.{s}" for s in B.names)
    return LeibnizAlgebra(F, table, names=names)

