"""Exact linear algebra over the ground fields.

Vectors are tuples of scalars, matrices are lists of row lists, and
operators act on column vectors (column j of a matrix is the image of
basis vector j).  Subspaces are kept in reduced row echelon form with the
rows as basis, so two subspaces are equal exactly when their stored bases
are identical; everything downstream leans on that canonical form.
"""

from __future__ import annotations

from .errors import AmbientMismatch, NoSolution, ShapeMismatch
from .value import Value


def zero_vec(field, n):
    return (field.zero,) * n


def vec_add(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_sub(field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def _width(rows):
    """The common length of the rows of a matrix; ShapeMismatch when the
    matrix is ragged."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ShapeMismatch(f"ragged matrix with rows of lengths {sorted(widths)}")
    return len(rows[0])


def mat_vec(field, rows, v):
    """Matrix times column vector, over the nonzero entries of v."""
    if rows and len(v) != _width(rows):
        raise ShapeMismatch(f"cannot apply a matrix of width {len(rows[0])} "
                            f"to a vector of length {len(v)}")
    add, mul, zero = field.add, field.mul, field.zero
    support = [(j, b) for j, b in enumerate(v) if b]
    out = []
    for row in rows:
        acc = zero
        for j, b in support:
            a = row[j]
            if a:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_mul(field, A, B):
    """A times B, row by row: each nonzero a = A[i][k] adds a * B[k] to
    row i of the product, over the nonzero entries of B[k]."""
    add, mul, zero = field.add, field.mul, field.zero
    width = _width(B) if B else 0
    if A and _width(A) != len(B):
        raise ShapeMismatch(f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{width}")
    supports = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for row in A:
        out_row = [zero] * width
        for a, support in zip(row, supports):
            if a:
                for j, b in support:
                    out_row[j] = add(out_row[j], mul(a, b))
        out.append(out_row)
    return out


def rref(field, rows):
    """Reduced row echelon form.

    Returns (rows, pivots): nonzero rows as tuples with pivot entries 1,
    zeros above and below each pivot, pivot columns strictly increasing.
    Zero scalars are skipped by truthiness (see ``fields``): entries left
    of a pivot are zero in every row from it down, so the pivot row is
    scaled from its pivot on and the other rows are changed only where
    the pivot row is nonzero.  A ragged matrix raises ShapeMismatch, zero
    rows included.  The zero rows are then dropped before elimination:
    they hold no pivot and change no other row, and the reduced echelon
    form of a matrix is unique, so the result is the same without them.
    """
    if not rows:
        return [], ()
    n = _width(rows)
    work = [list(r) for r in rows if any(r)]
    inv, mul, sub = field.inv, field.mul, field.sub
    one, zero = field.one, field.zero
    pivots = []
    r = 0
    for c in range(n):
        if r == len(work):
            break
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        prow = work[r]
        s = inv(prow[c])
        if s != one:
            for j in range(c, n):
                if prow[j]:
                    prow[j] = mul(s, prow[j])
        support = [(j, prow[j]) for j in range(c + 1, n) if prow[j]]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                for j, b in support:
                    row[j] = sub(row[j], mul(f, b))
                row[c] = zero
        pivots.append(c)
        r += 1
    return [tuple(row) for row in work[:r]], tuple(pivots)


class Subspace(Value):
    """A subspace of F^n held as a canonical reduced-echelon basis: a
    tuple of row tuples, with the tuple of their pivot columns."""

    _fields = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, basis, pivots):
        set_field = object.__setattr__
        set_field(self, "field", field)
        set_field(self, "ambient", ambient)
        set_field(self, "basis", basis)
        set_field(self, "pivots", pivots)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.field, self.ambient, self.basis, self.pivots)
                == (other.field, other.ambient, other.basis, other.pivots))

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis, self.pivots))

    @classmethod
    def span(cls, field, ambient, vectors) -> "Subspace":
        for v in vectors:
            if len(v) != ambient:
                raise ShapeMismatch(f"vector of length {len(v)} in ambient dimension {ambient}")
        rows, pivots = rref(field, list(vectors))
        return cls(field, ambient, tuple(rows), pivots)

    @classmethod
    def zero_space(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full_space(cls, field, ambient) -> "Subspace":
        rows = tuple(tuple(field.one if i == j else field.zero for j in range(ambient))
                     for i in range(ambient))
        return cls(field, ambient, rows, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def reduce(self, v):
        """Subtract the projection onto this space: zero out pivot coords.

        Zero scalars are skipped by truthiness (see ``fields``).
        """
        w = list(v)
        if len(w) != self.ambient:
            raise ShapeMismatch(f"vector of length {len(w)} in ambient {self.ambient}")
        sub, mul = self.field.sub, self.field.mul
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            if c:
                for m, b in enumerate(row):
                    if b:
                        w[m] = sub(w[m], mul(c, b))
        return tuple(w)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coords_of(self, v):
        """Coefficients of v in this basis; NoSolution if v lies outside."""
        if not self.contains(v):
            raise NoSolution("vector outside subspace")
        return tuple(v[p] for p in self.pivots)

    def embed(self, w):
        """The vector with coefficients w in this basis: the inverse of
        ``coords_of``."""
        if len(w) != self.dim:
            raise ShapeMismatch(f"{len(w)} coefficients for a basis of {self.dim}")
        F = self.field
        v = zero_vec(F, self.ambient)
        for c, row in zip(w, self.basis):
            if c:
                v = vec_add(F, v, tuple(F.mul(c, a) for a in row))
        return v

    def embed_space(self, small: "Subspace") -> "Subspace":
        """The subspace whose coefficients in this basis span ``small``."""
        if small.ambient != self.dim:
            raise ShapeMismatch(f"subspace of F^{small.ambient} as coefficients "
                                f"for a basis of {self.dim}")
        return Subspace.span(self.field, self.ambient,
                             [self.embed(w) for w in small.basis])

    def quotient_coords(self, v):
        """Coordinates of v modulo this space: v reduced by it, read at
        the free positions."""
        reduced = self.reduce(v)
        return tuple(reduced[j] for j in self.free_positions())

    def add(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.span(self.field, self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus on the rows [other.reduce(u) | u] for u in this basis.

        Their left half is zero exactly when u lies in other, so the rows
        of their echelon form with pivots right of the left half are the
        reduced echelon basis of the meet.  The meet with the whole space
        is this space, with nothing reduced.
        """
        self._check_compatible(other)
        n = self.ambient
        if other.dim == n:
            return self
        block = [other.reduce(u) + u for u in self.basis]
        if not any(any(row[:n]) for row in block):
            return self
        rows, pivots = rref(self.field, block)
        k = sum(p < n for p in pivots)
        return Subspace(self.field, n, tuple(row[n:] for row in rows[k:]),
                        tuple(p - n for p in pivots[k:]))

    def is_direct_sum(self, *parts: "Subspace") -> bool:
        """Whether this space is the direct sum of the parts.

        The dimensions add up and one span of the bases is this space.
        That makes the parts independent: a sum has the sum of the parts'
        dimensions only when it is direct, as dim(X + Y) equals
        dim X + dim Y - dim(X cap Y).
        """
        for P in parts:
            self._check_compatible(P)
        if sum(P.dim for P in parts) != self.dim:
            return False
        return Subspace.span(self.field, self.ambient,
                             [v for P in parts for v in P.basis]) == self

    def free_positions(self):
        pivset = set(self.pivots)
        return tuple(j for j in range(self.ambient) if j not in pivset)

    def _lies_in(self, field, ambient) -> bool:
        """Whether this space lies in field^ambient.  Fields are compared by
        identity first: ``gf`` gives one object per field, and a field's
        ``!=`` would cost more than the check."""
        return self.ambient == ambient and (self.field is field or self.field == field)

    def _check_compatible(self, other: "Subspace"):
        if not other._lies_in(self.field, self.ambient):
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def __str__(self):
        return f"<{self.dim}-dim subspace of F^{self.ambient}>"


def kernel(field, rows, ncols=None) -> Subspace:
    """Null space {x : A x = 0} of a matrix acting on column vectors.

    A matrix with no rows needs ``ncols``; a given ``ncols`` must be the
    width of the rows."""
    if not rows:
        if ncols is None:
            raise ShapeMismatch("kernel of a matrix with no rows needs ncols")
        return Subspace.full_space(field, ncols)
    n = len(rows[0])
    if ncols is not None and ncols != n:
        raise ShapeMismatch(f"kernel of a matrix of width {n} asked for in F^{ncols}")
    red, pivots = rref(field, rows)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    vecs = []
    for j in free:
        v = [field.zero] * n
        v[j] = field.one
        for row, p in zip(red, pivots):
            v[p] = field.neg(row[j])
        vecs.append(tuple(v))
    return Subspace.span(field, n, vecs)


def image(field, rows) -> Subspace:
    """Column space of a matrix acting on column vectors."""
    if not rows:
        return Subspace.zero_space(field, 0)
    _width(rows)
    return Subspace.span(field, len(rows), list(zip(*rows)))


def solve(field, rows, b):
    """One solution of A x = b, or NoSolution."""
    if not rows:
        raise ShapeMismatch("solve needs at least one equation row")
    if len(b) != len(rows):
        raise ShapeMismatch(f"{len(b)} right-hand sides for {len(rows)} equations")
    n = _width(rows)
    aug = [list(r) + [bi] for r, bi in zip(rows, b)]
    red, pivots = rref(field, aug)
    x = [field.zero] * n
    for row, p in zip(red, pivots):
        if p == n:
            raise NoSolution("inconsistent linear system")
        x[p] = row[-1]
    return tuple(x)


def chain(start: Subspace, step) -> tuple:
    """start, step(start), ... up to the first term that step leaves fixed.

    A monotone chain in F^n, such as a characteristic series or a Fitting
    component, settles within n steps.  A step that is not monotone, such
    as the derived series of a subspace that is not a subalgebra, is cut
    after 2n + 4 steps.
    """
    terms = [start]
    for _ in range(2 * start.ambient + 4):
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return tuple(terms)


def fitting_power(field, A):
    """A**m for the least power of two m >= n of an n x n matrix A.

    By then the kernels and images of the powers of A have stabilized, so
    this one power gives the Fitting null and one components.  Squaring
    stops at the first zero power, which is returned as it is.
    """
    B = A
    k = 1
    while k < len(A) and any(map(any, B)):
        B = mat_mul(field, B, B)
        k *= 2
    return B


def is_nilpotent_operator(field, A) -> bool:
    """Whether the n x n matrix A is nilpotent, i.e. A**n = 0."""
    return not any(map(any, fitting_power(field, A)))


def restrict_operator(field, A, space: Subspace):
    """Matrix of A on an invariant subspace, in the subspace basis.

    Column j is the coordinate vector of A applied to basis row j.
    Raises NoSolution when the space is not invariant.
    """
    cols = []
    for v in space.basis:
        cols.append(space.coords_of(mat_vec(field, A, v)))
    d = space.dim
    return [[cols[j][i] for j in range(d)] for i in range(d)]
