"""Dense univariate polynomials over an exact ground field.

Coefficients are stored ascending with no trailing zeros, so the zero
polynomial has an empty coefficient tuple.  Factorization is exact over
every field and at every degree, by trial division: exponential in the
degree, and meant for the small degrees this library meets.

The one trial division, ``_least_factor``, stops at the first monic
factor it finds.  Only its candidates depend on the field: every monic
polynomial over a finite field, and Kronecker's interpolated candidates
over Q.  Factorization peels factors off with it, and ``is_irreducible``
asks whether that factor is the polynomial itself.
``fields.ExtensionField`` multiplies with ``Poly`` and checks and chooses
its modulus with ``is_irreducible``, so GF(p)[x] arithmetic exists only
here.
"""

from __future__ import annotations

import itertools
import math
from .errors import ShapeMismatch, ZeroPolynomial
from .value import Value


class Poly(Value):
    _fields = ("field", "coeffs")  # coeffs ascending, trimmed

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial gets -1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return poly(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, tuple(F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return poly(F, out)

    def scale(self, c) -> "Poly":
        F = self.field
        return poly(F, [F.mul(c, x) for x in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.leading))

    def divmod(self, other: "Poly"):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        lead_inv = None if other.is_monic() else F.inv(other.leading)
        # the leading term cancels exactly, so only the nonzero lower ones act
        terms = [(i, oc) for i, oc in enumerate(other.coeffs[:-1]) if oc]
        r = list(self.coeffs)
        q = [F.zero] * max(0, len(r) - d)
        while len(r) > d:
            c = r.pop() if lead_inv is None else F.mul(r.pop(), lead_inv)
            shift = len(r) - d
            q[shift] = c
            for i, oc in terms:
                r[shift + i] = F.sub(r[shift + i], F.mul(c, oc))
            while r and not r[-1]:
                r.pop()
        return poly(F, q), poly(F, r)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __pow__(self, e: int) -> "Poly":
        result = poly(self.field, [self.field.one])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self):
        return format_poly(self)


def poly(field, coeffs) -> Poly:
    """Build a polynomial, trimming trailing zeros."""
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return Poly(field, tuple(c))


def monic_polys(field, degree: int):
    """All monic polynomials of exactly the given degree (finite fields)."""
    elems = list(field.elements())
    for tail in itertools.product(elems, repeat=degree):
        yield Poly(field, tuple(tail) + (field.one,))


def _divisors(n: int):
    """The positive divisors of the nonzero integer n."""
    out, n, p = [1], abs(n), 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out = [x * p ** i for x in out for i in range(e + 1)]
        p += 1
    return out + [x * n for x in out] if n > 1 else out


def _monic_interpolants(points, signed, row=(), newton=()):
    """Ascending coefficients of the monic g of degree len(points) with
    g(a) = t at each point a and its target t, for each target tuple of
    ``itertools.product(*signed)``, in that order, that makes g integral.

    g is the product of the (x - a) plus the Newton interpolant of the
    targets.  The Newton basis is monic and integral, so g is integral
    exactly when every divided difference is an integer.  The targets are
    fixed depth first, in the nested order of the product.  Of the divided
    differences t[a_i..a_j] of the k targets fixed so far, ``newton`` holds
    t[a_0], t[a_0, a_1], ..., t[a_0..a_{k-1}] and ``row`` holds t[a_{k-1}],
    t[a_{k-2}, a_{k-1}], ..., t[a_0..a_{k-1}].  A prefix with a divided
    difference that is not an integer is dropped with every tuple extending
    it, which shares that divided difference."""
    k = len(newton)
    if k == len(points):
        g = [1]
        for a, c in zip(reversed(points), reversed(newton)):  # g = g * (x - a) + c
            g = ([c - a * g[0]] + [g[i - 1] - a * g[i] for i in range(1, len(g))]
                 + [g[-1]])
        yield g
        return
    for t in signed[k]:
        new = [t]
        for j, prev in enumerate(row):  # new[j + 1] = t[a_{k-1-j}..a_k]
            q, r = divmod(new[-1] - prev, points[k] - points[k - 1 - j])
            if r:
                break
            new.append(q)
        else:
            yield from _monic_interpolants(points, signed, new, newton + (new[-1],))


def _kronecker_candidates(f: Poly, d: int):
    """Kronecker's monic candidates of degree d for a factor of the monic f
    over Q.

    For the least D that makes F(y) = D^n f(y/D) integral, F is monic, so
    by Gauss's lemma its monic factors G are integral and G(a) divides F(a)
    at every integer a.  At the d integers a in [-n, n] whose nonzero values
    F(a) have the fewest divisors, each choice of G(a) among the signed
    divisors of F(a) fixes one monic G.  Those with integer coefficients
    whose values divide F's on all of [-n, n] are scaled back to
    g(x) = D^-d G(Dx)."""
    n = f.degree
    D = min(e for e in _divisors(math.lcm(*(c.denominator for c in f.coeffs)))
            if all((c * e ** (n - k)).denominator == 1
                   for k, c in enumerate(f.coeffs)))
    ints = [int(c * D ** (n - k)) for k, c in enumerate(f.coeffs)]
    values = {}
    for a in range(-n, n + 1):
        value = sum(c * a ** k for k, c in enumerate(ints))
        if value:
            values[a] = value
    divisors = {a: _divisors(v) for a, v in values.items()}
    points = sorted(values, key=lambda a: (len(divisors[a]), abs(a), a))[:d]
    signed = [[s * e for e in divisors[a] for s in (1, -1)] for a in points]
    scale = [D ** (d - k) for k in range(d + 1)]
    for g in _monic_interpolants(points, signed):
        at = (sum(c * a ** k for k, c in enumerate(g)) for a in values)
        if all(w and v % w == 0 for w, v in zip(at, values.values())):
            yield Poly(f.field, tuple(f.field.div(c, s) for c, s in zip(g, scale)))


def _least_factor(f: Poly, d: int) -> Poly:
    """A monic factor of the monic f of the least degree, or f itself when
    f is irreducible.  f must have no factor of degree below d, so the
    factor returned is irreducible.  This is the one trial division, and it
    stops at the first factor it finds.  Only its candidates depend on the
    field: every monic polynomial in `monic_polys` order over a finite
    field, Kronecker's over Q."""
    finite = f.field.is_finite
    while 2 * d <= f.degree:
        for g in (monic_polys(f.field, d) if finite
                  else _kronecker_candidates(f, d)):
            if f.divmod(g)[1].is_zero():
                return g
        d += 1
    return f


def poly_factor(f: Poly):
    """Factor into monic irreducibles: returns (unit, [(factor, mult), ...]).

    The factor list is sorted by degree then coefficient sequence, so equal
    inputs always produce identical output.  Raises ZeroPolynomial on 0.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    m, d = f.monic(), 1
    counted = {}
    while m.degree >= 1:
        g = _least_factor(m, d)
        counted[g.coeffs] = counted.get(g.coeffs, 0) + 1
        m, d = m // g, g.degree
    items = sorted(counted.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return f.leading, [(Poly(f.field, c), mult) for c, mult in items]


def is_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    m = f.monic()
    return _least_factor(m, 1) == m


def companion_matrix(p: Poly):
    """Companion matrix (rows) of a monic polynomial, acting on columns.

    Column i maps basis vector i to vector i+1; the last column carries
    the negated low coefficients, so the matrix has p as its
    characteristic and minimal polynomial.
    """
    if not p.is_monic():
        raise ShapeMismatch("companion matrix needs a monic polynomial")
    F = p.field
    n = p.degree
    rows = [[F.zero] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i + 1][i] = F.one
    for i in range(n):
        rows[i][n - 1] = F.neg(p.coeffs[i])
    return rows


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    F = p.field
    out = ""
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if not c:
            continue
        # rational coefficients read better with a subtraction sign
        neg = F.char == 0 and c < 0
        mag = F.neg(c) if neg else c
        if e == 0:
            term = _coef_str(F, mag)
        else:
            xe = "x" if e == 1 else f"x^{e}"
            term = xe if mag == F.one else f"{_coef_str(F, mag)}*{xe}"
        if not out:
            out = f"-{term}" if neg else term
        else:
            out += f" - {term}" if neg else f" + {term}"
    return out


def _coef_str(field, c) -> str:
    s = field.serialize_scalar(c)
    if isinstance(s, list):
        return str(s[0]) if len(s) == 1 else str(s)
    return str(s)
