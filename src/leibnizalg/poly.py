"""Dense univariate polynomials over an exact ground field.

Coefficients are stored ascending with no trailing zeros, so the zero
polynomial has an empty coefficient tuple.  Factorization is exact and
deliberately modest: trial division over finite fields, and degree at
most four over the rationals (root search plus the resolvent cubic for
quartics).  Anything past that raises UnsupportedFactorization rather
than pretending.

The one trial division, ``_least_factor``, stops at the first monic
factor it finds.  Factorization peels factors off with it, and
``is_irreducible`` over a finite field asks whether that factor is the
polynomial itself.  ``fields.ExtensionField`` multiplies with ``Poly``
and checks and chooses its modulus with ``is_irreducible``, so GF(p)[x]
arithmetic exists only here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ShapeMismatch, UnsupportedFactorization, ZeroPolynomial


@dataclass(frozen=True)
class Poly:
    field: object
    coeffs: tuple  # ascending, trimmed

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
            if F.is_zero(ai):
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
        r = list(self.coeffs)
        d = other.degree
        lead_inv = F.inv(other.leading)
        q = [F.zero] * max(0, len(r) - d)
        while len(r) - 1 >= d and r:
            c = F.mul(r[-1], lead_inv)
            shift = len(r) - 1 - d
            q[shift] = c
            for i, oc in enumerate(other.coeffs):
                r[shift + i] = F.sub(r[shift + i], F.mul(c, oc))
            while r and F.is_zero(r[-1]):
                r.pop()
        return poly(F, q), poly(F, r)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def evaluate(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def __pow__(self, e: int) -> "Poly":
        result = poly(self.field, [self.field.one])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def serialize(self):
        return [self.field.serialize_scalar(c) for c in self.coeffs]

    def __str__(self):
        return format_poly(self)


def poly(field, coeffs) -> Poly:
    """Build a polynomial, trimming trailing zeros."""
    c = list(coeffs)
    while c and field.is_zero(c[-1]):
        c.pop()
    return Poly(field, tuple(c))


def poly_from_ints(field, ints) -> Poly:
    return poly(field, [field.from_int(m) for m in ints])


def x_power(field, e: int) -> Poly:
    return Poly(field, (field.zero,) * e + (field.one,))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def monic_polys(field, degree: int):
    """All monic polynomials of exactly the given degree (finite fields)."""
    elems = list(field.elements())
    for tail in itertools.product(elems, repeat=degree):
        yield Poly(field, tuple(tail) + (field.one,))


def _least_factor(f: Poly, d: int) -> Poly:
    """The least monic factor of the monic f over a finite field: the
    first in `monic_polys` order of the least degree, or f itself when f
    is irreducible.  f must have no factor of degree below d.  This is the
    one trial division, and it stops at the first factor it finds."""
    while 2 * d <= f.degree:
        for g in monic_polys(f.field, d):
            if f.divmod(g)[1].is_zero():
                return g
        d += 1
    return f


def _factor_finite(f: Poly):
    factors = []
    while f.degree >= 1:
        g = _least_factor(f, factors[-1].degree if factors else 1)
        factors.append(g)
        f = f // g
    return factors


def _is_rational_square(a: Fraction):
    """Return sqrt(a) if a is a square in Q, else None."""
    if a < 0:
        return None
    n, d = a.numerator, a.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(f: Poly):
    """All roots in Q of a nonzero polynomial over Q, without multiplicity."""
    if f.is_zero():
        raise ZeroPolynomial("root search on the zero polynomial")
    roots = []
    coeffs = list(f.coeffs)
    # strip the root at zero
    if coeffs and coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) <= 1:
        return roots
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and f.evaluate(cand) == 0:
                    roots.append(cand)
    return roots


def _factor_rational_irreducibles(f: Poly):
    """Split a monic polynomial over Q into monic irreducibles (degree <= 4)."""
    F = f.field
    n = f.degree
    if n <= 1:
        return [f] if n == 1 else []
    roots = rational_roots(f)
    if roots:
        r = roots[0]
        linear = poly(F, [-r, Fraction(1)])
        q, rem = f.divmod(linear)
        assert rem.is_zero()
        return [linear] + _factor_rational_irreducibles(q)
    if n == 2:
        return [f]  # no rational root means irreducible
    if n == 3:
        return [f]  # cubic with no rational root is irreducible over Q
    if n == 4:
        split = _split_quartic(f)
        if split is None:
            return [f]
        g, h = split
        return _factor_rational_irreducibles(g) + _factor_rational_irreducibles(h)
    raise UnsupportedFactorization(
        f"factorization over Q implemented only up to degree 4, got degree {n}")


def _split_quartic(f: Poly):
    """Split a rootless monic quartic over Q into two quadratics, or None.

    Depress via x = y - a3/4 to y^4 + py^2 + qy + r, then search
    (y^2 + uy + v)(y^2 - uy + w) with t = u^2 a rational root of the
    resolvent cubic t^3 + 2pt^2 + (p^2 - 4r)t - q^2.
    """
    F = f.field
    a3, a2, a1, a0 = f.coeffs[3], f.coeffs[2], f.coeffs[1], f.coeffs[0]
    s = a3 / 4
    p = a2 - 6 * s * s
    q = a1 - 2 * a2 * s + 8 * s ** 3
    r = a0 - a1 * s + a2 * s * s - 3 * s ** 4
    resolvent = poly(F, [-q * q, p * p - 4 * r, 2 * p, Fraction(1)])
    for t in rational_roots(resolvent):
        u = _is_rational_square(t)
        if u is None:
            continue
        if u != 0:
            w = (p + t + q / u) / 2
            v = (p + t - q / u) / 2
        else:
            if q != 0:
                continue
            # biquadratic: v + w = p, vw = r
            disc = _is_rational_square(p * p - 4 * r)
            if disc is None:
                continue
            v = (p - disc) / 2
            w = (p + disc) / 2
        g = poly(F, [v, u, Fraction(1)])
        h = poly(F, [w, -u, Fraction(1)])
        if g * h == poly(F, [r, q, p, Fraction(0), Fraction(1)]):
            # undo the shift y = x + s
            g_x = poly(F, [g.evaluate(s), u + 2 * s, Fraction(1)])
            h_x = poly(F, [h.evaluate(s), -u + 2 * s, Fraction(1)])
            assert g_x * h_x == f, (g_x, h_x, f)
            return g_x, h_x
    return None


def poly_factor(f: Poly):
    """Factor into monic irreducibles: returns (unit, [(factor, mult), ...]).

    The factor list is sorted by degree then coefficient sequence, so equal
    inputs always produce identical output.  Raises ZeroPolynomial on 0 and
    UnsupportedFactorization over Q past degree 4.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f.leading
    m = f.monic()
    if not f.field.is_finite:  # over Q
        # peel off the power of x first so the root machinery sees a0 != 0
        val = 0
        coeffs = list(m.coeffs)
        while coeffs and f.field.is_zero(coeffs[0]):
            coeffs.pop(0)
            val += 1
        core = poly(f.field, coeffs)
        irreducibles = [poly(f.field, [Fraction(0), Fraction(1)])] * val
        irreducibles += _factor_rational_irreducibles(core)
    else:
        irreducibles = _factor_finite(m)
    counted = {}
    for g in irreducibles:
        counted[g.coeffs] = counted.get(g.coeffs, 0) + 1
    items = sorted(counted.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return unit, [(Poly(f.field, c), mult) for c, mult in items]


def is_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    if f.field.is_finite:
        m = f.monic()
        return _least_factor(m, 1) == m
    _, factors = poly_factor(f)
    return len(factors) == 1 and factors[0][1] == 1


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


def format_poly(p: Poly, var: str = "x") -> str:
    if p.is_zero():
        return "0"
    F = p.field
    out = ""
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if F.is_zero(c):
            continue
        # rational coefficients read better with a subtraction sign
        neg = isinstance(c, Fraction) and c < 0
        mag = F.neg(c) if neg else c
        if e == 0:
            term = _coef_str(F, mag)
        else:
            xe = var if e == 1 else f"{var}^{e}"
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
