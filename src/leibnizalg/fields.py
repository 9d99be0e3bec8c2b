"""Exact ground-field arithmetic: the rationals and small finite fields.

Scalars are plain Python values.  Over the rationals a scalar is an
``int`` when it is whole and a reduced ``fractions.Fraction`` with
denominator above 1 otherwise; ``Rationals`` returns every result in that
form, so integral structure constants and brackets never leave Python's
int arithmetic.  ``int`` and ``Fraction`` compare, hash and print alike,
so a ``Fraction(3)`` handed in by a caller is still the scalar 3.
Over a finite field with q = p**k elements a scalar is an int in
``range(q)`` encoding the coefficient vector of the element in base p,
least significant digit first; for a prime field (k = 1) this is just the
residue.  Field objects supply the operations, so every higher layer stays
field-agnostic and exact.  A field's ``scalar`` returns a given value in
this canonical form or raises ``FieldParseError``; ``LeibnizAlgebra``
passes every nonzero structure constant through it.

Every field's zero is ``0`` (a caller's ``Fraction(0)`` is zero too), and
``is_zero`` is ``a == 0`` in all three classes, so
``bool(a) == (not F.is_zero(a))`` for every scalar.  The inner loops of
``core`` and ``linalg`` rely on this to skip zeros by truthiness:
``LeibnizAlgebra.bracket``, ``Subspace.reduce`` and
``Subspace.intersect``, ``rref``, ``mat_mul`` and ``mat_vec``.  ``rref``
also drops the zero rows it is given by truthiness, before elimination.

``random_scalar(rng)`` draws one scalar, and ``random_vector(rng, n)`` a
nonzero multiple of the vector of n such draws, consuming the same random
numbers in the same order.  A finite field returns the draws themselves;
the rationals return 60 times them, which clears every denominator, so a
random vector over Q is a tuple of ints.  Only the span of a random
vector is meant to matter to a caller.

Extension fields with q below a small threshold precompute full q x q
multiplication/addition tables, which keeps the enumeration-heavy callers
fast without any compiled dependency.  This module keeps no polynomial
arithmetic of its own: an extension field multiplies as ``poly.Poly``
over GF(p) modulo its modulus, and checks and chooses that modulus with
``poly.is_irreducible``, so both use ``poly.py``'s one trial division.
``poly`` is imported with the first extension field built (or default
modulus chosen), so a process that meets only Q and prime fields never
loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import BadSpec, FieldParseError, InfiniteFieldUnsupported
from .value import Value

_TABLE_LIMIT = 512  # build q x q lookup tables when q is at most this


# Miller-Rabin on the primes up to 37 decides every n below this bound
# (Sorenson and Webster, 2015); above it a passing n is trial-divided.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or all(n % d for d in range(41, math.isqrt(n) + 1, 2))


def _iroot(q, k):
    """The integer k-th root of q >= 1, rounded down (Newton from above)."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _rational(c):
    """The rational c as an int when it is whole, else c itself."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class Rationals(Value):
    """The field of rational numbers; a scalar is an int when it is whole,
    else a reduced `fractions.Fraction`."""

    char = 0
    is_finite = False
    size = None
    zero = 0
    one = 1

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(())

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return _rational(-a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(Fraction(a.denominator, a.numerator))

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return _rational(Fraction(a) / b)

    def is_zero(self, a):
        return a == 0

    def from_int(self, m: int):
        return m

    def elements(self):
        raise InfiniteFieldUnsupported("the rationals are not enumerable")

    def random_scalar(self, rng):
        return _rational(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))

    def random_vector(self, rng, n):
        """60 = lcm(1..6) times n ``random_scalar`` draws: every entry an int."""
        return tuple(rng.randint(-6, 6) * (60 // rng.randint(1, 6)) for _ in range(n))

    def scalar(self, c):
        """c in canonical form, if it is an int (not a bool) or a Fraction."""
        if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
            return _rational(c)
        raise FieldParseError(f"not a rational scalar: {c!r}")

    def parse_scalar(self, obj):
        if isinstance(obj, bool):
            raise FieldParseError(f"not a rational literal: {obj!r}")
        if isinstance(obj, int):
            return obj
        if isinstance(obj, str):
            try:
                return _rational(Fraction(obj))
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldParseError(f"bad rational literal {obj!r}: {exc}") from None
        raise FieldParseError(f"not a rational literal: {obj!r}")

    def serialize_scalar(self, a):
        return str(a)

    def __str__(self):
        return "Q"


def _int_param(name, value):
    """value itself if it is an int and not a bool: a field's p, k, q or
    modulus entry is refused, not rounded or read through ``int()``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise BadSpec(f"{name} is not an integer: {value!r}")


def _element_code(field, c):
    """c itself if it is an int in range(q), the code of an element of the
    finite field with q elements."""
    if isinstance(c, int) and not isinstance(c, bool) and 0 <= c < field.size:
        return c
    raise FieldParseError(f"not an element code of {field}: {c!r}")


def _check_finite_scalar(obj, p, k):
    """Normalize a parsed finite-field literal to digit tuple form."""
    if isinstance(obj, bool):
        raise FieldParseError(f"not a field element literal: {obj!r}")
    if isinstance(obj, int):
        return (obj % p,) + (0,) * (k - 1)
    if isinstance(obj, list) and all(isinstance(d, int) and not isinstance(d, bool) for d in obj):
        if len(obj) > k:
            raise FieldParseError(f"coefficient array longer than field degree {k}: {obj!r}")
        digits = [d % p for d in obj]
        digits += [0] * (k - len(digits))
        return tuple(digits)
    raise FieldParseError(f"not a field element literal: {obj!r}")


class PrimeField(Value):
    """GF(p); scalars are ints in range(p)."""

    _fields = ("p",)
    is_finite = True
    zero = 0
    one = 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    def __post_init__(self):
        if not is_prime(_int_param("p", self.p)):
            raise BadSpec(f"{self.p} is not prime")

    @property
    def char(self):
        return self.p

    @property
    def size(self):
        return self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0

    def from_int(self, m: int):
        return m % self.p

    def elements(self):
        return range(self.p)

    def random_scalar(self, rng):
        return rng.randrange(self.p)

    def random_vector(self, rng, n):
        return tuple(rng.randrange(self.p) for _ in range(n))

    def scalar(self, c):
        return _element_code(self, c)

    def parse_scalar(self, obj):
        return _check_finite_scalar(obj, self.p, 1)[0]

    def serialize_scalar(self, a):
        return [a]

    def __str__(self):
        return f"GF({self.p})"


class ExtensionField(Value):
    """GF(p**k) as GF(p)[x] modulo a monic irreducible of degree k.

    Scalars are ints in range(p**k): the base-p digits of the int are the
    coefficient vector of the element, least significant digit first.
    """

    _fields = ("p", "k", "modulus")  # modulus: ascending coefficients, length k+1, monic
    is_finite = True
    zero = 0
    one = 1
    _mul_tab = _add_tab = _neg_tab = _inv_tab = None  # set when q <= _TABLE_LIMIT

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __post_init__(self):
        from .poly import Poly, is_irreducible, poly
        if not is_prime(_int_param("p", self.p)):
            raise BadSpec(f"{self.p} is not prime")
        if _int_param("k", self.k) < 1:
            raise BadSpec("extension degree must be at least 1")
        if not isinstance(self.modulus, (list, tuple)):
            raise BadSpec(f"modulus is not a list of integers: {self.modulus!r}")
        mod = tuple(_int_param("modulus entry", c) % self.p for c in self.modulus)
        if len(mod) != self.k + 1 or mod[-1] != 1:
            raise BadSpec("modulus must be monic of degree k")
        modulus = Poly(PrimeField(self.p), mod)
        if not is_irreducible(modulus):
            raise BadSpec(f"modulus {mod} is reducible over GF({self.p})")
        object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "_modulus_poly", modulus)
        object.__setattr__(self, "_poly", poly)
        q = self.p ** self.k
        object.__setattr__(self, "_q", q)
        if q <= _TABLE_LIMIT:
            self._build_tables(q)

    def _build_tables(self, q):
        """The q x q addition and multiplication tables, with about q slow
        products in all.

        Addition is digit-wise mod p: the table for k digits is built from
        the one for k - 1, since the sum of a = a0 + p*a1 and b = b0 + p*b1
        is (a0 + b0) % p + p * (a1 + b1).  Products come from the powers of
        a primitive element g: a*b = g**(log a + log b).
        """
        p = self.p
        add = [[0]]
        for _ in range(self.k):
            add = [[(a0 + b0) % p + p * s for s in add[a1] for b0 in range(p)]
                   for a1 in range(len(add)) for a0 in range(p)]
        exp = next(powers for powers in map(self._powers, range(1, q))
                   if len(powers) == q - 1)
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        exp2 = exp + exp
        nonzero_logs = log[1:]
        mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in nonzero_logs]
                           for la in nonzero_logs]
        inv = [0] + [exp[-la] for la in nonzero_logs]
        object.__setattr__(self, "_mul_tab", mul)
        object.__setattr__(self, "_add_tab", add)
        object.__setattr__(self, "_neg_tab", [self._neg_slow(a) for a in range(q)])
        object.__setattr__(self, "_inv_tab", inv)

    def _powers(self, g):
        """[1, g, g**2, ...] up to the last power before 1 recurs."""
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = self._mul_slow(x, g)
        return powers

    # digit codecs -----------------------------------------------------
    def _decode(self, a):
        digits = []
        for _ in range(self.k):
            a, d = divmod(a, self.p)
            digits.append(d)
        return digits

    def _encode(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    def _add_slow(self, a, b):
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def _neg_slow(self, a):
        return self._encode([(-d) % self.p for d in self._decode(a)])

    def _mul_slow(self, a, b):
        m, poly = self._modulus_poly, self._poly
        prod = poly(m.field, self._decode(a)) * poly(m.field, self._decode(b))
        return self._encode((prod % m).coeffs)

    # field API ----------------------------------------------------------
    @property
    def char(self):
        return self.p

    @property
    def size(self):
        return self._q

    def add(self, a, b):
        if self._add_tab is not None:
            return self._add_tab[a][b]
        return self._add_slow(a, b)

    def sub(self, a, b):
        if self._add_tab is not None:
            return self._add_tab[a][self._neg_tab[b]]
        return self._add_slow(a, self._neg_slow(b))

    def mul(self, a, b):
        if self._mul_tab is not None:
            return self._mul_tab[a][b]
        return self._mul_slow(a, b)

    def neg(self, a):
        if self._neg_tab is not None:
            return self._neg_tab[a]
        return self._neg_slow(a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv_tab is not None:
            return self._inv_tab[a]
        # a**(q-2) by square and multiply
        result, base, e = 1, a, self._q - 2
        while e:
            if e & 1:
                result = self._mul_slow(result, base)
            base = self._mul_slow(base, base)
            e >>= 1
        return result

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0

    def from_int(self, m: int):
        return m % self.p

    def elements(self):
        return range(self._q)

    def random_scalar(self, rng):
        return rng.randrange(self._q)

    def random_vector(self, rng, n):
        return tuple(rng.randrange(self._q) for _ in range(n))

    def scalar(self, c):
        return _element_code(self, c)

    def parse_scalar(self, obj):
        return self._encode(list(_check_finite_scalar(obj, self.p, self.k)))

    def serialize_scalar(self, a):
        return self._decode(a)

    def __str__(self):
        return f"GF({self._q})"


QQ = Rationals()


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int):
    """Smallest monic irreducible of degree k over GF(p), ascending-lex."""
    from .poly import is_irreducible, monic_polys
    for cand in monic_polys(PrimeField(p), k):
        if is_irreducible(cand):
            return cand.coeffs
    raise BadSpec(f"no irreducible of degree {k} over GF({p})")  # pragma: no cover


@lru_cache(maxsize=None, typed=True)
def gf(q: int):
    """The finite field with q elements (default modulus when q = p**k, k > 1).
    The cache is typed, so gf(9.0) is refused even after gf(9)."""
    if _int_param("q", q) < 2:
        raise BadSpec(f"no field with {q} elements")
    if is_prime(q):
        return PrimeField(q)
    for k in range(2, q.bit_length()):
        p = _iroot(q, k)
        if p ** k == q and is_prime(p):
            return ExtensionField(p, k, default_modulus(p, k))
    raise BadSpec(f"{q} is not a prime power")


def field_to_doc(field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "rationals"}
    if isinstance(field, PrimeField):
        return {"kind": "prime_field", "p": field.p}
    if isinstance(field, ExtensionField):
        return {"kind": "extension_field", "p": field.p, "k": field.k,
                "modulus": list(field.modulus)}
    raise BadSpec(f"not a field: {field!r}")


def field_from_doc(doc) -> object:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FieldParseError(f"bad field descriptor: {doc!r}")
    kind = doc["kind"]
    try:
        if kind == "rationals":
            return QQ
        if kind == "prime_field":
            return PrimeField(doc["p"])
        if kind == "extension_field":
            return ExtensionField(doc["p"], doc["k"], doc["modulus"])
    except (KeyError, TypeError, ValueError, BadSpec) as exc:
        raise FieldParseError(f"bad field descriptor {doc!r}: {exc}") from None
    raise FieldParseError(f"unknown field kind {kind!r}")


def parse_field_name(name: str):
    """Parse CLI field names: 'q', 'rationals', 'gf4', 'gf(3,2)'."""
    s = name.strip().lower()
    if s in ("q", "qq", "rationals", "rational"):
        return QQ
    if s.startswith("gf(") and s.endswith(")"):
        inner = s[3:-1]
        parts = [t.strip() for t in inner.split(",")]
        try:
            nums = [int(t) for t in parts]
        except ValueError:
            raise BadSpec(f"bad field name {name!r}") from None
        if len(nums) == 1:
            return gf(nums[0])
        if len(nums) == 2:
            p, k = nums
            if k < 1:
                raise BadSpec("extension degree must be at least 1")
            if not is_prime(p):
                raise BadSpec(f"{p} is not prime")
            return gf(p ** k)
        raise BadSpec(f"bad field name {name!r}")
    if s.startswith("gf"):
        try:
            return gf(int(s[2:]))
        except ValueError:
            raise BadSpec(f"bad field name {name!r}") from None
    raise BadSpec(f"bad field name {name!r}")
