import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernel_reference import ext_product, first_irreducible
from leibnizalg import fields
from leibnizalg.corpus import FIELDS
from leibnizalg.errors import BadSpec, FieldParseError, InfiniteFieldUnsupported
from leibnizalg.fields import (QQ, ExtensionField, PrimeField, default_modulus,
                               field_from_doc, field_to_doc, gf, is_prime,
                               parse_field_name)

FINITE_SIZES = (2, 3, 4, 5, 7, 8, 9, 25, 27)


def elements_of(F):
    return list(F.elements())


# ---------------------------------------------------------------- rationals

def test_rationals_basic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-3, 7)) == Fraction(-7, 3)
    assert QQ.is_zero(QQ.sub(QQ.one, Fraction(1)))
    assert not QQ.is_finite


@given(st.fractions(), st.fractions())
def test_rationals_field_ops(a, b):
    assert QQ.sub(QQ.add(a, b), b) == a
    if not QQ.is_zero(b):
        assert QQ.mul(QQ.div(a, b), b) == a


@given(st.fractions())
def test_rationals_scalar_round_trip(a):
    assert QQ.parse_scalar(QQ.serialize_scalar(a)) == a


def test_rationals_parse_forms():
    assert QQ.parse_scalar("3/4") == Fraction(3, 4)
    assert QQ.parse_scalar(-2) == Fraction(-2)
    assert QQ.parse_scalar("-1/2") == Fraction(-1, 2)
    with pytest.raises(FieldParseError):
        QQ.parse_scalar("x")
    with pytest.raises(FieldParseError):
        QQ.parse_scalar([1, 2])
    with pytest.raises(FieldParseError, match="not a rational literal: True"):
        QQ.parse_scalar(True)


def _exact(a, value):
    """Whether a is the rational value as the scalar contract writes it:
    an int when whole, a Fraction otherwise."""
    return a == value and type(a) is (int if value == int(value) else Fraction)


@pytest.mark.parametrize("call,error", [
    (lambda: QQ.inv(0), ZeroDivisionError),
    (lambda: gf(3).inv(0), ZeroDivisionError),
    (lambda: gf(4).inv(0), ZeroDivisionError),
    (lambda: gf(625).inv(0), ZeroDivisionError),
    (lambda: QQ.div(1, 0), ZeroDivisionError),
    (lambda: QQ.elements(), InfiniteFieldUnsupported),
], ids=["inv-Q", "inv-GF(3)", "inv-GF(4)", "inv-GF(625)", "div-Q", "elements-Q"])
def test_scalar_preconditions_are_refused(call, error):
    with pytest.raises(error):
        call()


def test_rationals_scalar_contract():
    assert _exact(QQ.zero, 0) and _exact(QQ.one, 1)
    assert _exact(QQ.from_int(-3), -3)
    assert _exact(QQ.parse_scalar("4/2"), 2)
    assert _exact(QQ.parse_scalar(5), 5)
    assert _exact(QQ.div(3, 3), 1)
    assert _exact(QQ.inv(2), Fraction(1, 2))
    assert _exact(QQ.inv(Fraction(1, 4)), 4)
    assert _exact(QQ.mul(Fraction(2, 3), Fraction(3, 2)), 1)
    rng = random.Random(0)
    samples = [QQ.random_scalar(rng) for _ in range(50)]
    assert all(_exact(a, a) for a in samples) and {type(a) for a in samples} == {int, Fraction}


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_random_vector_is_a_multiple_of_the_scalar_draws(F):
    # the same random numbers in the same order, so a caller may switch
    # from scalar draws to vector draws without moving any later draw
    scale = 1 if F.is_finite else 60
    for seed, n in itertools.product(range(4), (0, 1, 3, 6)):
        r1, r2 = random.Random(seed), random.Random(seed)
        got = F.random_vector(r1, n)
        draws = [F.random_scalar(r2) for _ in range(n)]
        assert type(got) is tuple and list(got) == [scale * c for c in draws]
        assert all(type(c) is int for c in got)
        assert r1.getstate() == r2.getstate()


def test_rationals_scalar_checks_and_canonicalises():
    assert _exact(QQ.scalar(Fraction(6, 3)), 2)
    assert _exact(QQ.scalar(Fraction(-1, 2)), Fraction(-1, 2))
    assert _exact(QQ.scalar(-7), -7)
    for bad in (True, False, 1.5, 2.0, "1", None):
        with pytest.raises(FieldParseError, match="not a rational scalar"):
            QQ.scalar(bad)


# the shared finite-field contract on every kind of finite field: prime,
# tabled extension, untabled extension, and an extension of degree 1
CONTRACT_FIELDS = [gf(q) for q in (2, 3, 4, 9, 625)] + [ExtensionField(2, 1, (1, 1))]
CONTRACT_IDS = ["2", "3", "4", "9", "625", "2-degree-1"]


@pytest.mark.parametrize("F", CONTRACT_FIELDS, ids=CONTRACT_IDS)
def test_finite_scalar_accepts_element_codes_only(F):
    # scalar takes the internal code; parse_scalar would read an int
    # literal as a residue mod p, so 5 over GF(9) as 2
    q = F.size
    assert str(F) == f"GF({q})" and F.char == F.p and F.is_finite
    assert list(F.elements()) == list(range(q))
    assert [F.scalar(c) for c in F.elements()] == list(range(q))
    for bad in (-1, q, True, 1.0, Fraction(1), "1", [1]):
        with pytest.raises(FieldParseError, match="not an element code"):
            F.scalar(bad)


rationals = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50))


@given(rationals, rationals)
def test_rationals_results_are_ints_when_whole(a, b):
    # never a float, and never a Fraction with denominator 1, whether the
    # operands are ints, whole Fractions or proper ones
    results = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
    if b:
        results += [QQ.div(a, b), QQ.inv(b)]
    values = [a + b, a - b, a * b, -a] + ([Fraction(a) / b, 1 / Fraction(b)] if b else [])
    assert all(_exact(r, v) for r, v in zip(results, values))


# ------------------------------------------------------------- finite fields

@pytest.mark.parametrize("q", FINITE_SIZES)
def test_finite_field_axioms_exhaustive(q):
    F = gf(q)
    elems = elements_of(F)
    assert len(elems) == q == F.size
    assert len(set(elems)) == q
    for a in elems:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.is_zero(F.add(a, F.neg(a)))
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one


@pytest.mark.parametrize("q", (4, 9, 27))
def test_extension_distributivity(q):
    F = gf(q)
    elems = elements_of(F)
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems[:3]:
                lhs = F.mul(a, F.add(b, c))
                rhs = F.add(F.mul(a, b), F.mul(a, c))
                assert lhs == rhs


def test_characteristic():
    assert gf(2).char == 2
    assert gf(9).char == 3
    assert gf(8).char == 2
    assert QQ.char == 0


def test_gf4_multiplication_table():
    # modulus 1 + x + x^2, elements coded base 2: 2 = x, 3 = x + 1
    F = gf(4)
    assert F.mul(2, 2) == 3       # x^2 = x + 1
    assert F.mul(2, 3) == 1       # x(x+1) = x^2 + x = 1
    assert F.inv(2) == 3


def test_gf9_multiplication_table():
    # modulus 1 + x^2, elements coded base 3: 3 = x
    F = gf(9)
    assert F.mul(3, 3) == 2       # x^2 = -1 = 2
    assert F.mul(F.from_int(2), F.from_int(2)) == 1


def test_from_int_wraps():
    F = gf(5)
    assert F.from_int(7) == 2
    assert F.from_int(-1) == 4
    F4 = gf(4)
    assert F4.from_int(-1) == F4.one
    for F in CONTRACT_FIELDS:
        assert [F.from_int(m) for m in (-1, 0, F.p + 1, 7 * F.p)] == [F.p - 1, 0, 1, 0]


def test_default_modulus_known():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(3, 2) == (1, 0, 1)


def test_gf_cached_identity():
    assert gf(4) is gf(4)
    assert gf(3) is gf(3)


def test_gf_of_a_large_prime_is_its_prime_field():
    # primality is decided by Miller-Rabin, so neither gf nor PrimeField
    # runs a trial division up to the square root
    q = 2 ** 61 - 1
    start = time.perf_counter()
    assert gf(q) == PrimeField(q)
    assert time.perf_counter() - start < 1
    assert gf(q) is gf(q)
    assert gf(2 ** 31 - 1) == PrimeField(2 ** 31 - 1)
    # p is the prime integer root of q
    assert (gf(49).p, gf(49).k) == (7, 2)
    with pytest.raises(BadSpec):
        gf(101 * 103)


def _prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == \
        [n for n in range(20000) if _prime_by_trial_division(n)]


def test_is_prime_above_the_miller_rabin_bound_refuses_a_pass(monkeypatch):
    # a "composite" answer is a proof at any size, a pass above the bound
    # is not, and trial division to the square root would not end
    monkeypatch.setattr(fields, "_MR_EXACT_BELOW", 100)
    for n in range(5000):
        if n >= 100 and _prime_by_trial_division(n):
            with pytest.raises(BadSpec, match="only below 100$"):
                is_prime(n)
        else:
            assert is_prime(n) is _prime_by_trial_division(n)


M89 = 2 ** 89 - 1  # a Mersenne prime above the Miller-Rabin bound


@pytest.mark.parametrize("build, error", [
    (lambda: PrimeField(M89), BadSpec),
    (lambda: gf(M89), BadSpec),
    (lambda: parse_field_name(f"gf({M89})"), BadSpec),
    (lambda: field_from_doc({"kind": "prime_field", "p": M89}), FieldParseError),
], ids=["PrimeField", "gf", "parse_field_name", "field_from_doc"])
def test_a_prime_above_the_miller_rabin_bound_is_refused_at_once(build, error):
    start = time.perf_counter()
    with pytest.raises(error, match=f"cannot decide whether {M89} is prime"):
        build()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n, prime", [
    (561, False),                        # a Carmichael number
    (2047, False),                       # a strong pseudoprime to base 2
    (3215031751, False),                 # ... to bases 2, 3, 5 and 7
    (2 ** 61 - 1, True),
    ((2 ** 61 - 1) * (2 ** 13 - 1), False),
    ((2 ** 61 - 1) ** 2, False),         # above the Miller-Rabin bound
])
def test_is_prime_on_pseudoprimes_and_large_numbers(n, prime):
    assert is_prime(n) is prime


def test_gf_finds_every_prime_power():
    for q in range(2, 300):
        factors = [d for d in range(2, q + 1) if q % d == 0 and _prime_by_trial_division(d)]
        if len(factors) > 1:
            with pytest.raises(BadSpec):
                gf(q)
            continue
        p = factors[0]
        F = gf(q)
        assert (F.char, F.size) == (p, q)


def test_gf_rejects_non_prime_power():
    with pytest.raises(BadSpec):
        gf(6)
    with pytest.raises(BadSpec):
        gf(1)


def test_large_field_beyond_tables():
    # 625 > the lookup-table cutoff, exercises the slow path
    F = gf(625)
    assert isinstance(F, ExtensionField)
    a, b, c = F.from_int(17), F.from_int(123), F.from_int(598)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(a, F.inv(a)) == F.one


# every q = p**k <= 128 with k >= 2: each has lookup tables
TABLED_EXTENSIONS = (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128)


def _digitwise(op, p, k, *xs):
    """Apply ``op`` mod p to the base-p digits of the encoded elements."""
    return sum(op(*(x // p ** i for x in xs)) % p * p ** i for i in range(k))


# x has order 5 modulo x^4 + x^3 + x^2 + x + 1, so the tables of this GF(16)
# need a primitive element other than x
@pytest.mark.parametrize("F", [gf(q) for q in TABLED_EXTENSIONS]
                         + [ExtensionField(2, 4, (1, 1, 1, 1, 1))],
                         ids=[str(q) for q in TABLED_EXTENSIONS] + ["16-x4+x3+x2+x+1"])
def test_extension_tables_match_schoolbook(F):
    q, p, k = F.size, F.p, F.k
    assert k >= 2 and F._mul_tab is not None
    for a in range(q):
        assert F._mul_tab[a] == [ext_product(a, b, p, F.modulus) for b in range(q)]
        assert F._add_tab[a] == [_digitwise(int.__add__, p, k, a, b) for b in range(q)]
        assert F._neg_tab[a] == _digitwise(int.__neg__, p, k, a)
        if a:
            assert ext_product(a, F._inv_tab[a], p, F.modulus) == 1


def _assert_tables_match_slow_operations(F, pairs):
    for a, b in pairs:
        assert F.add(a, b) == F._add_slow(a, b), (a, b)
        assert F.mul(a, b) == F._mul_slow(a, b), (a, b)
    for a in {a for a, _ in pairs}:
        assert F.neg(a) == F._neg_slow(a), a
        if a:
            assert F._mul_slow(a, F.inv(a)) == 1, a


@pytest.mark.parametrize("q", (256, 512))
def test_large_tables_match_the_slow_operations_on_a_sample(q):
    F = gf(q)
    assert F._mul_tab is not None
    _assert_tables_match_slow_operations(
        F, [(a, b) for a in range(0, q, 7) for b in range(3, q, 13)])


@pytest.mark.parametrize("q", (625, 729))
def test_untabled_products_match_schoolbook(q):
    F = gf(q)
    assert F._mul_tab is None
    rng = random.Random(f"untabled-{q}")
    for _ in range(400):
        a, b = rng.randrange(q), rng.randrange(q)
        assert F.mul(a, b) == ext_product(a, b, F.p, F.modulus)


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                                 for k in range(2, 10) if p ** k <= 729])
def test_default_modulus_is_first_irreducible(p, k):
    assert default_modulus(p, k) == first_irreducible(p, k)


def _digit_neg(F, a):
    return F.parse_scalar([(-d) % F.p for d in F.serialize_scalar(a)])


def _digit_sub(F, a, b):
    return F.parse_scalar([(x - y) % F.p for x, y in
                           zip(F.serialize_scalar(a), F.serialize_scalar(b))])


@pytest.mark.parametrize("q", (4, 8, 9, 25))
def test_neg_sub_tables_match_digits(q):
    F = gf(q)
    assert F._neg_tab is not None
    elems = elements_of(F)
    for a in elems:
        assert F.neg(a) == _digit_neg(F, a)
        for b in elems:
            assert F.sub(a, b) == _digit_sub(F, a, b)


def test_neg_sub_digit_path_beyond_tables():
    F = gf(729)
    assert F._neg_tab is None and F._add_tab is None
    for a in (0, 1, 2, 3, 100, 364, 728):
        assert F.neg(a) == _digit_neg(F, a)
        for b in (0, 5, 242, 728):
            assert F.sub(a, b) == _digit_sub(F, a, b)


@pytest.mark.parametrize("q", (3, 9))
def test_finite_scalar_round_trip(q):
    F = gf(q)
    for a in elements_of(F):
        assert F.parse_scalar(F.serialize_scalar(a)) == a


def test_finite_parse_forms():
    F = gf(9)
    # bare ints are read through from_int (reduced mod the characteristic)
    assert F.parse_scalar(5) == F.from_int(5) == 2
    assert F.parse_scalar([2, 1]) == 2 + 3  # digits little-endian base 3
    assert F.parse_scalar([5, 4]) == F.parse_scalar([2, 1])
    with pytest.raises(FieldParseError):
        F.parse_scalar([0, 0, 1])
    with pytest.raises(FieldParseError):
        F.parse_scalar("2")
    with pytest.raises(FieldParseError):
        F.parse_scalar(True)
    P = gf(3)
    assert P.parse_scalar([2]) == 2
    assert P.parse_scalar(4) == 1


# ------------------------------------------------------------ names and docs

def test_parse_field_name():
    assert parse_field_name("Q") is QQ
    assert parse_field_name("rationals") is QQ
    assert parse_field_name("gf4") is gf(4)
    assert parse_field_name("GF(9)") is gf(9)
    assert parse_field_name("gf(3,2)") is gf(9)
    assert parse_field_name("gf(5,1)") is gf(5)
    assert parse_field_name("gf2") is gf(2)
    with pytest.raises(BadSpec):
        parse_field_name("gf6")
    with pytest.raises(BadSpec):
        parse_field_name("octonions")
    with pytest.raises(BadSpec, match="^4 is not prime$"):
        parse_field_name("gf(4,2)")
    with pytest.raises(BadSpec, match="^extension degree must be at least 1$"):
        parse_field_name("gf(3,0)")
    for name in ("gf(x)", "gf(2,3,4)"):
        with pytest.raises(BadSpec, match=re.escape(f"bad field name {name!r}")):
            parse_field_name(name)


@pytest.mark.parametrize("build", [
    lambda: PrimeField(3.0),
    lambda: PrimeField(True),
    lambda: ExtensionField(3.0, 2, (2, 2, 1)),
    lambda: ExtensionField(3, True, (2, 1)),
    lambda: ExtensionField(3, 2.0, (2, 2, 1)),
    lambda: ExtensionField(3, 2, ("2", 2, 1)),
    lambda: ExtensionField(3, 2, (1.5, 0, 1)),
    lambda: ExtensionField(3, 2, (2, False, True)),
    lambda: gf(9.0),
    lambda: gf(True),
], ids=["prime-float", "prime-bool", "ext-p-float", "ext-k-bool", "ext-k-float",
        "modulus-string", "modulus-float", "modulus-bool", "gf-float", "gf-bool"])
def test_field_constructors_refuse_parameters_that_are_not_ints(build):
    # each built a field on the value, read it through int(), or raised TypeError
    gf(9)  # with gf(9) cached, gf(9.0) must still be refused
    with pytest.raises(BadSpec, match="is not an integer"):
        build()


@pytest.mark.parametrize("q", (None, 2, 3, 4, 9, 25))
def test_field_doc_round_trip(q):
    F = QQ if q is None else gf(q)
    G = field_from_doc(field_to_doc(F))
    assert G == F
    if isinstance(F, (PrimeField, ExtensionField)):
        assert G.char == F.char and G.size == F.size


def test_field_doc_rejects_garbage():
    with pytest.raises(FieldParseError):
        field_from_doc({"kind": "quaternions"})
    with pytest.raises(FieldParseError, match="^bad field descriptor: "):
        field_from_doc(["prime_field", 3])


@pytest.mark.parametrize("doc,reason", [
    # p is checked first, so the short modulus is not what is named
    ({"p": 4, "k": 2, "modulus": [3, 1]}, "4 is not prime"),
    ({"p": 2, "k": 0, "modulus": [1]}, "extension degree must be at least 1"),
    ({"p": 3, "k": 2, "modulus": [1, 0, 2]}, "modulus must be monic of degree k"),
    ({"p": 2, "k": 2, "modulus": [1, 1, 1, 1]}, "modulus must be monic of degree k"),
    ({"p": 2, "k": 2, "modulus": [1, 0, 1]}, "modulus (1, 0, 1) is reducible over GF(2)"),
], ids=["p-composite", "k-zero", "modulus-not-monic", "modulus-wrong-length",
        "modulus-reducible"])
def test_field_doc_refuses_an_extension_that_is_no_field(doc, reason):
    with pytest.raises(FieldParseError, match=re.escape(reason)):
        field_from_doc(dict(doc, kind="extension_field"))


@pytest.mark.parametrize("doc", [
    {"kind": "prime_field", "p": 3.9},
    {"kind": "prime_field", "p": "3"},
    {"kind": "prime_field", "p": True},
    {"kind": "extension_field", "p": 2.0, "k": 2, "modulus": [1, 1, 1]},
    {"kind": "extension_field", "p": 2, "k": 2.7, "modulus": [1, 1, 1]},
    {"kind": "extension_field", "p": 2, "k": 2, "modulus": [1, 1.5, 1]},
    {"kind": "extension_field", "p": 2, "k": 2, "modulus": [1, True, 1]},
], ids=["p-float", "p-string", "p-bool", "ext-p-float", "k-float",
        "modulus-float", "modulus-bool"])
def test_field_doc_refuses_integers_that_are_not_ints(doc):
    # each was read as GF(3) or GF(4), rounded, cut or parsed by int()
    with pytest.raises(FieldParseError, match="not an integer"):
        field_from_doc(doc)


@pytest.mark.parametrize("modulus", [5, "111"], ids=["int", "string"])
def test_field_doc_refuses_a_modulus_that_is_not_a_list(modulus):
    # an int raised Python's "'int' object is not iterable"; a string was
    # read character by character and refused at its first character
    doc = {"kind": "extension_field", "p": 2, "k": 2, "modulus": modulus}
    expected = f"modulus is not a list of integers: {modulus!r}"
    with pytest.raises(FieldParseError, match=re.escape(expected)):
        field_from_doc(doc)
    with pytest.raises(BadSpec, match=re.escape(expected)):
        ExtensionField(2, 2, modulus)


def test_field_doc_reads_int_modulus_entries_mod_p():
    doc = {"kind": "extension_field", "p": 2, "k": 2, "modulus": [3, -1, 5]}
    assert field_from_doc(doc) == gf(4)
