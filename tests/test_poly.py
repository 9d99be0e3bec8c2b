import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import kronecker_by_product, poly_from_ints, x_power
from leibnizalg.errors import ShapeMismatch, ZeroPolynomial
from leibnizalg.fields import QQ, gf
from leibnizalg.linalg import is_nilpotent_operator
from leibnizalg.poly import (Poly, _kronecker_candidates, companion_matrix,
                             format_poly, is_irreducible, poly, poly_factor)


def gf_poly_simple(q, max_deg=6):
    F = gf(q)
    ints = st.integers(0, q - 1)
    return st.lists(ints, max_size=max_deg + 1).map(
        lambda cs: Poly(F, tuple(_trim(F, cs))))


def _trim(F, cs):
    out = list(cs)
    while out and F.is_zero(out[-1]):
        out.pop()
    return out


def qq_poly(max_deg=4):
    fr = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.lists(fr, max_size=max_deg + 1).map(
        lambda cs: Poly(QQ, tuple(_trim(QQ, cs))))


# ----------------------------------------------------------------- ring ops

@given(gf_poly_simple(5), gf_poly_simple(5))
def test_divmod_round_trip_gf5(f, g):
    if g.is_zero():
        return
    quo, rem = f.divmod(g)
    assert quo * g + rem == f
    assert rem.is_zero() or rem.degree < g.degree


@given(qq_poly(), qq_poly())
def test_divmod_round_trip_qq(f, g):
    if g.is_zero():
        return
    quo, rem = f.divmod(g)
    assert quo * g + rem == f


def test_pow_matches_repeated_mul():
    F = gf(2)
    f = poly_from_ints(F, [1, 1])
    assert f ** 3 == f * f * f
    assert f ** 0 == poly_from_ints(F, [1])


# -------------------------------------------------------------- factorization

@pytest.mark.parametrize("q", (2, 3, 4, 9))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factor_remultiplies_finite(q, data):
    F = gf(q)
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=7))
    f = Poly(F, tuple(_trim(F, coeffs)))
    if f.is_zero():
        return
    unit, factors = poly_factor(f)
    prod = Poly(F, (unit,))
    for g, mult in factors:
        assert g.is_monic()
        assert is_irreducible(g)
        prod = prod * g ** mult
    assert prod == f


def test_factor_known_rationals():
    
    x = x_power(QQ, 1)
    one = poly(QQ, [Fraction(1)])

    f = x * x - one  # x^2 - 1
    unit, factors = poly_factor(f)
    assert unit == 1
    assert [(format_poly(g), m) for g, m in factors] == [("x - 1", 1), ("x + 1", 1)]

    g = x * x + one  # x^2 + 1 irreducible
    _, factors = poly_factor(g)
    assert factors == [(g, 1)]
    assert is_irreducible(g)

    h = poly(QQ, [Fraction(0), Fraction(-2), Fraction(0), Fraction(2)])  # 2x^3 - 2x
    unit, factors = poly_factor(h)
    assert unit == 2
    # sorted by degree then ascending coefficient tuple
    assert [(format_poly(p), m) for p, m in factors] == [
        ("x - 1", 1), ("x", 1), ("x + 1", 1)]

    quartic = x ** 4 + one  # irreducible over Q
    _, factors = poly_factor(quartic)
    assert factors == [(quartic, 1)]

    biquad = x ** 4 - one
    _, factors = poly_factor(biquad)
    assert sorted(format_poly(p) for p, _ in factors) == ["x + 1", "x - 1", "x^2 + 1"]


def test_factor_rational_past_degree_four():
    x = x_power(QQ, 1)
    one = poly(QQ, [Fraction(1)])
    f = x ** 5 - x - one
    assert poly_factor(f) == (1, [(f, 1)])
    assert is_irreducible(f)
    _, factors = poly_factor(x ** 6 + one)
    assert [(format_poly(g), m) for g, m in factors] == [
        ("x^2 + 1", 1), ("x^4 - x^2 + 1", 1)]
    # a quintic that splits off rational roots down to degree <= 4
    g = (x ** 4 + one) * x
    _, factors = poly_factor(g)
    assert len(factors) == 2


def test_factor_zero_raises():
    
    with pytest.raises(ZeroPolynomial):
        poly_factor(Poly(QQ, ()))


def test_factor_rational_roots():
    x = x_power(QQ, 1)
    f = (poly(QQ, [Fraction(-1), Fraction(2)])) * (x + poly(QQ, [Fraction(3)]))
    assert poly_factor(f) == (2, [(poly(QQ, [Fraction(-1, 2), Fraction(1)]), 1),
                                  (poly(QQ, [Fraction(3), Fraction(1)]), 1)])
    g = x * x - poly(QQ, [Fraction(2)])
    assert poly_factor(g) == (1, [(g, 1)])


@settings(max_examples=60, deadline=None)
@given(qq_poly(max_deg=6))
def test_factor_remultiplies_rational(f):
    if f.is_zero():
        return
    unit, factors = poly_factor(f)
    prod = Poly(QQ, (unit,))
    for g, mult in factors:
        assert g.is_monic()
        assert is_irreducible(g)
        prod = prod * g ** mult
    assert prod == f


def test_kronecker_candidates_match_product_filter():
    # the depth-first walk prunes prefixes on their divided differences and
    # must draw the candidates of the whole product filter, in its order
    rng = random.Random(11)
    for _ in range(4):
        f = poly(QQ, [Fraction(1)])
        while f.degree < 6:
            f = f * poly(QQ, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(rng.randint(2, 4))] + [Fraction(1)])
        assert 6 <= f.degree <= 8
        for d in range(1, f.degree // 2 + 1):
            assert list(_kronecker_candidates(f, d)) == list(kronecker_by_product(f, d))


def test_factor_rational_golden_digest():
    # every monic polynomial of degree <= 4 with coefficients in {-3..3} and
    # in {-3..3}/2; the digest was recorded from the root-search and
    # quartic-resolvent factorizer that Kronecker's method replaced
    lines = []
    for den in (1, 2):
        steps = [Fraction(c, den) for c in range(-3, 4)]
        for deg in range(5):
            for tail in itertools.product(steps, repeat=deg):
                f = Poly(QQ, tail + (Fraction(1),))
                unit, factors = poly_factor(f)
                lines.append(f"{format_poly(f)}: {unit} " + " ".join(
                    f"({format_poly(g)})^{m}" for g, m in factors))
    assert len(lines) == 5602
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "7334e205bc238490f3edbfcefc5e754978fea780de35e8cd23b92535f1b1e8b3")


def test_factor_rational_matches_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    rng = random.Random(5)
    for _ in range(30):
        # products of small factors, of degree 5 to 7
        f = poly(QQ, [Fraction(1)])
        while f.degree < 5:
            deg = rng.randint(1, 3)
            f = f * poly(QQ, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(deg)] + [Fraction(1)])
        expr = sum(sympy.Rational(c.numerator, c.denominator) * X ** k
                   for k, c in enumerate(f.coeffs))
        _, factors = sympy.factor_list(expr, X)
        expected = []
        for g, m in factors:
            coeffs = [Fraction(int(c.p), int(c.q))
                      for c in reversed(sympy.Poly(g, X).monic().all_coeffs())]
            expected.append((tuple(coeffs), m))
        expected.sort(key=lambda kv: (len(kv[0]), kv[0]))
        assert [(g.coeffs, m) for g, m in poly_factor(f)[1]] == expected


@pytest.mark.parametrize("q,deg,count", [(2, 2, 1), (2, 3, 2), (3, 2, 3)])
def test_irreducible_counts(q, deg, count):
    # number of monic irreducibles of degree d over GF(q): d=2 -> (q^2-q)/2, d=3 -> (q^3-q)/3
    from leibnizalg.poly import monic_polys
    F = gf(q)
    found = [f for f in monic_polys(F, deg) if is_irreducible(f)]
    assert len(found) == count


# ----------------------------------------------------------------- companion

def test_is_irreducible_stops_at_first_factor(monkeypatch):
    # x^12 + x = x (x^11 + 1): trial division stops at the factor x
    calls = []
    divmod_ = Poly.divmod

    def counting_divmod(self, other):
        calls.append(other)
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "divmod", counting_divmod)
    F = gf(2)
    assert not is_irreducible(poly_from_ints(F, [0, 1] + [0] * 10 + [1]))
    assert calls == [poly_from_ints(F, [0, 1])]


def test_polynomial_preconditions_are_refused():
    F = gf(5)
    zero = Poly(F, ())
    with pytest.raises(ZeroPolynomial):
        zero.leading
    with pytest.raises(ZeroDivisionError):
        poly_from_ints(F, [1, 1]).divmod(zero)
    # a constant is a unit or zero, never irreducible
    assert not is_irreducible(poly_from_ints(F, [3]))
    assert not is_irreducible(zero)
    with pytest.raises(ShapeMismatch, match="monic"):
        companion_matrix(poly_from_ints(F, [1, 2]))  # 2x + 1


def test_companion_matrix_shape_and_action():
    F = gf(5)
    p = poly_from_ints(F, [2, 3, 0, 1])  # x^3 + 3x + 2
    C = companion_matrix(p)
    assert len(C) == 3 and all(len(row) == 3 for row in C)
    # column 0 maps e_0 to e_1, column 1 maps e_1 to e_2
    col = [C[r][0] for r in range(3)]
    assert col == [0, 1, 0]
    col = [C[r][1] for r in range(3)]
    assert col == [0, 0, 1]
    # last column carries -(low coefficients)
    col = [C[r][2] for r in range(3)]
    assert col == [F.neg(F.from_int(2)), F.neg(F.from_int(3)), F.neg(F.zero)]


def test_companion_nilpotent_iff_power_of_x():
    F = gf(3)
    assert is_nilpotent_operator(F, companion_matrix(poly_from_ints(F, [0, 0, 0, 1])))
    assert not is_nilpotent_operator(F, companion_matrix(poly_from_ints(F, [0, 1, 0, 1])))


# ------------------------------------------------------------------- display

def test_format_poly():
    F = gf(3)
    assert format_poly(poly_from_ints(F, [1, 2, 1])) == "x^2 + 2*x + 1"
    assert format_poly(Poly(F, ())) == "0"
    assert format_poly(poly(QQ, [Fraction(-1, 2), Fraction(1)])) == "x - 1/2"
