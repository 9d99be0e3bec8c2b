from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import complement_by_alphas, generator_polynomial_by_alphas
from leibnizalg.cyclic import (CyclicSpec, build_cyclic, classify_cyclic,
                               complement_vector, generator_cofactor,
                               generator_polynomial)
from leibnizalg.errors import BadSpec
from leibnizalg.fields import QQ, gf
from leibnizalg.poly import companion_matrix, format_poly


@st.composite
def gf3_alphas(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return tuple(draw(st.integers(min_value=0, max_value=2))
                 for _ in range(n))


@settings(max_examples=60, deadline=None)
@given(gf3_alphas())
def test_always_leibniz_gf3(alphas):
    L = build_cyclic(gf(3), alphas)
    assert L.leibniz_violation() is None


@settings(max_examples=30, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
                min_size=1, max_size=4))
def test_always_leibniz_rational(alphas):
    L = build_cyclic(QQ, tuple(alphas))
    assert L.leibniz_violation() is None


def test_empty_alphas_rejected():
    with pytest.raises(BadSpec):
        CyclicSpec(QQ, ())


def test_shape():
    L = build_cyclic(QQ, (Fraction(1), Fraction(0), Fraction(2)))
    assert L.dim == 4
    assert L.names == ("a", "a^2", "a^3", "a^4")
    # powers of the generator really are the later basis vectors
    a = L.basis_vector(0)
    v = a
    for i in range(1, 4):
        v = L.bracket(v, a)
        assert v == L.basis_vector(i)
    # right multiplication by anything in the derived part is zero
    for j in range(1, 4):
        for i in range(4):
            assert all(c == 0 for c in L.bracket(L.basis_vector(i),
                                                 L.basis_vector(j)))


def test_generator_polynomial_and_companion():
    spec = CyclicSpec(gf(5), (2, 0, 3))
    p = generator_polynomial(spec)
    assert format_poly(p) == "x^4 + 2*x^3 + 3*x"
    L = build_cyclic(gf(5), (2, 0, 3))
    assert L.right_mult(L.basis_vector(0)) == companion_matrix(p)


def test_cofactor_divides():
    spec = CyclicSpec(gf(3), (1, 2))
    p = generator_polynomial(spec)
    q = generator_cofactor(spec)
    x = generator_polynomial(CyclicSpec(gf(3), (0,)))  # x^2 has cofactor x
    assert q.degree == p.degree - 1
    assert p == q * generator_cofactor(CyclicSpec(gf(3), (0,)))


def test_complement_vector_kernel():
    F = QQ
    alphas = (Fraction(3), Fraction(-1), Fraction(2))
    L = build_cyclic(F, alphas)
    b = complement_vector(CyclicSpec(F, alphas))
    zero = (Fraction(0),) * 4
    assert L.bracket(b, L.basis_vector(0)) == zero
    assert L.bracket(b, b) == zero


def _alpha_tuples():
    """Every alpha tuple over GF(2), GF(3), GF(4) and GF(5) with n <= 4, and
    the rational workload's tuples from (-1, 0, 1, 2) with n <= 5."""
    for q in (2, 3, 4, 5):
        F = gf(q)
        for n in range(2, 5):
            for alphas in product(F.elements(), repeat=n - 1):
                yield F, alphas
    for n in range(2, 6):
        for ints in product((-1, 0, 1, 2), repeat=n - 1):
            yield QQ, tuple(Fraction(a) for a in ints)


def test_p_and_b_from_the_cofactor_match_the_alpha_formulas():
    def typed(coeffs):
        return [(type(c), c) for c in coeffs]

    count = 0
    for F, alphas in _alpha_tuples():
        spec = CyclicSpec(F, alphas)
        p, p_ref = generator_polynomial(spec), generator_polynomial_by_alphas(spec)
        assert p == p_ref and typed(p.coeffs) == typed(p_ref.coeffs), (str(F), alphas)
        b, b_ref = complement_vector(spec), complement_by_alphas(spec)
        assert type(b) is tuple and typed(b) == typed(b_ref), (str(F), alphas)
        count += 1
    assert count == 14 + 39 + 84 + 155 + 340


def test_sweep_all_checks_pass():
    for F in (gf(2), gf(3)):
        scalars = range(F.size)
        for n in (2, 3):
            for alphas in product(scalars, repeat=n - 1):
                rep = classify_cyclic(F, alphas)
                assert rep.ok, (F, alphas,
                                [c for c in rep.checks if c.failed])


def test_a_iff_alpha2():
    assert classify_cyclic(gf(3), (2, 1)).is_a
    assert not classify_cyclic(gf(3), (0, 1)).is_a
    assert classify_cyclic(QQ, (Fraction(1, 2),)).is_a


def test_nilpotent_iff_all_zero():
    assert classify_cyclic(gf(2), (0, 0, 0)).nilpotent
    assert not classify_cyclic(gf(2), (0, 1, 0)).nilpotent


def test_monolithic_frozen_cases():
    # q = x^2: one irreducible factor, so monolithic even though alpha_2 = 0
    rep = classify_cyclic(gf(3), (0, 0))
    assert rep.monolithic_claim and not rep.is_a
    assert not rep.frattini_free_claim
    assert rep.ok
    # q = x * (x + 2): two distinct factors, not monolithic
    rep = classify_cyclic(gf(3), (0, 1))
    assert not rep.monolithic_claim
    assert rep.ok
    # q = x^3 + x^2 + 1 irreducible over GF(2): monolithic and Frattini-free
    rep = classify_cyclic(gf(2), (1, 0, 1))
    assert rep.monolithic_claim and rep.frattini_free_claim and rep.is_a
    assert rep.ok


def test_normalization_scalar():
    rep = classify_cyclic(gf(3), (2,))
    assert rep.normalization_scalar == 2
    assert any(c.clause == "normalized_generator" for c in rep.checks)
    rep = classify_cyclic(gf(3), (0,))
    assert rep.normalization_scalar is None
    rep = classify_cyclic(gf(3), (1, 1))
    assert rep.normalization_scalar is None


def test_rational_classification_skips_enumeration():
    rep = classify_cyclic(QQ, (Fraction(1), Fraction(1)))
    assert rep.ok and rep.is_a
    names = {c.clause for c in rep.checks}
    assert "socle_cross_check" not in names
    assert "verdict_cross_check" not in names
    assert "companion_match" in names


def test_monolith_dimension_check_present():
    rep = classify_cyclic(gf(2), (1, 0, 1))
    dims = [c for c in rep.checks if c.clause == "monolith_dimension"]
    assert len(dims) == 1 and not dims[0].failed
