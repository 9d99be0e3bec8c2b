import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernel_reference import (closure_by_rounds, left_mult, leib_ideal_from_table,
                              lift, perturbed, random_vector, unit_vectors,
                              violation_by_triples)
from leibnizalg.core import LeibnizAlgebra, direct_sum
from leibnizalg.corpus import FIELDS, FIXTURE_NAMES, fixture
from leibnizalg.cyclic import build_cyclic
from leibnizalg.enumeration import iter_subalgebras
from leibnizalg.errors import (AmbientMismatch, FieldParseError, NotAnIdeal,
                               NotASubalgebra, NotLeibniz, ShapeMismatch)
from leibnizalg.fields import QQ, gf
from leibnizalg.linalg import Subspace, mat_vec
from leibnizalg.series import is_nilpotent_space

F3 = gf(3)


def rand_vec(draw_ints, n):
    return st.lists(draw_ints, min_size=n, max_size=n).map(tuple)


# ---------------------------------------------------------------- identity

@pytest.mark.parametrize("name", ("A2", "r2", "H3", "sl2", "C2", "C3a", "C3b"))
@pytest.mark.parametrize("q", (None, 2, 3, 4, 9))
def test_fixtures_satisfy_leibniz(name, q):
    F = QQ if q is None else gf(q)
    fixture(name, F).require_leibniz()


def test_violation_reported():
    # [e1, e1] = e2, [e2, e1] = e1 breaks the identity
    F = QQ
    z, o = F.zero, F.one
    table = (((z, o), (z, z)), ((o, z), (z, z)))
    L = LeibnizAlgebra(F, table)
    v = L.leibniz_violation()
    assert v is not None
    i, j, k = v.triple
    basis = [L.basis_vector(t) for t in range(2)]
    lhs = L.bracket(basis[i], L.bracket(basis[j], basis[k]))
    rhs = tuple(F.sub(a, b) for a, b in zip(
        L.bracket(L.bracket(basis[i], basis[j]), basis[k]),
        L.bracket(L.bracket(basis[i], basis[k]), basis[j])))
    assert v.lhs == lhs and v.rhs == rhs and lhs != rhs
    with pytest.raises(NotLeibniz):
        L.require_leibniz()


def test_table_shape_checked():
    F = QQ
    z = F.zero
    with pytest.raises(ShapeMismatch):
        LeibnizAlgebra(F, (((z, z),),))
    with pytest.raises(ShapeMismatch):
        LeibnizAlgebra(F, (((z,), (z,)),))
    with pytest.raises(ShapeMismatch, match="^1 basis names for dimension 2$"):
        LeibnizAlgebra(F, fixture("A2", F).table, ("x",))


def test_fixture_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="unknown fixture 'A3'"):
        fixture("A3", QQ)


def test_default_names():
    L = fixture("H3", QQ)
    M = LeibnizAlgebra(QQ, L.table)
    assert M.names == ("e1", "e2", "e3")


# ----------------------------------------------------------------- bracket

@given(rand_vec(st.integers(0, 2), 3), rand_vec(st.integers(0, 2), 3),
       rand_vec(st.integers(0, 2), 3))
def test_bracket_bilinear(u, v, w):
    L = fixture("sl2", F3)
    F = F3
    lhs = L.bracket(tuple(F.add(a, b) for a, b in zip(u, v)), w)
    rhs = tuple(F.add(a, b) for a, b in zip(L.bracket(u, w), L.bracket(v, w)))
    assert lhs == rhs
    lhs = L.bracket(w, tuple(F.add(a, b) for a, b in zip(u, v)))
    rhs = tuple(F.add(a, b) for a, b in zip(L.bracket(w, u), L.bracket(w, v)))
    assert lhs == rhs


@given(rand_vec(st.integers(0, 2), 3), rand_vec(st.integers(0, 2), 3),
       rand_vec(st.integers(0, 2), 3))
def test_right_mult_is_derivation(x, y, z):
    # [[y,z],x] = [[y,x],z] + [y,[z,x]] is a rearranged Leibniz identity
    L = fixture("sl2", F3)
    F = F3
    lhs = L.bracket(L.bracket(y, z), x)
    rhs = tuple(F.add(a, b) for a, b in zip(
        L.bracket(L.bracket(y, x), z), L.bracket(y, L.bracket(z, x))))
    assert lhs == rhs


def test_mult_matrices_agree_with_bracket():
    L = fixture("sl2", QQ)
    x = (Fraction(1), Fraction(2), Fraction(-1))
    y = (Fraction(0), Fraction(1), Fraction(3))
    R = L.right_mult(x)
    assert mat_vec(QQ, R, y) == L.bracket(y, x)
    Lm = left_mult(L, x)
    assert mat_vec(QQ, Lm, y) == L.bracket(x, y)


def test_anti_homomorphism_into_operators():
    # R_{[y,z]} = R_z R_y - R_y R_z
    from leibnizalg.linalg import mat_mul
    L = fixture("sl2", QQ)
    y = (Fraction(1), Fraction(0), Fraction(2))
    z = (Fraction(0), Fraction(1), Fraction(1))
    lhs = L.right_mult(L.bracket(y, z))
    Ry, Rz = L.right_mult(y), L.right_mult(z)
    comm = [[QQ.sub(a, b) for a, b in zip(r1, r2)]
            for r1, r2 in zip(mat_mul(QQ, Rz, Ry), mat_mul(QQ, Ry, Rz))]
    assert lhs == comm


# ------------------------------------------------------------ leib ideal

@pytest.mark.parametrize("name,dim_leib", [("r2", 0), ("H3", 0), ("sl2", 0),
                                           ("C2", 1), ("C3a", 2), ("C3b", 2)])
def test_leib_ideal(name, dim_leib):
    L = fixture(name, QQ)
    leib = L.leib_ideal()
    assert leib.dim == dim_leib
    assert L.is_ideal(leib)
    # squares land in it and it is right-annihilated
    for i in range(L.dim):
        e = L.basis_vector(i)
        assert leib.contains(L.bracket(e, e))
    assert L.product(L.full_space(), leib).dim == 0
    # the quotient is a Lie algebra: brackets are antisymmetric
    Q = L.quotient(leib)
    Q.require_leibniz()
    for i in range(Q.dim):
        for j in range(Q.dim):
            u, v = Q.basis_vector(i), Q.basis_vector(j)
            s = tuple(QQ.add(a, b) for a, b in zip(Q.bracket(u, v), Q.bracket(v, u)))
            assert all(QQ.is_zero(c) for c in s)
        assert all(QQ.is_zero(c) for c in Q.bracket(Q.basis_vector(i), Q.basis_vector(i)))


# --------------------------------------------------- centre and friends

def test_centre_known():
    assert fixture("H3", QQ).centre().dim == 1
    assert fixture("H3", QQ).centre().contains((0, 0, 1))
    assert fixture("r2", QQ).centre().dim == 0
    assert fixture("sl2", QQ).centre().dim == 0
    assert fixture("A2", QQ).centre().dim == 2


def test_centralizer_of_full_is_centre():
    for name in ("r2", "H3", "sl2", "C3a"):
        L = fixture(name, QQ)
        assert L.centralizer(L.full_space()) == L.centre()


def test_normalizer_self_normalizing():
    L = fixture("r2", QQ)
    U = L.span([(0, 1)])
    assert L.normalizer(U) == U
    # an ideal is normalized by everything
    I = L.span([(1, 0)])
    assert L.normalizer(I).dim == 2


def test_derived_space_known():
    assert fixture("r2", QQ).derived_space().dim == 1
    assert fixture("H3", QQ).derived_space().dim == 1
    assert fixture("sl2", QQ).derived_space().dim == 3
    assert fixture("C3a", QQ).derived_space().dim == 2


# ----------------------------------------------------- subalgebra tests

def test_subalgebra_and_ideal_flags(h3):
    centre = h3.span([(0, 0, 1)])
    assert h3.is_subalgebra(centre) and h3.is_ideal(centre)
    line = h3.span([(1, 0, 0)])
    assert h3.is_subalgebra(line) and not h3.is_ideal(line)
    plane = h3.span([(1, 0, 0), (0, 1, 0)])
    assert not h3.is_subalgebra(plane)


def test_closure(h3):
    assert h3.closure([(1, 0, 0)]).dim == 1
    assert h3.closure([(1, 0, 0), (0, 1, 0)]).dim == 3
    L = fixture("C3a", QQ)
    assert L.closure([(1, 0, 0)]).dim == 3  # a generates everything


def _random_table(F, n, density, rng):
    """An n x n table, not necessarily Leibniz: each entry is a random
    vector with probability `density` and zero otherwise."""
    return tuple(tuple(random_vector(F, n, rng) if rng.random() < density
                       else (F.zero,) * n for _ in range(n)) for _ in range(n))


def _random_algebras(F, rng):
    return [LeibnizAlgebra(F, _random_table(F, n, density, rng))
            for n in range(1, 5) for density in (0.15, 0.4, 0.9) for _ in range(4)]


def _generator_sets(F, n, rng):
    """Sets of 0 to 3 vectors: random ones, the zero vector, and
    combinations of earlier members."""
    for size in range(4):
        for _ in range(3):
            vecs = []
            for _ in range(size):
                r = rng.random()
                if r < 0.15:
                    vecs.append((F.zero,) * n)
                elif vecs and r < 0.4:
                    v = (F.zero,) * n
                    for w in vecs:
                        c = F.random_scalar(rng)
                        v = tuple(F.add(a, F.mul(c, b)) for a, b in zip(v, w))
                    vecs.append(v)
                else:
                    vecs.append(random_vector(F, n, rng))
            yield vecs


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_closure_matches_rounds(F):
    rng = random.Random(f"closure-{F}")
    kinds = Counter()
    for L in _random_algebras(F, rng):
        for vecs in _generator_sets(F, L.dim, rng):
            got = L.closure(vecs)
            assert got == closure_by_rounds(L, vecs)
            kinds["zero" if got.dim == 0 else "full" if got.dim == L.dim
                  else "proper"] += 1
    assert kinds["zero"] and kinds["proper"] and kinds["full"]


@pytest.mark.parametrize("name, F", [("C3a", QQ), ("C3a", F3), ("H3", QQ),
                                     ("sl2", QQ)], ids=str)
def test_closure_brackets_each_pair_once(name, F, monkeypatch):
    L = fixture(name, F)
    calls = Counter()
    bracket = LeibnizAlgebra.bracket

    def counted(self, u, v):
        calls["bracket"] += 1
        return bracket(self, u, v)

    monkeypatch.setattr(LeibnizAlgebra, "bracket", counted)
    rng = random.Random(f"closure-count-{name}-{F}")
    units = unit_vectors(F, L.dim)
    sets = [[u] for u in units] + [list(p) for p in itertools.combinations(units, 2)]
    sets += [[random_vector(F, L.dim, rng)] for _ in range(6)]
    dims = Counter()
    for vecs in sets:
        calls.clear()
        S = L.closure(vecs)
        assert calls["bracket"] <= S.dim ** 2
        dims[S.dim] += 1
    assert dims[L.dim]
    if name == "C3a":
        assert L.closure([units[0]]).dim == 3  # a generates everything


def _sparse_leibniz_algebras(F, rng):
    """Random cyclic algebras and direct sums of fixtures and cyclic
    algebras: sparse tables that satisfy the identity."""
    cyclics = [build_cyclic(F, [F.random_scalar(rng) for _ in range(rng.randint(1, 6))])
               for _ in range(8)]
    parts = [fixture(name, F) for name in FIXTURE_NAMES] + cyclics
    sums = [direct_sum(*rng.sample(parts, 2)) for _ in range(8)]
    sums += [direct_sum(direct_sum(*rng.sample(parts, 2)), rng.choice(parts))
             for _ in range(4)]
    return cyclics + sums


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_violation_matches_triples(F):
    rng = random.Random(f"violation-{F}")
    holds = [fixture(name, F) for name in FIXTURE_NAMES]
    for L in holds + _sparse_leibniz_algebras(F, random.Random(f"sparse-{F}")):
        assert L.leibniz_violation() is None and violation_by_triples(L) is None
    randoms = _random_algebras(F, rng)
    violated = 0
    for L in randoms:
        got = L.leibniz_violation()
        assert got == violation_by_triples(L)
        violated += got is not None
    assert violated > len(randoms) / 2


def _types(violation):
    return [type(a) for a in violation.lhs + violation.rhs]


@pytest.mark.parametrize("F", [gf(2), gf(3), gf(4), QQ], ids=str)
def test_violation_matches_triples_on_perturbed_corpus(F, members):
    rng = random.Random(f"perturbed-{F}")
    algebras = [m.algebra for m in members if m.algebra.field == F and m.algebra.dim <= 6]
    assert len(algebras) >= 25
    found = Counter()
    for L in algebras:
        for _ in range(2):
            P = perturbed(L, rng)
            got = P.leibniz_violation()
            ref = violation_by_triples(LeibnizAlgebra(F, P.table))
            assert got == ref
            if got is not None:
                assert _types(got) == _types(ref)
                found["late" if got.triple[0] else "first row"] += 1
    # the first violation is not always at i = 0
    assert found["late"] > len(algebras) / 4 and found["first row"]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_identity_check_forms_only_the_reported_brackets(F, monkeypatch):
    """The identity check works on the structure constants: an identity
    that holds costs no bracket, and a violated one the three brackets
    of its reported triple."""
    pairs = []
    bracket = LeibnizAlgebra.bracket

    def counted(self, u, v):
        pairs.append((tuple(u), tuple(v)))
        return bracket(self, u, v)

    monkeypatch.setattr(LeibnizAlgebra, "bracket", counted)
    rng = random.Random(f"identity-cost-{F}")
    holds = [fixture(name, F) for name in FIXTURE_NAMES]
    holds += [build_cyclic(F, [F.random_scalar(rng) for _ in range(n)]) for n in range(1, 6)]
    for L in holds:
        assert L.leibniz_violation() is None
        assert pairs == []
    violated = 0
    for L in holds:
        P = perturbed(L, rng)
        pairs.clear()
        v = P.leibniz_violation()
        if v is None:
            assert pairs == []
            continue
        violated += 1
        i, j, k = v.triple
        e, T = P._basis, P.table
        assert len(pairs) <= 3
        assert set(pairs) <= {(e[i], T[j][k]), (T[i][j], e[k]), (T[i][k], e[j])}
    assert violated >= len(holds) // 2


# ------------------------------------------------- quotient and restrict

def test_quotient_h3_by_centre(h3):
    I = h3.span([(0, 0, 1)])
    Q = h3.quotient(I)
    assert Q.dim == 2 and Q.is_abelian()
    Q.require_leibniz()
    for j in range(Q.dim):
        w = Q.basis_vector(j)
        assert I.quotient_coords(lift(I, w)) == w


def test_quotient_requires_ideal(h3):
    with pytest.raises(NotAnIdeal):
        h3.quotient(h3.span([(1, 0, 0)]))


def test_restrict_round_trip(r2, h3):
    U = r2.span([(0, 1)])
    S = r2.restrict(U)
    S.require_leibniz()
    assert S.dim == 1 and S.is_abelian()
    w = S.basis_vector(0)
    assert U.coords_of(U.embed(w)) == w
    with pytest.raises(NotASubalgebra):
        h3.restrict(h3.span([(1, 0, 0), (0, 1, 0)]))


_PLANE = Subspace.span(QQ, 3, [(1, 0, 1), (0, 1, 2)])


@pytest.mark.parametrize("call", [
    lambda: _PLANE.embed((1, 2, 3)),
    lambda: _PLANE.embed((1,)),
    lambda: _PLANE.embed_space(Subspace.full_space(QQ, 3)),
    lambda: _PLANE.embed_space(Subspace.zero_space(QQ, 1)),
    lambda: _PLANE.coords_of((1, 2)),
    lambda: Subspace.span(QQ, 3, [(0, 0, 1)]).coords_of((5,)),
    lambda: Subspace.span(QQ, 3, [(0, 0, 1)]).coords_of((0, 0, 5, 0)),
], ids=["embed-long", "embed-short", "embed-space-full", "embed-space-zero",
        "coords-short", "coords-past-pivot", "coords-long"])
def test_section_coordinates_check_shapes(call):
    # a wrong length raises, as in reduce: embed neither pads nor cuts the
    # coefficients, and coords_of reads no pivot past the end of v
    with pytest.raises(ShapeMismatch):
        call()


@pytest.mark.parametrize("call", [
    lambda L: L.bracket((1, 0, 0), (0, 1)),
    lambda L: L.bracket((1, 0), (0, 1, 0)),
    lambda L: L.bracket((1,), (0, 1)),
    lambda L: L.right_mult((0, 1, 0)),
    lambda L: L.right_mult((1,)),
    lambda L: LeibnizAlgebra(L.field, [], ()).right_mult((1,)),
], ids=["bracket-long-left", "bracket-long-right", "bracket-short-left",
        "right-mult-long", "right-mult-short", "right-mult-zero-algebra"])
def test_bracket_refuses_vectors_of_another_length(call):
    # the kernel neither cuts nor pads: r2 over GF(3) gave [(1, 0, 0), (0, 1)]
    # as (1, 0), and the zero algebra's right_mult((1,)) was []
    with pytest.raises(ShapeMismatch):
        call(fixture("r2", gf(3)))


@pytest.mark.parametrize("call", [
    lambda L, S: L.product(L.full_space(), S),
    lambda L, S: L.product(S, L.full_space()),
    lambda L, S: L.centralizer(S),
    lambda L, S: L.normalizer(S),
    lambda L, S: L.is_abelian_space(S),
    lambda L, S: is_nilpotent_space(L, S),
    lambda L, S: L.is_subalgebra(S),
    lambda L, S: L.is_ideal(S),
    lambda L, S: L.restrict(S),
    lambda L, S: L.quotient(S),
], ids=["product-right", "product-left", "centralizer", "normalizer",
        "is-abelian-space", "is-nilpotent-space", "is-subalgebra", "is-ideal",
        "restrict", "quotient"])
@pytest.mark.parametrize("space", [Subspace.span(gf(3), 3, [(1, 0, 0)]),
                                   Subspace.full_space(gf(2), 2),
                                   Subspace.span(QQ, 2, [(1, 0)])],
                         ids=["line-in-F3^3", "plane-over-GF2", "line-over-Q"])
def test_subspace_operations_refuse_another_ambient(call, space):
    # over r2/GF(3) the line in F^3 was nilpotent and its centralizer 0; the
    # line over Q passed as an ideal, and its quotient was a GF(3) algebra
    with pytest.raises(AmbientMismatch):
        call(fixture("r2", gf(3)), space)


@pytest.mark.parametrize("name", ["H3", "C3a", "C3b"])
def test_section_coordinates_are_homomorphisms(name):
    # embed carries the bracket of the subalgebra on U to that of L, and
    # quotient_coords the bracket of L to that of L/U
    L = fixture(name, F3)
    for U in iter_subalgebras(L):
        S = L.restrict(U)
        for s, t in itertools.product(unit_vectors(F3, S.dim), repeat=2):
            assert L.bracket(U.embed(s), U.embed(t)) == U.embed(S.bracket(s, t))
        assert U.embed_space(S.full_space()) == U
        if L.is_ideal(U):
            Q = L.quotient(U)
            for u, v in itertools.product(unit_vectors(F3, L.dim), repeat=2):
                assert (Q.bracket(U.quotient_coords(u), U.quotient_coords(v))
                        == U.quotient_coords(L.bracket(u, v)))


def test_restrict_keeps_bracket(sl2):
    # span{e3} is a subalgebra with [e3,e3] = 0
    U = sl2.span([(0, 0, 1)])
    S = sl2.restrict(U)
    assert S.dim == 1
    assert all(QQ.is_zero(c) for c in S.bracket(S.basis_vector(0), S.basis_vector(0)))


# ------------------------------------------------------------- direct sum

def test_direct_sum(h3, r2):
    L = direct_sum(h3, r2)
    L.require_leibniz()
    assert L.dim == 5
    assert L.derived_space().dim == 2
    assert L.centre().dim == 1
    # cross brackets vanish
    u = (1, 0, 0, 0, 0)
    v = (0, 0, 0, 1, 0)
    assert all(QQ.is_zero(c) for c in L.bracket(u, v))
    assert all(QQ.is_zero(c) for c in L.bracket(v, u))
    with pytest.raises(ShapeMismatch, match="common ground field"):
        direct_sum(h3, fixture("A2", gf(3)))


def test_table_key(h3, r2):
    assert h3.table_key() == fixture("H3", QQ).table_key()
    assert h3.table_key() != r2.table_key()
    assert h3.table_key() != fixture("H3", gf(3)).table_key()


def test_int_structure_constants_stay_exact():
    # an int table once made Q echelon rows floats: 1 / 2 is 0.5
    L = LeibnizAlgebra(QQ, [[(0, 0), (0, 0)], [(1, 0), (0, 0)]])
    basis = L.span([(2, 1)]).basis
    assert basis == ((1, Fraction(1, 2)),)
    assert [type(a) for a in basis[0]] == [int, Fraction]
    bracket = L.bracket((3, Fraction(3, 2)), (Fraction(2, 3), 5))
    assert bracket == (1, 0) and [type(a) for a in bracket] == [int, int]


@pytest.mark.parametrize("F,table,where", [
    (QQ, [[(0, 0), (0, 0)], [(1.5, 0), (0, 0)]], "[1][0][0]"),
    (QQ, [[(0, 0), (0, 0)], [(1, 0), (0, 2.0)]], "[1][1][1]"),
    (QQ, [[(0, True), (0, 0)], [(0, 0), (0, 0)]], "[0][0][1]"),
    (gf(9), [[(0, 0), (9, 0)], [(0, 0), (0, 0)]], "[0][1][0]"),
    (gf(3), [[(0, 0), (0, 0)], [(0, -1), (0, 0)]], "[1][0][1]"),
], ids=["float", "whole-float", "bool", "gf9-code-9", "gf3-negative"])
def test_table_scalars_are_checked_by_the_kernel(F, table, where):
    L = LeibnizAlgebra(F, table)
    with pytest.raises(FieldParseError, match=re.escape(f"table entry {where}: ")):
        L.bracket((0, 1), (1, 0))


def test_leib_ideal_reads_the_checked_scalars():
    L = LeibnizAlgebra(QQ, [[(0, 0), (0, 0)], [(1.5, 0), (0, 0)]])
    with pytest.raises(FieldParseError, match=re.escape("table entry [1][0][0]: ")):
        L.leib_ideal()


@pytest.mark.parametrize("F,vector,where", [
    (F3, (1, 5), "vector 1 entry 1: "),
    (QQ, (1, 0.5), "vector 1 entry 1: "),
    (QQ, (2.0, 1), "vector 1 entry 0: "),
    (QQ, (True, 0), "vector 1 entry 0: "),
], ids=["gf3-out-of-range", "q-float-entry", "q-float-lead", "q-bool"])
def test_span_and_closure_check_the_given_scalars(F, vector, where):
    L = fixture("A2", F)
    for build in (L.span, L.closure):
        with pytest.raises(FieldParseError, match=re.escape(where)):
            build([(0, 1), vector])


def test_span_takes_scalars_to_canonical_form():
    # a whole Fraction is an int in the kernel, as in a table (see below)
    L = fixture("A2", QQ)
    for build in (L.span, L.closure):
        U = build([(1, Fraction(2))])
        assert U.basis == ((1, 2),)
        assert [type(c) for c in U.basis[0]] == [int, int]


def test_leib_ideal_matches_the_table_entries(members):
    for m in members:
        assert m.algebra.leib_ideal() == leib_ideal_from_table(m.algebra), m.label


def test_whole_fractions_in_a_table_are_ints_in_the_kernel():
    L = LeibnizAlgebra(QQ, [[(0, 0), (0, 0)], [(Fraction(2), Fraction(1, 2)), (0, 0)]])
    assert L._terms == ((), ((0, ((0, 2), (1, Fraction(1, 2)))),))
    assert [type(c) for _, c in L._terms[1][0][1]] == [int, Fraction]
    C = build_cyclic(QQ, (Fraction(2), Fraction(0), Fraction(-1)))
    assert {type(c) for row in C._terms for _, terms in row for _, c in terms} == {int}
