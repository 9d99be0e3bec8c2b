"""The bracket and membership kernels against their definitions.

``LeibnizAlgebra.bracket`` walks sparse structure constants and, like
``Subspace.reduce``, skips zero scalars by truthiness; both are compared
with the slow references in ``kernel_reference`` on every fixture over
every corpus field, the bracket also through its per-algebra memo, on a
miss and on a hit.  Centralizers and normalizers are compared with the
vectors that satisfy their definitions, over GF(2) and GF(3).  The
Fitting power, which squares a matrix, is compared with the n-th power by
n products.  ``rref``, ``mat_mul``, ``mat_vec`` and ``Subspace.intersect``
skip zero scalars too; they are compared with ``dense_rref``,
``schoolbook_product`` and ``block_intersect`` on random matrices with
about a third of their entries zero, down to the type of every scalar;
``rref``'s matrices also have whole zero rows, which it drops.
Over Q every kernel is also run on the same random inputs rebuilt from
``Fraction`` values, as callers may build them, and must give equal
results.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from kernel_reference import (block_intersect, dense_bracket, dense_rref,
                              plain_power, random_vector, rank_contains,
                              schoolbook_product, unit_vectors)
from leibnizalg.core import LeibnizAlgebra
from leibnizalg.corpus import FIELDS, FIXTURE_NAMES, fixture
from leibnizalg.enumeration import iter_subspaces
from leibnizalg.fields import QQ, gf
from leibnizalg.linalg import (Subspace, fitting_power, image,
                               is_nilpotent_operator, kernel, mat_mul, mat_vec,
                               rref, solve)

FIELD_IDS = [str(F) for F in FIELDS]


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_bracket_matches_dense_reference(name, F):
    """The public bracket, and the memoised ``_bracket`` the package calls,
    on a fresh algebra: each pair is asked of the memo twice, every pair
    once forward and then again in reverse order, so the second round reads
    only stored answers."""
    L = fixture(name, F)
    assert L._products == {}
    rng = random.Random(f"bracket-{name}-{F}")
    vectors = unit_vectors(F, L.dim)
    vectors += [random_vector(F, L.dim, rng) for _ in range(6)]
    pairs = [(u, v) for u in vectors for v in vectors]
    for u, v in pairs:
        assert L.bracket(u, v) == dense_bracket(L, u, v)
    for u, v in pairs + pairs[::-1]:
        assert L._bracket(u, v) == dense_bracket(L, u, v)
    assert len(L._products) == len(set(pairs))
    assert [L.basis_vector(i) for i in range(L.dim)] == unit_vectors(F, L.dim)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_centralizer_normalizer_match_definitions(name, q):
    L = fixture(name, gf(q))
    vectors = list(itertools.product(range(q), repeat=L.dim))
    zero = L.zero_space()

    def stabilizer(U, W):
        return [x for x in vectors
                if all(rank_contains(W, dense_bracket(L, x, u))
                       and rank_contains(W, dense_bracket(L, u, x))
                       for u in U.basis)]

    for U in iter_subspaces(L):
        assert [x for x in vectors if L.centralizer(U).contains(x)] == \
            stabilizer(U, zero)
        assert [x for x in vectors if L.normalizer(U).contains(x)] == \
            stabilizer(U, U)


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_contains_matches_rank(F):
    rng = random.Random(f"contains-{F}")
    for n in (1, 2, 3, 4):
        for _ in range(12):
            S = Subspace.span(F, n, [random_vector(F, n, rng)
                                     for _ in range(rng.randrange(n + 1))])
            inside = []
            for _ in range(4):  # random combinations of the basis
                w = (F.zero,) * n
                for row in S.basis:
                    c = F.random_scalar(rng)
                    w = tuple(F.add(x, F.mul(c, y)) for x, y in zip(w, row))
                inside.append(w)
            assert all(rank_contains(S, w) for w in inside)
            for v in inside + [random_vector(F, n, rng) for _ in range(8)]:
                assert S.contains(v) == rank_contains(S, v)
                assert S.reduce(iter(v)) == S.reduce(v)


def _scalars(F):
    """Every element, and every sum, difference and product of two."""
    elems = list(F.elements())
    out = list(elems)
    for a in elems:
        for b in elems:
            out += [F.add(a, b), F.sub(a, b), F.mul(a, b)]
    return out


@pytest.mark.parametrize("q", (2, 3, 4, 9, 25))
def test_zero_is_the_only_falsy_scalar_finite(q):
    F = gf(q)
    for a in _scalars(F):
        assert bool(a) == (not F.is_zero(a))
    assert not F.zero and F.one


def test_zero_is_the_only_falsy_scalar_rational():
    F = QQ
    samples = [Fraction(0), F.zero, F.one, F.from_int(0), F.from_int(-3),
               Fraction(-1, 3), Fraction(5, 7), F.sub(Fraction(2, 3), Fraction(2, 3)),
               F.mul(F.zero, Fraction(4, 9)), F.add(Fraction(1, 2), Fraction(-1, 2)),
               0, -2, 7, F.sub(3, 3), F.mul(0, Fraction(4, 9)), F.add(Fraction(1, 2), 1),
               F.mul(Fraction(2, 3), Fraction(3, 2)), F.parse_scalar("0"), F.parse_scalar("6/3")]
    for a in samples:
        assert bool(a) == (not F.is_zero(a))
    assert not F.zero and F.one


def _similar(F, A, rng):
    """P A P^-1 for a random invertible P."""
    n = len(A)
    while True:
        P = [[F.random_scalar(rng) for _ in range(n)] for _ in range(n)]
        if kernel(F, P, ncols=n).dim == 0:
            break
    cols = [solve(F, P, unit) for unit in unit_vectors(F, n)]
    P_inv = [[cols[j][i] for j in range(n)] for i in range(n)]
    return schoolbook_product(F, schoolbook_product(F, P, A), P_inv)


def _nilpotent_plus_block(F, n, split, rng):
    """Strictly upper triangular on the first `split` coordinates and
    random on the others, in a random basis: nilpotent when split == n."""
    A = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < j < split or i >= split and j >= split:
                A[i][j] = F.random_scalar(rng)
    return _similar(F, A, rng)


@pytest.mark.parametrize("F", (QQ, gf(2), gf(3), gf(4), gf(9)), ids=str)
def test_fitting_power_matches_plain_power(F):
    rng = random.Random(f"fitting-{F}")
    for n in range(7):
        randoms = [[[F.random_scalar(rng) for _ in range(n)] for _ in range(n)]
                   for _ in range(3)]
        nilpotents = [_nilpotent_plus_block(F, n, n, rng) for _ in range(3)]
        mixed = [_nilpotent_plus_block(F, n, rng.randrange(n + 1), rng)
                 for _ in range(3)]
        for A in randoms + nilpotents + mixed:
            power, ref = fitting_power(F, A), plain_power(F, A)
            nil = not any(map(any, ref))
            assert is_nilpotent_operator(F, A) == nil
            assert (not any(map(any, power))) == nil
            assert kernel(F, power, ncols=n) == kernel(F, ref, ncols=n)
            assert image(F, power) == image(F, ref)
        assert all(is_nilpotent_operator(F, A) for A in nilpotents)


def _types(rows):
    return [[type(a) for a in row] for row in rows]


def _random_matrix(F, m, n, rng):
    """m random rows of length n, some of them combinations of earlier
    ones, so that the rank falls short of m."""
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.3:
            row = (F.zero,) * n
            for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                c = F.random_scalar(rng)
                row = tuple(F.add(x, F.mul(c, y)) for x, y in zip(row, earlier))
            rows.append(row)
        else:
            rows.append(random_vector(F, n, rng))
    return rows


def _with_zero_rows(F, rows, n, rng):
    """rows with one to three whole zero rows put in at random positions."""
    rows = list(rows)
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), (F.zero,) * n)
    return rows


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_rref_matches_dense_rref(F):
    # every third matrix has zero rows in it, and every 25th and every
    # empty draw only zero rows
    rng = random.Random(f"rref-{F}")
    for t in range(150):
        n = rng.randint(1, 7)
        rows = [] if t % 25 == 0 else _random_matrix(F, rng.randint(0, 7), n, rng)
        if t % 3 == 0 or not rows:
            rows = _with_zero_rows(F, rows, n, rng)
        got, pivots = rref(F, rows)
        ref, ref_pivots = dense_rref(F, rows)
        assert (got, pivots) == (ref, ref_pivots)
        assert _types(got) == _types(ref)
    zero = (F.zero,) * 3
    assert rref(F, [zero, zero]) == ([], ())


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_mat_mul_and_mat_vec_match_schoolbook(F):
    rng = random.Random(f"mat-mul-{F}")
    shapes = [(n, n, n) for n in range(6)] * 4 + [(2, 5, 3), (4, 1, 6), (3, 4, 0)]
    for rows, inner, cols in shapes:
        A = [list(random_vector(F, inner, rng)) for _ in range(rows)]
        B = [list(random_vector(F, cols, rng)) for _ in range(inner)]
        got, ref = mat_mul(F, A, B), schoolbook_product(F, A, B)
        assert got == ref and _types(got) == _types(ref)
        v = random_vector(F, inner, rng)
        got = mat_vec(F, A, v)
        ref = tuple(row[0] for row in schoolbook_product(F, A, [[a] for a in v]))
        assert got == ref and _types([got]) == _types([ref])


def _meet_pairs(F, n, rng):
    """(B, D) pairs: random, nested both ways, zero, full, meeting in 0
    and meeting in one line."""
    full, zero = Subspace.full_space(F, n), Subspace.zero_space(F, n)
    for _ in range(12):
        B = Subspace.span(F, n, _random_matrix(F, rng.randint(0, n), n, rng))
        D = Subspace.span(F, n, _random_matrix(F, rng.randint(0, n), n, rng))
        yield B, D
        inner = Subspace.span(F, n, [v for v in B.basis if rng.random() < 0.5])
        yield B, inner
        yield inner, B
        yield B, zero
        yield zero, B
        yield B, full
        yield full, B
    units = unit_vectors(F, n)
    for k in range(n + 1):  # coordinate spaces that meet in 0 or in e_k
        yield Subspace.span(F, n, units[:k]), Subspace.span(F, n, units[k:])
        yield Subspace.span(F, n, units[:k + 1]), Subspace.span(F, n, units[k:])


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_intersect_matches_block_intersect(F):
    rng = random.Random(f"intersect-{F}")
    kinds = Counter()
    for n in range(1, 6):
        for B, D in _meet_pairs(F, n, rng):
            got, ref = B.intersect(D), block_intersect(B, D)
            assert got == ref and _types(got.basis) == _types(ref.basis)
            kinds[got == B, got == D, got.dim == 0] += 1
    assert kinds[True, False, False] and kinds[False, True, False]
    assert kinds[False, False, True] and kinds[False, False, False]


def _as_fractions(x):
    """x with every scalar rebuilt as a ``Fraction``."""
    if isinstance(x, (list, tuple)):
        return type(x)(_as_fractions(a) for a in x)
    return Fraction(x)


def _scalars_in(x):
    if isinstance(x, Subspace):
        x = x.basis
    if isinstance(x, (list, tuple)):
        return [a for item in x for a in _scalars_in(item)]
    return [x]


def _rational_kernels(table, A, rows, others, v, b):
    """Every ``linalg`` kernel and the bracket and closure of the table's
    algebra, on n x n inputs over Q."""
    n = len(A)
    L = LeibnizAlgebra(QQ, table)
    S, T = Subspace.span(QQ, n, rows), Subspace.span(QQ, n, others)
    return {
        "rref": rref(QQ, rows),
        "reduce": S.reduce(v),
        "intersect": S.intersect(T),
        "coords_of": [S.coords_of(row) for row in rows],
        "embed": [S.embed(S.coords_of(row)) for row in rows],
        "kernel": kernel(QQ, A),
        "solve": solve(QQ, A, b),
        "mat_mul": mat_mul(QQ, A, A),
        "mat_vec": mat_vec(QQ, A, v),
        "fitting_power": fitting_power(QQ, A),
        "bracket": [L.bracket(x, y) for x in rows for y in others],
        "closure": L.closure(rows[:2]),
    }


def _rational_table(n, integral, rng):
    """An n x n table over Q with about 40% zero entries, the others
    integers in [-3, 3] or random rationals."""
    def scalar():
        if rng.random() < 0.4:
            return 0
        return rng.randint(-3, 3) if integral else QQ.random_scalar(rng)
    return [[tuple(scalar() for _ in range(n)) for _ in range(n)] for _ in range(n)]


def test_rational_kernels_agree_on_fraction_built_inputs():
    # callers may build scalars as Fractions, as the benchmark's cyclic and
    # generated inputs do; they compare equal to the ints Rationals returns.
    # The kernels pass untouched entries through, so only the run on
    # normalized inputs has every whole result as an int
    rng = random.Random("fraction-built")
    for n in range(1, 6):
        for integral in (True, False):
            A = [list(row) for row in _random_matrix(QQ, n, n, rng)]
            rows, others = _random_matrix(QQ, n, n, rng), _random_matrix(QQ, n - 1, n, rng)
            v, x = random_vector(QQ, n, rng), random_vector(QQ, n, rng)
            inputs = (_rational_table(n, integral, rng), A, rows, others, v, mat_vec(QQ, A, x))
            got, built = _rational_kernels(*inputs), _rational_kernels(*_as_fractions(inputs))
            assert got == built
            assert all(type(a) in (int, Fraction) for a in _scalars_in(list(built.values())))
            assert all(type(a) is int or type(a) is Fraction and a.denominator != 1
                       for a in _scalars_in(list(got.values())))
