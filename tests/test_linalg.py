import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import identity_matrix
from leibnizalg.errors import AmbientMismatch, NoSolution, ShapeMismatch
from leibnizalg.fields import QQ, PrimeField, gf
from leibnizalg.linalg import (Subspace, chain, fitting_power, image,
                               is_nilpotent_operator, kernel, mat_mul, mat_vec,
                               restrict_operator, rref, solve)

F3 = gf(3)


def gf3_matrix(rows, cols):
    return st.lists(
        st.lists(st.integers(0, 2), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


def gf3_vectors(n, count):
    return st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple),
        min_size=0, max_size=count)


# --------------------------------------------------------------------- rref

@given(gf3_matrix(4, 3))
def test_rref_idempotent(rows):
    rows = [tuple(r) for r in rows]
    red, pivots = rref(F3, rows)
    again, pivots2 = rref(F3, list(red))
    assert list(again) == list(red)
    assert pivots == pivots2
    assert list(pivots) == sorted(pivots)
    for k, j in enumerate(pivots):
        assert red[k][j] == F3.one
        for i in range(len(red)):
            if i != k:
                assert red[i][j] == F3.zero


def test_rref_known():
    rows = [(Fraction(2), Fraction(4)), (Fraction(1), Fraction(2))]
    red, pivots = rref(QQ, rows)
    assert list(red) == [(Fraction(1), Fraction(2))]
    assert list(pivots) == [0]


# ------------------------------------------------------------- rank nullity

@given(gf3_matrix(3, 4))
def test_rank_nullity(rows):
    rows = [tuple(r) for r in rows]
    ker = kernel(F3, rows, ncols=4)
    img = image(F3, rows)
    assert ker.dim + img.dim == 4
    for v in ker.basis:
        assert all(F3.is_zero(c) for c in mat_vec(F3, rows, v))


def test_kernel_of_empty_matrix():
    ker = kernel(F3, [], ncols=3)
    assert ker.dim == 3


@pytest.mark.parametrize("ncols", [1, 3], ids=["narrow", "wide"])
def test_kernel_refuses_ncols_other_than_the_width(ncols):
    # the kernel of a 1 x 2 matrix lies in F^2, whatever ncols asks
    with pytest.raises(ShapeMismatch):
        kernel(F3, [(1, 0)], ncols=ncols)
    assert kernel(F3, [(1, 0)], ncols=2) == Subspace.span(F3, 2, [(0, 1)])


# ---------------------------------------------------------------- subspaces

@given(gf3_vectors(4, 3), gf3_vectors(4, 3))
def test_dimension_formula(us, vs):
    U = Subspace.span(F3, 4, us)
    V = Subspace.span(F3, 4, vs)
    S = U.add(V)
    I = U.intersect(V)
    assert S.dim + I.dim == U.dim + V.dim
    assert S.contains_space(U) and S.contains_space(V)
    assert U.contains_space(I) and V.contains_space(I)


@given(gf3_vectors(3, 4))
def test_span_canonical(vs):
    U = Subspace.span(F3, 3, vs)
    # basis rows are their own rref
    red, pivots = rref(F3, list(U.basis))
    assert list(red) == list(U.basis)
    assert tuple(pivots) == tuple(U.pivots)
    for v in vs:
        assert U.contains(v)


def test_coords_of_round_trip():
    U = Subspace.span(QQ, 3, [(Fraction(1), Fraction(0), Fraction(1)),
                              (Fraction(0), Fraction(1), Fraction(2))])
    v = (Fraction(2), Fraction(3), Fraction(8))
    coords = U.coords_of(v)
    rebuilt = [QQ.zero] * 3
    for c, row in zip(coords, U.basis):
        for j in range(3):
            rebuilt[j] = QQ.add(rebuilt[j], QQ.mul(c, row[j]))
    assert tuple(rebuilt) == v
    with pytest.raises(NoSolution):
        U.coords_of((Fraction(1), Fraction(0), Fraction(0)))


def test_subspace_mismatch_errors():
    U = Subspace.span(F3, 3, [(1, 0, 0)])
    for V in (Subspace.span(F3, 4, [(1, 0, 0, 0)]), Subspace.span(gf(2), 3, [(0, 1, 0)]),
              Subspace.span(QQ, 3, [(0, 1, 0)])):
        for call in (U.add, U.intersect, lambda W: U.is_direct_sum(U, W)):
            with pytest.raises(AmbientMismatch):
                call(V)
    with pytest.raises(ShapeMismatch):
        U.contains((1, 0))


def test_subspaces_over_equal_fields_combine():
    # a field equal to gf(3) but not the same object is the same ambient
    other = PrimeField(3)
    assert other is not F3 and other == F3
    U = Subspace.span(F3, 3, [(1, 0, 0)])
    V = Subspace.span(other, 3, [(0, 1, 0)])
    assert U.add(V) == Subspace.span(F3, 3, [(1, 0, 0), (0, 1, 0)])
    assert U.intersect(V).dim == 0
    assert U.add(V).is_direct_sum(U, V)


def _random_span(F, rng, gens, count):
    """Span of count random combinations of gens."""
    vecs = []
    for _ in range(count):
        v = (F.zero,) * len(gens[0])
        for g in gens:
            c = F.random_scalar(rng)
            v = tuple(F.add(a, F.mul(c, b)) for a, b in zip(v, g))
        vecs.append(v)
    return Subspace.span(F, len(gens[0]), vecs)


def _direct_sum_by_intersections(W, parts):
    total = parts[0]
    for P in parts[1:]:
        if total.intersect(P).dim != 0:
            return False
        total = total.add(P)
    return total == W


@pytest.mark.parametrize("F", [QQ, gf(2), F3, gf(4)], ids=str)
def test_is_direct_sum_matches_intersect_and_add(F):
    rng = random.Random(9)
    outcomes = Counter()
    for n in range(1, 6):
        full = Subspace.full_space(F, n).basis
        for _ in range(60):
            W = Subspace.full_space(F, n)
            if rng.random() < 0.5:
                W = _random_span(F, rng, full, rng.randint(0, n))
            k = rng.choice((2, 3))
            cuts = sorted(rng.randint(0, W.dim) for _ in range(k - 1))
            dims = [b - a for a, b in zip([0] + cuts, cuts + [W.dim])]
            gens = W.basis or full
            parts = [_random_span(F, rng, gens, d) for d in dims]
            if rng.random() < 0.3 and parts[0].dim and parts[1].dim:
                # part 1 takes a vector of part 0, so the two meet
                shared = parts[1].basis[1:] + parts[0].basis[:1]
                parts[1] = Subspace.span(F, n, shared)
            if rng.random() < 0.2:
                parts[-1] = _random_span(F, rng, full, dims[-1])
            got = W.is_direct_sum(*parts)
            assert got == _direct_sum_by_intersections(W, parts)
            adds_up = sum(P.dim for P in parts) == W.dim
            outcomes[got, adds_up] += 1
    assert outcomes[True, True] and outcomes[False, True] and outcomes[False, False]


def test_reduce_and_free_positions():
    U = Subspace.span(F3, 3, [(1, 2, 0), (0, 0, 1)])
    assert U.reduce((1, 2, 1)) == (0, 0, 0)
    r = U.reduce((0, 1, 0))
    assert not all(F3.is_zero(c) for c in r)
    assert list(U.free_positions()) == [1]


# -------------------------------------------------------------------- solve

@given(gf3_matrix(3, 3), st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_solve_round_trip(rows, xs):
    rows = [tuple(r) for r in rows]
    b = mat_vec(F3, rows, tuple(xs))
    x = solve(F3, rows, b)
    assert mat_vec(F3, rows, x) == tuple(b)


@pytest.mark.parametrize("call", [
    lambda: Subspace.span(F3, 2, [(1, 0, 0)]),
    lambda: Subspace.span(F3, 2, [(1,)]),
    lambda: kernel(F3, []),
    lambda: solve(F3, [], ()),
], ids=["span-long", "span-short", "kernel-no-rows-no-width", "solve-no-rows"])
def test_shapes_that_cannot_be_read_are_refused(call):
    with pytest.raises(ShapeMismatch):
        call()


def test_solve_no_solution():
    rows = [(1, 0), (0, 0)]
    with pytest.raises(NoSolution):
        solve(F3, rows, (0, 1))


@pytest.mark.parametrize("b", [(1,), (1, 0, 2)], ids=["short", "long"])
def test_solve_refuses_a_right_hand_side_of_another_length(b):
    with pytest.raises(ShapeMismatch):
        solve(F3, [(1, 0), (0, 1)], b)


@pytest.mark.parametrize("v", [(1,), (1, 0, 2)], ids=["short", "long"])
def test_mat_vec_refuses_a_vector_of_another_width(v):
    with pytest.raises(ShapeMismatch):
        mat_vec(F3, [(1, 2), (0, 1)], v)


def test_mat_mul_refuses_an_empty_right_factor():
    # a 1 x 1 matrix needs a right factor with one row; a 1 x 0 one takes none
    with pytest.raises(ShapeMismatch):
        mat_mul(F3, [(1,)], [])
    assert mat_mul(F3, [()], []) == [[]]


RAGGED_CALLS = {
    "rref": lambda A: rref(F3, A),
    "kernel": lambda A: kernel(F3, A),
    "image": lambda A: image(F3, A),
    "solve": lambda A: solve(F3, A, (1,) * len(A)),
    "mat_mul-left": lambda A: mat_mul(F3, A, [(1, 0), (0, 1)]),
    "mat_mul-right": lambda A: mat_mul(F3, [(1, 0), (0, 1)], A),
    "mat_vec": lambda A: mat_vec(F3, A, (1, 1)),
}


@pytest.mark.parametrize("rows", [[(1, 0), (0, 1, 1)], [(1, 0, 0), (0, 1)],
                                  [(1, 0), ()], [(0, 0), (0,)]],
                         ids=["long-second", "short-second", "short-zero", "all-zero"])
@pytest.mark.parametrize("call", RAGGED_CALLS.values(), ids=RAGGED_CALLS.keys())
def test_ragged_matrices_are_refused(call, rows):
    """A matrix whose rows differ in length raises ShapeMismatch, whichever
    row is the odd one, also when it is a zero row, which ``rref`` drops;
    none is truncated, padded or read past its end."""
    with pytest.raises(ShapeMismatch):
        call(rows)


# ------------------------------------------------------------------- chains

def test_chain_of_a_fixed_start_is_the_start():
    U = Subspace.span(F3, 3, [(1, 2, 0)])
    assert chain(U, lambda W: W) == (U,)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_chain_cuts_a_cycle_after_2n_plus_4_steps(n):
    X, Y = Subspace.zero_space(F3, n), Subspace.full_space(F3, n)
    calls = 0

    def swap(W):
        nonlocal calls
        calls += 1
        if calls > 10 * n:
            raise AssertionError("chain has no step cap")
        return Y if W == X else X

    terms = chain(X, swap)
    assert len(terms) == 2 * n + 5
    assert terms[0::2] == (X,) * (n + 3) and terms[1::2] == (Y,) * (n + 2)


# ---------------------------------------------------------------- operators

def test_nilpotent_operator():
    N = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert is_nilpotent_operator(F3, N)
    assert not is_nilpotent_operator(F3, identity_matrix(F3, 3))
    assert is_nilpotent_operator(F3, [[0] * 3 for _ in range(3)])


def test_generalized_kernel():
    # block diag(nilpotent 2x2, invertible 1x1)
    A = [[0, 1, 0], [0, 0, 0], [0, 0, 2]]
    # the generalized kernel is the kernel of the Fitting power
    gk = kernel(F3, fitting_power(F3, A))
    assert gk.dim == 2
    assert gk.contains((1, 0, 0)) and gk.contains((0, 1, 0))
    assert kernel(F3, fitting_power(F3, identity_matrix(F3, 3))).dim == 0


def test_restrict_operator():
    A = [[0, 1, 0], [0, 0, 0], [0, 0, 2]]
    U = Subspace.span(F3, 3, [(1, 0, 0), (0, 1, 0)])
    R = restrict_operator(F3, A, U)
    assert R == [[0, 1], [0, 0]]
    # restriction to a non-invariant subspace must fail
    V = Subspace.span(F3, 3, [(0, 1, 1)])
    with pytest.raises(NoSolution):
        restrict_operator(F3, A, V)
