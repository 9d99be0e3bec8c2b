"""Slow reference arithmetic that the kernel tests compare against.

``dense_bracket`` is the definition of the bracket, the sum over every
pair of coordinates of u_i v_j [e_i, e_j], with no zero skipped.
``rank_contains`` decides membership by the dimension of a span, through
``rref`` and without ``Subspace.reduce``.  ``maximal_by_pairs`` is the
all-pairs definition of the maximal members of a family of subspaces;
``maximal_members_by_containment`` is the lattice filter comparing each
member, largest first, with the kept ones by ``Subspace.contains_space``.
``plain_power`` is the n-th power of an n x n matrix by n products.
``ext_product`` and ``first_irreducible`` are extension-field
multiplication and the choice of its modulus, on plain int lists.
``centre_by_products`` is the centre as the joint kernel of the left and
right multiplications by the basis; ``upper_central_by_quotients`` and
``centre_by_restriction`` build the upper central series and the centre
of a subalgebra in quotient and restricted algebras, the way the
definitions read.  ``ideal_part_split_by_sums``,
``nilradical_chain_by_sums`` and ``ideal_chain_alignment_by_sums`` decide
independence by intersecting with a running sum of ``add`` calls.
``kronecker_by_product`` draws Kronecker's candidates from the whole
product of signed divisors, testing each interpolant afterwards.
``dense_rref`` is reduced row echelon form that tests every entry with
``is_zero`` and scales and eliminates whole rows, zeros included;
``block_intersect`` is the meet of two spaces by the Zassenhaus block of
[u|u] and [w|0] rows, echeloned by ``dense_rref`` and spanned again.
``closure_by_rounds`` is the subalgebra generated by some vectors, with
every pair of the current basis bracketed again in every round.
``violation_by_triples`` is the first basis triple that breaks the
Leibniz identity, with three brackets and one ``vec_sub`` per triple.
``leib_ideal_from_table`` is the span of the squares read straight off the
table entries, with no scalar checked.
``nilradical_by_sums``, ``radical_by_sums`` and ``frattini_by_sums`` are
the largest nilpotent ideal, the largest solvable ideal and the largest
ideal inside every maximal subalgebra, each as the span of all the
enumerated ideals with that property.  ``frattini_by_every_meet`` is the
largest enumerated ideal inside the meet of the maximal subalgebras,
formed with every meet, also after the running meet is zero.
``lemma_aa_by_decomposition`` is the lemma_aa certificate tested on the
bottom part of a triangular decomposition, the complement of L^2 that a
Cartan descent and a joint Fitting family find, refused where
that decomposition fails.
``fitting_family_by_matrices`` is the joint Fitting decomposition (null,
one) under a subalgebra C with the null chain built from the matrices of
right multiplication by the basis of C: each step is the kernel of the
stacked matrices whose columns are reduced mod the previous term.
``witness_search_without_engel_bound`` is the witness search taking the
closure of every candidate's generators, with none refused by
``aalgebra._engel_bounded``.  ``witness_search_by_scalar_draws`` and
``witness_candidates_by_scalar_draws`` are the witness search and its
candidate stream with each random vector drawn as the tuple of n
``random_scalar`` draws, not by the field's ``random_vector``.
``witness_candidates_by_every_operator`` and
``witness_search_by_every_operator`` are the witness search and its
candidate stream taking the closure of every single, u^2 = 0 or not, and
the Fitting null of every x, also where an earlier x had the same R_x.
``left_products_chain_by_every_pair`` is the left-products clause
building both chains for every pair (A, x) it counts.
``quotient_verdicts_by_quotients`` gives the A-verdict of L/I read off
the quotient algebra for every I, an ideal containing L^2 included.
``quotient_closure_by_quotients`` and ``intersection_quotient_by_pairs``
are the two quotient clauses on those verdicts, the second forming the
meet of every pair; ``ideal_centralizer_by_pairs`` is the centralizer
criterion comparing both sides, with the meet, for every pair.
``abelian_ideals_commute_by_centralizers`` and
``ideal_centralizer_by_centralizers`` are those two clauses deciding
[X, Y] = 0 = [Y, X] as ``L.centralizer(X).contains_space(Y)``, with one
centralizer per ideal.
``perturbed`` is an algebra's table with one seeded structure constant
changed, most often a table that breaks the Leibniz identity.
``cartan_by_phases`` is the Cartan descent in phases: every candidate of
the first phase with one acting non-nilpotently gets its Fitting null
space, computed in the restricted algebra, and the descent restricts to
the smallest (the first wins ties).  Its third phase draws
``_RANDOM_TRIES`` seeded random vectors.
``candidates_by_restriction`` is the Cartan descent's candidate stream
on a subalgebra K, drawn in the restricted algebra on K and embedded in
L.  ``triangular_by_restriction`` is the triangular decomposition by
recursion on the restricted algebra of each Fitting null component, with
every part embedded back.
``generator_polynomial_by_alphas`` and ``complement_by_alphas`` are a
cyclic algebra's generator polynomial p and complement vector b written
out from the negated alphas, without the cofactor q.
``random_invertible`` and ``change_basis`` rewrite an algebra in the
basis of the columns of a seeded random invertible matrix.
``identity_matrix``, ``left_mult``, ``lift``, ``poly_from_ints`` and
``x_power`` build the matrices, vectors and polynomials the tests state
their cases with, which the library itself never needs;
``structure_tables`` draws the random tables of the hypothesis tests.
"""

import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

from leibnizalg import aalgebra
from leibnizalg.core import LeibnizAlgebra, Violation
from leibnizalg.decompose import (DecompositionFailed, _fitting_null,
                                  _sums_differences, cartan_subalgebra,
                                  enumerated_cartan_subalgebras,
                                  fitting_family, triangular_decomposition)
from leibnizalg.enumeration import (DEFAULT_BUDGET, _largest_member,
                                    enumerate_spaces, maximal_subalgebras)
from leibnizalg.errors import NoSolution
from leibnizalg.fields import gf
from leibnizalg.linalg import (Subspace, chain, fitting_power, kernel,
                               restrict_operator, solve, vec_add, vec_sub)
from leibnizalg.poly import Poly, _divisors, poly
from leibnizalg.series import (derived_series, is_metabelian, is_nilpotent_space,
                               is_solvable, is_solvable_space,
                               lower_nilpotent_series)


def dense_bracket(L, u, v):
    F = L.field
    out = [F.zero] * L.dim
    for i in range(L.dim):
        for j in range(L.dim):
            c = F.mul(u[i], v[j])
            entry = L.table[i][j]
            for m in range(L.dim):
                out[m] = F.add(out[m], F.mul(c, entry[m]))
    return tuple(out)


def rank_contains(S, v):
    return S.add(Subspace.span(S.field, S.ambient, [v])).dim == S.dim


def unit_vectors(F, n):
    return [tuple(F.one if j == i else F.zero for j in range(n)) for i in range(n)]


def random_vector(F, n, rng):
    """A vector with about a third of its coordinates zero."""
    return tuple(F.zero if rng.random() < 1 / 3 else F.random_scalar(rng)
                 for _ in range(n))


def maximal_by_pairs(spaces):
    """The members that no other member strictly contains: every member is
    compared with every other, and containment is decided by rank."""
    return [S for S in spaces
            if not any(T.dim > S.dim and T.add(S).dim == T.dim for T in spaces)]


def maximal_members_by_containment(spaces, keep):
    """The members of a scan by ascending dimension passing ``keep`` that no
    other such member strictly contains, in scan order: each member, largest
    first, is reduced by every kept member of larger dimension."""
    kept = []
    for S in reversed(spaces):
        if not any(T.dim > S.dim and T.contains_space(S) for T in kept) and keep(S):
            kept.append(S)
    return tuple(reversed(kept))


def schoolbook_product(F, A, B):
    """The product of an l x m and an m x n matrix, entry by entry."""
    width = len(B[0]) if B else 0
    out = [[F.zero] * width for _ in A]
    for i in range(len(A)):
        for j in range(width):
            for m in range(len(B)):
                out[i][j] = F.add(out[i][j], F.mul(A[i][m], B[m][j]))
    return out


def dense_rref(field, rows):
    """(rows, pivots) of the reduced row echelon form, every entry of
    every row visited at every pivot."""
    work = [list(r) for r in rows]
    if not work:
        return [], ()
    n = len(work[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, len(work)):
            if not field.is_zero(work[i][c]):
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = field.inv(work[r][c])
        if inv != field.one:
            work[r] = [field.mul(inv, a) for a in work[r]]
        for i in range(len(work)):
            if i != r and not field.is_zero(work[i][c]):
                f = work[i][c]
                work[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], tuple(pivots)


def block_intersect(B, D):
    """B cap D: the right halves of the echelon rows of [u|u] (u in B)
    and [w|0] (w in D) whose left half is zero, spanned again."""
    F, n = B.field, B.ambient
    block = [tuple(u) + tuple(u) for u in B.basis]
    block += [tuple(w) + (F.zero,) * n for w in D.basis]
    rows, _ = dense_rref(F, block)
    meet = [r[n:] for r in rows if all(F.is_zero(a) for a in r[:n])]
    rows, pivots = dense_rref(F, meet)
    return Subspace(F, n, tuple(rows), pivots)


def closure_by_rounds(L, vectors):
    """Smallest subalgebra containing the given vectors."""
    S = L.span(vectors)
    while True:
        prods = [L.bracket(u, v) for u in S.basis for v in S.basis]
        new = [p for p in prods if not S.contains(p)]
        if not new:
            return S
        S = L.span(list(S.basis) + new)


def violation_by_triples(L):
    """First basis triple breaking [x,[y,z]] = [[x,y],z] - [[x,z],y]."""
    F = L.field
    n = L.dim
    basis = [L.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = L.bracket(basis[i], L.table[j][k])
                rhs = vec_sub(F,
                              L.bracket(L.table[i][j], basis[k]),
                              L.bracket(L.table[i][k], basis[j]))
                if lhs != rhs:
                    return Violation((i, j, k), lhs, rhs)
    return None


def leib_ideal_from_table(L):
    F, T, n = L.field, L.table, L.dim
    vecs = [T[i][i] for i in range(n)]
    vecs += [vec_add(F, T[i][j], T[j][i]) for i in range(n) for j in range(i + 1, n)]
    return L.span(vecs)


def plain_power(F, A):
    """A**n for an n x n matrix A: n schoolbook products, starting from
    the identity."""
    n = len(A)
    P = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    for _ in range(n):
        P = schoolbook_product(F, P, A)
    return P


def ext_product(a, b, p, modulus):
    """The product of two GF(p**k) elements in their int encoding (base-p
    digits, least significant first): a schoolbook product of the digit
    lists, then long division by the monic modulus, all on plain ints."""
    k = len(modulus) - 1
    da = [a // p ** i % p for i in range(k)]
    db = [b // p ** i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for i, m in enumerate(modulus):
            prod[top - k + i] = (prod[top - k + i] - c * m) % p
    return sum(d * p ** i for i, d in enumerate(prod[:k]))


def first_irreducible(p, k):
    """The first monic of degree k over GF(p), ascending-lex on its low
    coefficients, that is no product of two monics of positive degree:
    every such product is listed, on plain int tuples."""
    def monics(d):
        return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]

    reducible = set()
    for d in range(1, k // 2 + 1):
        for f in monics(d):
            for g in monics(k - d):
                prod = [0] * (k + 1)
                for i, x in enumerate(f):
                    for j, y in enumerate(g):
                        prod[i + j] = (prod[i + j] + x * y) % p
                reducible.add(tuple(prod))
    return next(f for f in monics(k) if f not in reducible)


def centre_by_products(L):
    """{x : [x, e_j] = 0 = [e_j, x] for every j}, as the kernel of the
    stacked right and left multiplication matrices of the basis."""
    rows = []
    for j in range(L.dim):
        e = L.basis_vector(j)
        rows += L.right_mult(e) + left_mult(L, e)
    return kernel(L.field, rows, ncols=L.dim)


def upper_central_by_quotients(L):
    """Z_0 = 0 and Z_{i+1} the span of Z_i and the lifted centre of
    L/Z_i, until the centre of the quotient is zero."""
    term = L.zero_space()
    terms = [term]
    for _ in range(L.dim + 1):
        centre_q = centre_by_products(L.quotient(term))
        if centre_q.dim == 0:
            break
        term = L.span(list(term.basis) + [lift(term, v) for v in centre_q.basis])
        terms.append(term)
    return tuple(terms)


def centre_by_restriction(L, U):
    """The centre of the subalgebra U, computed in the restricted algebra
    and embedded back."""
    return U.embed_space(centre_by_products(L.restrict(U)))


def _sum_by_adds(L, spaces):
    """(independent, sum): the sum of the spaces built by ``add``, and
    whether each one meets the sum of those before it in zero."""
    total = L.zero_space()
    independent = True
    for S in spaces:
        if total.intersect(S).dim != 0:
            independent = False
        total = total.add(S)
    return independent, total


def ideal_part_split_by_sums(L, decomp, ideals):
    """(holds, detail) of the ideal_part_split clause."""
    _, C = _sum_by_adds(L, decomp[1:])
    for D in ideals:
        DB, DC = D.intersect(decomp[0]), D.intersect(C)
        if DB.intersect(DC).dim != 0 or DB.add(DC) != D:
            return False, f"ideal of dim {D.dim} does not split"
    return True, ""


def nilradical_chain_by_sums(L, decomp, N):
    """(holds, detail) of the nilradical_chain_splitting clause."""
    pieces = [N.intersect(P) for P in decomp]
    if pieces[0] != decomp[0]:
        return False, "top part is not inside the nilradical"
    independent, total = _sum_by_adds(L, pieces)
    if not independent or total != N:
        return False, "nilradical is not the direct sum of its slices"
    for i, Pi in enumerate(pieces):
        for j, Pj in enumerate(pieces):
            if i != j and L.product(Pi, Pj).dim != 0:
                return False, f"slices {i} and {j} do not multiply to zero"
    return True, ""


def ideal_chain_alignment_by_sums(L, decomp, ideals):
    """(holds, detail) of the ideal_chain_alignment clause."""
    for D in ideals:
        independent, total = _sum_by_adds(L, [D.intersect(P) for P in decomp])
        if not independent or total != D:
            return False, f"ideal of dim {D.dim} does not align"
    return True, f"checked {len(ideals)} ideals"


def kronecker_by_product(f, d):
    """Kronecker's monic degree-d candidates for a factor of the monic f
    over Q: every tuple of signed divisors at the chosen points, in
    ``itertools.product`` order, keeping the integral interpolants whose
    values divide f's."""
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
    for targets in itertools.product(*signed):
        dd = list(targets)  # divided differences, one order at a time
        integral = True
        for k in range(1, d):
            for i in range(d - 1, k - 1, -1):
                dd[i], r = divmod(dd[i] - dd[i - 1], points[i] - points[i - k])
                integral = integral and not r
        if not integral:
            continue
        g = [1]
        for a, c in zip(reversed(points), reversed(dd)):
            g = ([c - a * g[0]] + [g[k - 1] - a * g[k] for k in range(1, len(g))]
                 + [g[-1]])
        at = (sum(c * a ** k for k, c in enumerate(g)) for a in values)
        if all(w and v % w == 0 for w, v in zip(at, values.values())):
            yield Poly(f.field, tuple(Fraction(c, s) for c, s in zip(g, scale)))


def nilradical_by_sums(L, budget):
    """The span of every nilpotent ideal."""
    return L.span([v for I in enumerate_spaces(L, "ideals", budget)
                   if is_nilpotent_space(L, I) for v in I.basis])


def radical_by_sums(L, budget):
    """The span of every solvable ideal."""
    return L.span([v for I in enumerate_spaces(L, "ideals", budget)
                   if is_solvable_space(L, I) for v in I.basis])


def frattini_by_sums(L, budget):
    """The span of every ideal inside all the maximal subalgebras."""
    maxes = maximal_subalgebras(L, budget)
    return L.span([v for I in enumerate_spaces(L, "ideals", budget)
                   if all(M.contains_space(I) for M in maxes) for v in I.basis])


def frattini_by_every_meet(L, budget):
    """The largest ideal inside the running meet of every maximal subalgebra."""
    maxes = maximal_subalgebras(L, budget)
    if not maxes:
        return L.zero_space()
    inter = maxes[0]
    for M in maxes[1:]:
        inter = inter.intersect(M)
    return _largest_member(enumerate_spaces(L, "ideals", budget), inter.contains_space)


def _invertible_on(L, x, space):
    try:
        R = restrict_operator(L.field, L.right_mult(x), space)
    except NoSolution:
        return False
    return kernel(L.field, R, ncols=space.dim).dim == 0


def lemma_aa_by_decomposition(L, budget):
    """(granted, reason) of the certificate on the complement of L^2 that
    the triangular decomposition's bottom part gives."""
    if not is_metabelian(L):
        return False, "algebra is not metabelian"
    der = L.derived_space()
    if der.dim == 0:
        return True, "abelian"
    try:
        decomp = triangular_decomposition(L, budget)
    except DecompositionFailed as exc:
        return False, f"no split over the derived subalgebra: {exc}"
    B = decomp[-1]
    F = L.field
    if B.dim == 1:
        ok = _invertible_on(L, B.basis[0], der)
        return ok, "" if ok else "right multiplication by the complement line degenerates"
    if F.is_finite and F.size ** B.dim <= budget:
        for coeffs in itertools.product(F.elements(), repeat=B.dim):
            if not any(coeffs):
                continue
            if not _invertible_on(L, B.embed(coeffs), der):
                return False, "some complement element degenerates on the derived subalgebra"
        return True, ""
    return False, "complement of dimension >= 2 over an unenumerable field"


def fitting_family_by_matrices(L, C):
    F, n = L.field, L.dim
    mats = [L.right_mult(c) for c in C.basis]

    def preimage(W):
        stacked = []
        for A in mats:
            cols = [W.reduce(tuple(row[j] for row in A)) for j in range(n)]
            stacked.extend(tuple(col[i] for col in cols) for i in range(n))
        return kernel(F, stacked, ncols=n)

    one = chain(L.full_space(), lambda T: L.product(T, C))[-1]
    null = chain(L.zero_space(), preimage)[-1]
    return null, one


def witness_search_without_engel_bound(L, seed):
    with mock.patch.object(aalgebra, "_engel_bounded", lambda L, gens: True):
        return aalgebra.witness_search(L, seed)


def _scalar_draws(F, rng, n):
    return tuple(F.random_scalar(rng) for _ in range(n))


def witness_search_by_scalar_draws(L, seed):
    with mock.patch.object(type(L.field), "random_vector", _scalar_draws):
        return aalgebra.witness_search(L, seed)


def witness_candidates_by_scalar_draws(L, seed):
    with mock.patch.object(type(L.field), "random_vector", _scalar_draws):
        return list(aalgebra._witness_candidates(L, seed))


def witness_candidates_by_every_operator(L, seed):
    F, n, full = L.field, L.dim, L.full_space()
    singles = _sums_differences(F, full.basis)
    for u in singles:
        if aalgebra._engel_bounded(L, [u]):
            yield L.closure([u])
    for x in singles[:2 * n]:
        null = _fitting_null(L, full, x)
        if null is not None:
            yield null
    yield from derived_series(L)[1:]
    yield from lower_nilpotent_series(L)[1:]
    rng = random.Random(seed)
    for _ in range(aalgebra._WITNESS_RANDOM_TRIES):
        u, v = F.random_vector(rng, n), F.random_vector(rng, n)
        if aalgebra._engel_bounded(L, [u, v]):
            yield L.closure([u, v])


def witness_search_by_every_operator(L, seed):
    seen = set()
    for U in witness_candidates_by_every_operator(L, seed):
        if U in seen:
            continue
        seen.add(U)
        if aalgebra.verify_witness(L, U):
            return U
    return None


def left_products_chain_by_every_pair(L, ideals):
    n = L.dim
    xs = _sums_differences(L.field, L._basis)
    abelian = [A for A in ideals if L.is_abelian_space(A) and A.dim > 0]
    tried = 0
    for A in abelian:
        for x in xs:
            if tried >= aalgebra._TRIPLE_CAP:
                break
            if not A.contains(L._bracket(x, x)):
                continue
            tried += 1
            left = A
            right = A
            for _ in range(1, n + 2):
                left = Subspace.span(L.field, n, [L._bracket(x, w) for w in left.basis])
                if not right.contains_space(left):
                    return False, "left product chain escapes the right chain"
                if left.is_zero():
                    break  # every later left term is zero as well
                right = Subspace.span(L.field, n, [L._bracket(w, x) for w in right.basis])
    return True, f"checked {tried} pairs"


def quotient_verdicts_by_quotients(L, budget, seed):
    """I -> the A-verdict of the quotient algebra L/I, each decided once."""
    return functools.cache(lambda I: aalgebra.is_a_algebra(L.quotient(I), budget, seed))


def quotient_closure_by_quotients(L, ideals, verdict):
    """(holds, detail) of the quotient_closure clause on ``verdict``."""
    with mock.patch.object(aalgebra, "_quotient_verdict",
                           lambda L, I, budget, seed: verdict(I)):
        return aalgebra._check_quotient_closure(L, ideals, None, None)


def intersection_quotient_by_pairs(L, ideals, verdict):
    """(holds, detail) of the intersection_quotient clause on ``verdict``."""
    good = [I for I in ideals[:aalgebra._PAIR_CAP] if I.dim < L.dim and verdict(I).is_true]
    for B, C in itertools.combinations(good, 2):
        D = B.intersect(C)
        if D.dim == L.dim:
            continue
        if verdict(D).is_false:
            return False, f"quotient by an intersection of dims {B.dim} cap {C.dim} fails"
    return True, ""


def ideal_centralizer_by_pairs(L, ideals):
    """(holds, detail) of the ideal_centralizer_criterion clause."""
    pool = ideals[:aalgebra._PAIR_CAP]
    cent = {D: L.centralizer(D) for D in pool}
    for B, D in itertools.combinations_with_replacement(pool, 2):
        lhs = cent[D].contains_space(B)
        I = B.intersect(D)
        rhs = cent[B].contains_space(I) and cent[D].contains_space(I)
        if lhs != rhs:
            return False, f"criterion fails for ideals of dims {B.dim}, {D.dim}"
    return True, ""


def abelian_ideals_commute_by_centralizers(L, ideals):
    """(holds, detail) of the abelian_ideals_commute clause, the first
    failing pair found by centralizer containment."""
    abelian = [I for I in ideals if L.is_abelian_space(I)]
    if L.is_abelian_space(L.span([v for I in abelian for v in I.basis])):
        return True, ""
    cent = {B: L.centralizer(B) for B in abelian}
    for B, C in itertools.combinations_with_replacement(abelian, 2):
        if not cent[B].contains_space(C):
            return False, f"abelian ideals of dims {B.dim}, {C.dim} do not commute"
    return True, ""


def ideal_centralizer_by_centralizers(L, ideals):
    """(holds, detail) of the ideal_centralizer_criterion clause, each side
    decided by centralizer containment, the meet formed only for a pair
    that does not centralize."""
    pool = ideals[:aalgebra._PAIR_CAP]
    cent = {D: L.centralizer(D) for D in pool}
    for B, D in itertools.combinations_with_replacement(pool, 2):
        if cent[D].contains_space(B):
            continue
        I = B.intersect(D)
        if cent[B].contains_space(I) and cent[D].contains_space(I):
            return False, f"criterion fails for ideals of dims {B.dim}, {D.dim}"
    return True, ""


_RANDOM_TRIES = 120


def _candidate_phases(K, rng, budget):
    F, m = K.field, K.dim
    yield [K.basis_vector(i) for i in range(m)]
    pairs = [vec_add(F, K.basis_vector(i), K.basis_vector(j))
             for i in range(m) for j in range(i + 1, m)]
    if pairs:
        yield pairs
    randoms = []
    for _ in range(_RANDOM_TRIES):
        v = tuple(F.random_scalar(rng) for _ in range(m))
        if any(v):
            randoms.append(v)
    if randoms:
        yield randoms
    if F.is_finite and F.size ** m <= budget:
        sweep = [v for v in itertools.product(F.elements(), repeat=m) if any(v)]
        yield sweep


def _fitting_null_local(K, x):
    power = fitting_power(K.field, K.right_mult(x))
    return kernel(K.field, power) if any(map(any, power)) else None


def _descend_step(K, rng, budget):
    for phase in _candidate_phases(K, rng, budget):
        nulls = [N for N in (_fitting_null_local(K, x) for x in phase) if N is not None]
        if nulls:
            return min(nulls, key=lambda N: N.dim)
    return None


def cartan_by_phases(L, seed=0, budget=DEFAULT_BUDGET):
    """A Cartan subalgebra by the phased descent, verified as
    ``cartan_subalgebra`` verifies, with the same enumerated fallback."""
    rng = random.Random(seed)
    K = L.full_space()
    while K.dim:
        null_local = _descend_step(L.restrict(K), rng, budget)
        if null_local is None:
            break
        K = K.embed_space(null_local)
    result = None
    if K.dim == 0 and L.dim == 0:
        result = K
    elif K.dim and is_nilpotent_space(L, K) and L.normalizer(K) == K:
        result = K
    if result is None and L.field.is_finite:
        cartans = enumerated_cartan_subalgebras(L, budget)
        if cartans:
            result = cartans[0]
    if result is None:
        raise DecompositionFailed(
            "no nilpotent self-normalizing subalgebra found")
    return result


def candidates_by_restriction(L, K, budget):
    Kalg = L.restrict(K)
    F, m = Kalg.field, Kalg.dim
    local = [Kalg.basis_vector(i) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            u, v = Kalg.basis_vector(i), Kalg.basis_vector(j)
            local += [vec_add(F, u, v), vec_sub(F, u, v)]
    if F.is_finite and F.size ** m <= budget:
        local += itertools.product(F.elements(), repeat=m)
    return [K.embed(w) for w in local]


def _triangular_parts(L, budget):
    if not is_solvable(L):
        raise DecompositionFailed("triangular decomposition needs a solvable algebra")
    ds = derived_series(L)
    d = len(ds) - 1
    if d <= 1:
        return [L.full_space()]
    top = ds[d - 1]
    M = ds[d - 2]
    C = M.embed_space(cartan_subalgebra(L.restrict(M), budget))
    B, one = fitting_family(L, C)
    if not top.contains_space(one):
        raise DecompositionFailed(
            "iterated product component escapes the last derived term")
    if not L.full_space().is_direct_sum(B, top):
        raise DecompositionFailed(
            "Fitting null component does not complement the last derived term")
    sub = _triangular_parts(L.restrict(B), budget)
    return [top] + [B.embed_space(P) for P in sub]


def triangular_by_restriction(L, budget=DEFAULT_BUDGET):
    """The parts of the recursive construction, checked as
    ``triangular_decomposition`` checks them."""
    parts = _triangular_parts(L, budget)
    for idx, P in enumerate(parts):
        if not L.is_abelian_space(P):
            raise DecompositionFailed(f"part {idx} is not abelian")
    if not L.full_space().is_direct_sum(*parts):
        raise DecompositionFailed("algebra is not the direct sum of the parts")
    ds = derived_series(L)
    partials = list(itertools.accumulate(parts, Subspace.add))
    for i, partial in enumerate(reversed(partials)):
        expected = ds[i] if i < len(ds) else L.zero_space()
        if partial != expected:
            raise DecompositionFailed(
                f"partial sum of parts does not match derived term {i}")
    return tuple(parts)


def generator_polynomial_by_alphas(spec):
    """p = x^n - alpha_n x^{n-1} - ... - alpha_2 x."""
    F = spec.field
    return poly(F, [F.zero] + [F.neg(a) for a in spec.alphas] + [F.one])


def complement_by_alphas(spec):
    """b = a^n - alpha_n a^{n-1} - ... - alpha_2 a, coordinate by coordinate."""
    F, n = spec.field, spec.dim
    coords = [F.zero] * n
    coords[n - 1] = F.one
    for k in range(2, n + 1):
        coords[k - 2] = F.sub(coords[k - 2], spec.alphas[k - 2])
    return tuple(coords)


def perturbed(L, rng):
    """L's table with one seeded structure constant changed by a nonzero
    scalar, which is most often a table that breaks the identity only at
    some later triple."""
    F = L.field
    table = [[list(entry) for entry in row] for row in L.table]
    i, j, m = (rng.randrange(L.dim) for _ in range(3))
    c = F.zero
    while not c:
        c = F.random_scalar(rng)
    table[i][j][m] = F.add(table[i][j][m], c)
    return LeibnizAlgebra(F, table)


def random_invertible(F, n, rng):
    while True:
        P = [[F.random_scalar(rng) for _ in range(n)] for _ in range(n)]
        if kernel(F, P, ncols=n).dim == 0:
            return P


def change_basis(L, P):
    """L in the basis of the columns of P."""
    F, n = L.field, L.dim
    cols = [tuple(row[i] for row in P) for i in range(n)]
    table = [[solve(F, P, L.bracket(u, v)) for v in cols] for u in cols]
    return LeibnizAlgebra(F, table, L.names)


def identity_matrix(field, n):
    one, zero = field.one, field.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def left_mult(L, x):
    """Matrix of u -> [x, u] on column vectors."""
    cols = [L.bracket(x, L.basis_vector(j)) for j in range(L.dim)]
    return [[cols[j][i] for j in range(L.dim)] for i in range(L.dim)]


def lift(ideal, w):
    """The vector of L with coordinates w in L/ideal at the free positions
    of ``ideal`` and zero elsewhere."""
    field = ideal.field
    v = [field.zero] * ideal.ambient
    for j, c in zip(ideal.free_positions(), w):
        v[j] = c
    return tuple(v)


def poly_from_ints(field, ints):
    return poly(field, [field.from_int(m) for m in ints])


def x_power(field, e):
    return Poly(field, (field.zero,) * e + (field.one,))


@st.composite
def structure_tables(draw, max_dims):
    """Random structure constants over GF(q) in dimension n <= max_dims[q],
    Leibniz or not: the pruning uses only bilinearity."""
    q = draw(st.sampled_from(sorted(max_dims)))
    n = draw(st.integers(1, max_dims[q]))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    table = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=n, max_size=n))
    return LeibnizAlgebra(gf(q), table)
