"""Slow reference arithmetic that the kernel tests compare against.

``dense_bracket`` is the definition of the bracket, the sum over every
pair of coordinates of u_i v_j [e_i, e_j], with no zero skipped.
``rank_contains`` decides membership by the dimension of a span, through
``rref`` and without ``Subspace.reduce``.  ``maximal_by_pairs`` is the
all-pairs definition of the maximal members of a family of subspaces.
``plain_power`` is the n-th power of an n x n matrix by n products.
``ext_product`` and ``first_irreducible`` are extension-field
multiplication and the choice of its modulus, on plain int lists.
``centre_by_products`` is the centre as the joint kernel of the left and
right multiplications by the basis; ``upper_central_by_quotients`` and
``centre_by_restriction`` build the upper central series and the centre
of a subalgebra in quotient and restricted algebras, the way the
definitions read.  ``ideal_part_split_by_sums``,
``nilradical_chain_by_sums`` and ``ideal_decomposition_by_sums`` decide
independence by intersecting with a running sum of ``add`` calls.
``kronecker_by_product`` draws Kronecker's candidates from the whole
product of signed divisors, testing each interpolant afterwards.
``dense_rref`` is reduced row echelon form that tests every entry with
``is_zero`` and scales and eliminates whole rows, zeros included;
``block_intersect`` is the meet of two spaces by the Zassenhaus block of
[u|u] and [w|0] rows, echeloned by ``dense_rref`` and spanned again.
"""

import itertools
import math
from fractions import Fraction

from leibnizalg.decompose import DecompositionFailed
from leibnizalg.linalg import Subspace, kernel
from leibnizalg.poly import Poly, _divisors


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
        rows += L.right_mult(e) + L.left_mult(e)
    return kernel(L.field, rows, ncols=L.dim)


def upper_central_by_quotients(L):
    """Z_0 = 0 and Z_{i+1} the span of Z_i and the lifted centre of
    L/Z_i, until the centre of the quotient is zero."""
    term = L.zero_space()
    terms = [term]
    for _ in range(L.dim + 1):
        Q, qmap = L.quotient(term)
        centre_q = centre_by_products(Q)
        if centre_q.dim == 0:
            break
        term = L.span(list(term.basis) + [qmap.lift(v) for v in centre_q.basis])
        terms.append(term)
    return tuple(terms)


def centre_by_restriction(L, U):
    """The centre of the subalgebra U, computed in the restricted algebra
    and embedded back."""
    S, emb = L.restrict(U)
    return emb.embed_space(centre_by_products(S))


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
    _, C = _sum_by_adds(L, decomp.parts[1:])
    for D in ideals:
        DB, DC = D.intersect(decomp.top), D.intersect(C)
        if DB.intersect(DC).dim != 0 or DB.add(DC) != D:
            return False, f"ideal of dim {D.dim} does not split"
    return True, ""


def nilradical_chain_by_sums(L, decomp, N):
    """(holds, detail) of the nilradical_chain_splitting clause."""
    pieces = [N.intersect(P) for P in decomp.parts]
    if pieces[0] != decomp.top:
        return False, "top part is not inside the nilradical"
    independent, total = _sum_by_adds(L, pieces)
    if not independent:
        return False, "slices are not independent"
    if total != N:
        return False, "nilradical is not the sum of its slices"
    for i, Pi in enumerate(pieces):
        for j, Pj in enumerate(pieces):
            if i != j and L.product(Pi, Pj).dim != 0:
                return False, f"slices {i} and {j} do not multiply to zero"
    return True, ""


def ideal_decomposition_by_sums(L, decomp, D):
    """The slices of D along the parts, or DecompositionFailed."""
    pieces = [D.intersect(P) for P in decomp.parts]
    independent, total = _sum_by_adds(L, pieces)
    if not independent:
        raise DecompositionFailed("ideal slices are not independent")
    if total != D:
        raise DecompositionFailed("ideal is not the sum of its part slices")
    return tuple(pieces)


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
