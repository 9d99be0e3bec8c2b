"""Slow reference arithmetic that the kernel tests compare against.

``dense_bracket`` is the definition of the bracket, the sum over every
pair of coordinates of u_i v_j [e_i, e_j], with no zero skipped.
``rank_contains`` decides membership by the dimension of a span, through
``rref`` and without ``Subspace.reduce``.  ``maximal_by_pairs`` is the
all-pairs definition of the maximal members of a family of subspaces.
``plain_power`` is the n-th power of an n x n matrix by n products.
``ext_product`` and ``first_irreducible`` are extension-field
multiplication and the choice of its modulus, on plain int lists.
"""

import itertools

from leibnizalg.linalg import Subspace


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
    """The product of two square matrices of one size, entry by entry."""
    n = len(A)
    out = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for m in range(n):
                out[i][j] = F.add(out[i][j], F.mul(A[i][m], B[m][j]))
    return out


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
