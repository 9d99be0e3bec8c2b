"""Slow reference arithmetic that the kernel tests compare against.

``dense_bracket`` is the definition of the bracket, the sum over every
pair of coordinates of u_i v_j [e_i, e_j], with no zero skipped.
``rank_contains`` decides membership by the dimension of a span, through
``rref`` and without ``Subspace.reduce``.  ``maximal_by_pairs`` is the
all-pairs definition of the maximal members of a family of subspaces.
"""

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
