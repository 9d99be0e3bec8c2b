"""One-generator Leibniz algebras and their classification.

The algebra on basis a, a^2, ..., a^n with [a^i, a] = a^{i+1} for i < n,
[a^n, a] = sum alpha_k a^k, and all right products by a^j (j >= 2) zero
satisfies the Leibniz identity for every choice of the alphas.  Right
multiplication by the generator is the companion matrix of

    p(x) = x^n - alpha_n x^{n-1} - ... - alpha_2 x,

and the structure of the algebra is controlled by how p factors.  The
algebra is an A-algebra iff alpha_2 is nonzero.  Writing p = x * q, the
derived subalgebra is a cyclic module isomorphic to F[x]/(q), so the
minimal ideals correspond to the distinct irreducible factors of q: the
algebra is monolithic iff q is a power of one irreducible, and it is
Frattini-free iff q is squarefree and not divisible by x.  When alpha_2
is nonzero this reduces to the usual statement that p has exactly two
distinct irreducible factors, one of them x.
"""

from __future__ import annotations

from .aalgebra import ClauseResult, is_a_algebra
from .core import LeibnizAlgebra
from .enumeration import (DEFAULT_BUDGET, frattini_ideal, is_enumerable,
                          socle_analysis)
from .errors import BadSpec
from .poly import Poly, companion_matrix, poly, poly_factor
from .series import is_nilpotent
from .value import Value


class CyclicSpec(Value):
    """Structure data: alphas = (alpha_2, ..., alpha_n) as field scalars."""
    _fields = ("field", "alphas")

    def __post_init__(self):
        if len(self.alphas) < 1:
            raise BadSpec("a cyclic algebra needs dimension at least 2")

    @property
    def dim(self) -> int:
        return len(self.alphas) + 1


def build_cyclic(field, alphas) -> LeibnizAlgebra:
    spec = CyclicSpec(field, tuple(alphas))
    F, n = field, spec.dim
    zero_row = tuple(F.zero for _ in range(n))
    table = []
    for i in range(n):
        if i < n - 1:
            first = tuple(F.one if m == i + 1 else F.zero for m in range(n))
        else:
            first = tuple(F.zero if m == 0 else spec.alphas[m - 1]
                          for m in range(n))
        table.append(tuple([first] + [zero_row] * (n - 1)))
    names = ["a"] + [f"a^{k}" for k in range(2, n + 1)]
    return LeibnizAlgebra(F, tuple(table), tuple(names))


def generator_polynomial(spec: CyclicSpec) -> Poly:
    """p = x * q: the cofactor's coefficients shifted up one degree."""
    return Poly(spec.field, (spec.field.zero,) + generator_cofactor(spec).coeffs)


def generator_cofactor(spec: CyclicSpec) -> Poly:
    """q with p = x * q; the derived subalgebra is F[x]/(q) as a module
    under right multiplication by the generator."""
    F = spec.field
    return poly(F, [F.neg(a) for a in spec.alphas] + [F.one])


def complement_vector(spec: CyclicSpec):
    """b = a^n - alpha_n a^{n-1} - ... - alpha_2 a, the canonical
    complement generator; [b, a] = 0 and b^2 = 0.  Its coordinates on
    a, ..., a^n are the coefficients of the monic cofactor q."""
    return generator_cofactor(spec).coeffs


class CyclicReport(Value):
    """``factors`` are the cofactor's: ((irreducible Poly, multiplicity), ...)."""
    _fields = ("spec", "algebra", "polynomial", "cofactor", "is_a", "nilpotent",
               "complement", "factors", "monolithic_claim", "frattini_free_claim",
               "normalization_scalar", "checks")

    @property
    def ok(self) -> bool:
        return all(not c.failed for c in self.checks)


def classify_cyclic(field, alphas, budget: int = DEFAULT_BUDGET,
                    seed: int = 0) -> CyclicReport:
    """Build the algebra, derive its classification data from the
    generator polynomial, and cross-check every claim that the rest of
    the library can verify independently."""
    spec = CyclicSpec(field, tuple(alphas))
    F, n = field, spec.dim
    L = build_cyclic(F, spec.alphas)
    L.require_leibniz()
    p = generator_polynomial(spec)
    alpha2 = spec.alphas[0]
    is_a = bool(alpha2)
    nilpotent_claim = all(not a for a in spec.alphas)
    b = complement_vector(spec)
    checks = []

    T = L.right_mult(L.basis_vector(0))
    ok = T == companion_matrix(p)
    checks.append(ClauseResult("companion_match", True, ok,
                               "" if ok else "right multiplication is not the companion matrix"))

    ok = not any(L._bracket(b, L.basis_vector(0))) and not any(L._bracket(b, b))
    checks.append(ClauseResult("complement_kernel", True, ok,
                               "" if ok else "complement is not killed by the generator"))

    der = L.derived_space()
    Fb = L.span([b])
    split = L.full_space().is_direct_sum(der, Fb)
    ok = split == is_a
    checks.append(ClauseResult("derived_complement_split", True, ok,
                               f"split {split} vs alpha_2 nonzero {is_a}"))

    reproduced = L.product(der, Fb) == der
    ok = reproduced == is_a
    checks.append(ClauseResult("derived_reproduction", True, ok,
                               f"[L^2, b] = L^2 is {reproduced}"))

    ok = is_nilpotent(L) == nilpotent_claim
    checks.append(ClauseResult("nilpotent_iff_zero_alphas", True, ok,
                               "" if ok else "nilpotency disagrees with the alphas"))

    q = generator_cofactor(spec)
    factors = poly_factor(q)[1]
    monolithic_claim = len(factors) == 1
    frattini_free_claim = is_a and all(mult == 1 for _, mult in factors)

    normalization_scalar = None
    if n == 2 and is_a:
        mu = F.inv(alpha2)
        u = tuple([mu] + [F.zero] * (n - 1))
        usq = L._bracket(u, u)
        ok = L._bracket(usq, u) == usq
        checks.append(ClauseResult("normalized_generator", True, ok,
                                   "" if ok else "rescaled generator does not satisfy [a^2, a] = a^2"))
        normalization_scalar = mu

    if is_enumerable(L, budget):
        soc = socle_analysis(L, budget)
        ok = soc.monolithic == monolithic_claim
        checks.append(ClauseResult("socle_cross_check", True, ok,
                                   f"enumerated monolithic {soc.monolithic} vs claim {monolithic_claim}"))
        if monolithic_claim and soc.monolithic:
            ok = soc.monolith.dim == factors[0][0].degree
            checks.append(ClauseResult("monolith_dimension", True, ok,
                                       f"monolith dim {soc.monolith.dim} vs factor degree {factors[0][0].degree}"))
        phi = frattini_ideal(L, budget)
        ok = (phi.dim == 0) == frattini_free_claim
        checks.append(ClauseResult("frattini_cross_check", True, ok,
                                   f"frattini dim {phi.dim} vs claim {frattini_free_claim}"))
        verdict = is_a_algebra(L, budget, seed)
        ok = verdict.value == is_a
        checks.append(ClauseResult("verdict_cross_check", True, ok,
                                   f"verdict {verdict.label} vs alpha_2 criterion {is_a}"))

    return CyclicReport(spec, L, p, q, is_a, nilpotent_claim, b,
                        tuple(factors), monolithic_claim, frattini_free_claim,
                        normalization_scalar, tuple(checks))
