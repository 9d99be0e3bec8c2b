"""A reproducible test corpus of small algebras over several fields.

The corpus is built deterministically from named fixtures, sweeps of the
one-generator family, pairwise direct sums of the fixtures, and
quotients of small finite-field members by their enumerated ideals,
deduplicated by the exact structure-constant table.  Every caller sees
the same members in the same order.
"""

from __future__ import annotations

import itertools

from .core import LeibnizAlgebra, direct_sum
from .cyclic import build_cyclic
from .enumeration import enumerate_spaces, is_enumerable
from .fields import QQ, gf
from .value import Value

FIELDS = (QQ, gf(2), gf(3), gf(4), gf(9))
CYCLIC_SWEEP_FIELDS = (gf(2), gf(3))
CYCLIC_SWEEP_DIMS = (2, 3, 4, 5)
QUOTIENT_SUBSPACE_CAP = 10 ** 4


def _table(F, n, entries):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = [F.zero] * n
            for k, c in entries.get((i, j), {}).items():
                coeffs[k] = F.from_int(c)
            row.append(tuple(coeffs))
        rows.append(tuple(row))
    return tuple(rows)


def fixture(name: str, F) -> LeibnizAlgebra:
    if name == "A2":
        return LeibnizAlgebra(F, _table(F, 2, {}), ("e1", "e2"))
    if name == "r2":
        entries = {(0, 1): {0: 1}, (1, 0): {0: -1}}
        return LeibnizAlgebra(F, _table(F, 2, entries), ("e1", "e2"))
    if name == "H3":
        entries = {(0, 1): {2: 1}, (1, 0): {2: -1}}
        return LeibnizAlgebra(F, _table(F, 3, entries), ("x", "y", "z"))
    if name == "sl2":
        entries = {(0, 1): {2: 1}, (1, 0): {2: -1},
                   (2, 0): {0: 2}, (0, 2): {0: -2},
                   (2, 1): {1: -2}, (1, 2): {1: 2}}
        return LeibnizAlgebra(F, _table(F, 3, entries), ("e", "f", "h"))
    if name == "C2":
        return build_cyclic(F, [F.one])
    if name == "C3a":
        return build_cyclic(F, [F.zero, F.one])
    if name == "C3b":
        return build_cyclic(F, [F.one, F.zero])
    raise KeyError(f"unknown fixture {name!r}")


FIXTURE_NAMES = ("A2", "r2", "H3", "sl2", "C2", "C3a", "C3b")


class CorpusMember(Value):
    _fields = ("label", "kind", "algebra")  # kind: fixture | cyclic | sum | quotient


_CORPUS_CACHE = {}


def corpus(with_quotients: bool = True):
    """The full corpus as a tuple of labeled members, deduplicated by
    structure-constant table."""
    if with_quotients in _CORPUS_CACHE:
        return _CORPUS_CACHE[with_quotients]
    members = []
    seen = set()

    def push(label, kind, L):
        tk = L.table_key()
        if tk in seen:
            return
        seen.add(tk)
        members.append(CorpusMember(label, kind, L))

    for F in FIELDS:
        for name in FIXTURE_NAMES:
            push(f"{name}/{F}", "fixture", fixture(name, F))
    for F in CYCLIC_SWEEP_FIELDS:
        for n in CYCLIC_SWEEP_DIMS:
            for alphas in itertools.product(F.elements(), repeat=n - 1):
                label = f"cyclic{list(alphas)}/{F}"
                push(label, "cyclic", build_cyclic(F, alphas))
    for F in FIELDS:
        for a, b in itertools.combinations_with_replacement(FIXTURE_NAMES, 2):
            L = direct_sum(fixture(a, F), fixture(b, F))
            push(f"sum({a},{b})/{F}", "sum", L)
    if with_quotients:
        for member in list(members):
            L = member.algebra
            if not is_enumerable(L, QUOTIENT_SUBSPACE_CAP):
                continue
            for idx, I in enumerate(enumerate_spaces(L, "ideals", QUOTIENT_SUBSPACE_CAP)):
                if I.dim == 0 or I.dim == L.dim:
                    continue
                push(f"quot({member.label},{idx})", "quotient", L.quotient(I))
    result = tuple(members)
    _CORPUS_CACHE[with_quotients] = result
    return result
