"""The memo rule: every result is a function of (algebra, arguments).

A memoised call is keyed by every argument, budget and seed included, so
what was computed on an algebra before cannot change a later answer.
"""

import random

import pytest

from leibnizalg.aalgebra import theorem_battery
from leibnizalg.core import LeibnizAlgebra
from leibnizalg.corpus import fixture
from leibnizalg.decompose import max_nilpotent_subalgebras
from leibnizalg.enumeration import enumerate_spaces, total_subspaces
from leibnizalg.errors import BudgetExceeded, LeibnizError
from leibnizalg.fields import gf
from leibnizalg.series import nilradical, radical

PURITY_SAMPLE = 12
PURITY_SUBSPACE_CAP = 300
PURITY_SEED = 5


def _copy(L):
    return LeibnizAlgebra(L.field, L.table, L.names)


def _outcome(call):
    try:
        return "ok", call()
    except LeibnizError as exc:
        return "raised", type(exc).__name__, str(exc)


def _results(L, budget):
    return (_outcome(lambda: nilradical(L, budget)),
            _outcome(lambda: radical(L, budget)[1]),
            _outcome(lambda: theorem_battery(L, budget=budget)))


def _purity_cases(members):
    small = [m for m in members
             if m.algebra.field.is_finite
             and total_subspaces(m.algebra.dim, m.algebra.field.size)
             <= PURITY_SUBSPACE_CAP]
    picked = random.Random(PURITY_SEED).sample(small, PURITY_SAMPLE)
    return [fixture("C3b", gf(3))] + [m.algebra for m in picked]


def test_fresh_and_warmed_objects_agree(members):
    for L in _purity_cases(members):
        warmed = _copy(L)
        theorem_battery(warmed, budget=10 ** 6)
        nilradical(warmed, 10 ** 6)
        for budget in (10, 100, total_subspaces(L.dim, L.field.size)):
            assert _results(warmed, budget) == _results(_copy(L), budget), \
                (str(L), budget)


def test_budget_gate_runs_after_a_scan():
    L = fixture("C3b", gf(3))
    enumerate_spaces(L, "ideals", 10 ** 6)
    with pytest.raises(BudgetExceeded):
        enumerate_spaces(L, "ideals", 10)


def test_a_raising_call_is_not_memoised():
    L = fixture("C3b", gf(3))
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as info:
            max_nilpotent_subalgebras(L, 10)
        assert (info.value.needed, info.value.budget) == (28, 10)
        assert ("max_nilpotent_subalgebras", 10) not in L._cache
