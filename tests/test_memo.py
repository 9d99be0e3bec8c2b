"""The memo rule: every result is a function of (algebra, arguments).

A memoised call is keyed by every argument, budget and seed included, so
what was computed on an algebra before cannot change a later answer.
What a report reads once is not memoised, and it is computed once.
The products the package forms are memoised on the algebra too, and the
public ``bracket`` keeps no memo, so its answers do not depend on which
brackets were asked before.
"""

import random
import sys
from collections import Counter

import pytest

from leibnizalg import decompose, enumeration, series
from leibnizalg.aalgebra import structure_report, theorem_battery
from leibnizalg.core import LeibnizAlgebra
from leibnizalg.corpus import fixture
from leibnizalg.decompose import max_nilpotent_subalgebras
from leibnizalg.enumeration import enumerate_spaces, total_subspaces
from leibnizalg.errors import BudgetExceeded, LeibnizError
from leibnizalg.fields import QQ, gf
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


def _bracket_outcome(L, u, v):
    try:
        return "ok", L.bracket(u, v)
    except Exception as exc:  # the failure itself is compared
        return "raised", type(exc).__name__, str(exc)


def test_public_bracket_answers_do_not_depend_on_call_history():
    """Over Q the float 2.0 equals and hashes like the int 2, so a memo in
    the public bracket would answer ``(2.0, 1)`` from a stored ``(2, 1)``;
    it fails in the same way on a fresh algebra and on a warm one."""
    e2 = (0, 1)
    warm = fixture("r2", QQ)
    warm.bracket((2, 1), e2)
    warm._bracket((2, 1), e2)
    warm.closure([(2, 1), e2])
    outcomes = []
    for L in (fixture("r2", QQ), warm):
        assert L.bracket([2, 1], [0, 1]) == L.bracket((2, 1), e2) == (2, 0)
        assert type(L.bracket([2, 1], [0, 1])) is tuple
        outcomes.append(_bracket_outcome(L, (2.0, 1), e2))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == ("raised", "AttributeError")


def test_product_memo_belongs_to_one_algebra():
    """An algebra built from another's table starts with an empty product
    memo: no product is shared between algebras or kept process-wide."""
    L = fixture("H3", gf(3))
    theorem_battery(L, budget=10 ** 6)
    assert L._products
    copy = _copy(L)
    assert copy._products == {}
    assert theorem_battery(copy, budget=10 ** 6) == theorem_battery(L, budget=10 ** 6)
    assert copy._products == L._products and copy._products is not L._products


READ_ONCE = (series.nilradical, series.radical, decompose.cartan_subalgebra,
             decompose.triangular_decomposition, enumeration.maximal_subalgebras)
# (corpus label, budget): enumerable, past the budget, and over Q
REPORT_CASES = (("r2/GF(3)", 10 ** 6), ("C3b/GF(3)", 10 ** 6),
                ("sum(r2,sl2)/GF(3)", 10 ** 6), ("sum(r2,C3b)/GF(3)", 100),
                ("sum(H3,C3a)/GF(2)", 100), ("sum(r2,C3b)/Q", 10 ** 6))


def _count_calls(monkeypatch):
    """Wrap the read-once functions wherever the package binds them; the
    counter is keyed by (function, algebra), the algebras kept alive."""
    calls, seen = Counter(), []
    for fn in READ_ONCE:
        def counted(L, *args, fn=fn, **kwargs):
            seen.append(L)
            calls[fn.__name__, id(L)] += 1
            return fn(L, *args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.startswith("leibnizalg") and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("report", [
    lambda L, budget: theorem_battery(L, budget=budget),
    lambda L, budget: structure_report(L, budget),
], ids=["theorem_battery", "structure_report"])
def test_reports_compute_each_unmemoised_structure_once(members, monkeypatch, report):
    by_label = {m.label: m.algebra for m in members}
    calls, called = _count_calls(monkeypatch), set()
    for label, budget in REPORT_CASES:
        calls.clear()
        report(_copy(by_label[label]), budget)
        assert max(calls.values()) == 1, (label, calls)
        called.update(name for name, _ in calls)
    assert called == {"nilradical", "cartan_subalgebra", "triangular_decomposition"}
