"""Tests of the benchmark's own machinery.

    python3 -m pytest benchmark/tests -q
"""

import inspect
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from leibnizalg import LeibnizAlgebra, fixture, gf  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    # Operation 0: root [0, 10] has children a [1, 4] and b [5, 9]; b has
    # children c [6, 7] and a [7.5, 8].  Operation 1: a lone a [20, 21].
    names = ["root", "a", "b", "c"]
    name_id = [0, 1, 2, 3, 1, 1]
    start = [0.0, 1.0, 5.0, 6.0, 7.5, 20.0]
    end = [10.0, 4.0, 9.0, 7.0, 8.0, 21.0]
    parent = [-1, 0, 0, 2, 2, -1]
    op = [0, 0, 0, 0, 0, 1]
    self_s, calls = tracer.self_times(names, name_id, start, end, parent, op)
    assert self_s == pytest.approx({(0, "root"): 3.0, (0, "a"): 3.5, (0, "b"): 2.5,
                                    (0, "c"): 1.0, (1, "a"): 1.0})
    assert calls == {(0, "root"): 1, (0, "a"): 2, (0, "b"): 1, (0, "c"): 1, (1, "a"): 1}
    assert sum(v for (o, _), v in self_s.items() if o == 0) == pytest.approx(10.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(10) is None
    for n in (11, 20, 22, 64, 100, 101, 1000):
        p = metrics.tail_percentile(n)
        rank = -(-p * n // 100)
        assert n - rank >= 10
        higher = -(-(p + 1) * n // 100)
        assert p == 99 or n - higher < 10
    assert metrics.tail_percentile(20) == 50
    assert metrics.tail_percentile(100) == 90
    values = list(range(1, 101))
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 50) == 50



def test_times_are_scaled_by_the_host_speed_around_and_during_them():
    meter = hostspeed.Meter()
    # Blocks at [0, 1] and [5, 6]; ticks inside the span [1.5, 4.5] and
    # one after the second block.  The third field is seconds per unit.
    meter.blocks = [(0.0, 1.0, 0.001), (5.0, 6.0, 0.003)]
    meter.ticks = [(2.0, 2.5, 0.002), (3.0, 3.5, 0.004), (7.0, 7.1, 9.0)]
    busy, unit = meter.reading(1.5, 4.5)
    assert busy == pytest.approx(1.0)
    assert unit == pytest.approx((0.001 + 0.002 + 0.004 + 0.003) / 4)
    # A short span with no tick is scaled by the blocks at its ends; a
    # tick that starts before the span counts only with its overlap.
    assert meter.reading(1.2, 1.4) == pytest.approx((0.0, 0.002))
    assert meter.reading(2.25, 4.0)[0] == pytest.approx(0.75)
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(0.5, ref) == pytest.approx(0.5)
    # Measured while the host ran at half speed: half the time.
    assert hostspeed.scale(0.5, 2 * ref) == pytest.approx(0.25)


def test_meter_ticks_only_inside_its_block():
    meter = hostspeed.Meter()
    with meter.ticking():
        end = time.perf_counter() + 4 * hostspeed.TICK_S
        while time.perf_counter() < end:
            pass
    n = len(meter.ticks)
    assert n >= 2
    time.sleep(2 * hostspeed.TICK_S)
    assert len(meter.ticks) == n


def _battery_op(name, q):
    L = fixture(name, gf(q))
    return W.Op(W.battery_item("test", L), 0)


def _reference_for(op, outcome):
    return {op.key: {"code": outcome.code, "digest": outcome.digest,
                     "exact": W.exact_view(op.item.kind, outcome.doc)}}


def test_reference_check_flags_a_corrupted_result(tmp_path):
    runner = W.Runner(BENCH.parent, tmp_path)
    op = _battery_op("C3a", 3)
    outcome = runner.run(op)
    reference = _reference_for(op, outcome)
    assert outcome.doc["verdict"] == "false"
    assert W.check(op, outcome, reference) == (False, True)

    corrupted = W.Outcome(outcome.seconds, outcome.code,
                          dict(outcome.doc, witness=[[1, 0, 0]]), "other")
    assert W.check(op, corrupted, reference) == (True, False)
    flipped = W.Outcome(outcome.seconds, outcome.code,
                        dict(outcome.doc, verdict="true", witness=None), "other")
    assert W.check(op, flipped, reference)[0]
    raised = W.Outcome(outcome.seconds, "raised", {"error": "boom"}, "other")
    assert W.check(op, raised, reference)[0]
    hard = W.Outcome(outcome.seconds, outcome.code,
                     dict(outcome.doc, hard_failures=["x"]), "other")
    assert W.check(op, hard, reference)[0]
    # A change in wording only is not a failure, but is not byte-identical.
    reworded = W.Outcome(outcome.seconds, outcome.code,
                         dict(outcome.doc, reasons=["new wording"]), "other")
    assert W.check(op, reworded, reference) == (False, False)


def test_unknown_in_the_reference_may_become_exact():
    op = W.Op(W.Item("battery:x", "battery", "test", (), {}), 0)
    reference = {op.key: {"code": 0, "digest": "d", "exact": {}}}
    decided = W.Outcome(0.1, 0, {"verdict": "true", "witness": None, "hard_failures": []}, "e")
    assert W.check(op, decided, reference) == (False, False)


def _bindings():
    """Every function bound in a leibnizalg namespace, module-level dict or
    traced class, by identity."""
    out = {}
    for mod in tracer.package_modules():
        for name, value in vars(mod).items():
            if inspect.isfunction(value):
                out[(mod.__name__, name)] = value
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, entry in value.items():
                    if inspect.isfunction(entry):
                        out[(mod.__name__, name, key)] = entry
    for short, cls_name in tracer.TRACED_CLASSES:
        cls = getattr(sys.modules["leibnizalg." + short], cls_name)
        for name, value in vars(cls).items():
            out[(cls_name, name)] = value
    for cls_name in tracer.FIELD_CLASSES:
        cls = getattr(sys.modules["leibnizalg.fields"], cls_name)
        for name in tracer.FIELD_METHODS:
            out[(cls_name, name)] = vars(cls)[name]
    return out


def test_wrappers_are_installed_everywhere_and_restored(tmp_path):
    import leibnizalg.cli  # noqa: F401  (the CLI namespace binds enumerate_spaces too)
    enumeration = sys.modules["leibnizalg.enumeration"]
    original = enumeration.enumerate_spaces
    binders = [mod for mod in tracer.package_modules()
               if vars(mod).get("enumerate_spaces") is original]
    assert {m.__name__.split(".")[-1] for m in binders} >= {
        "enumeration", "aalgebra", "decompose", "series", "corpus", "cli"}
    before = _bindings()
    runner = W.Runner(BENCH.parent, tmp_path)
    op = _battery_op("C3b", 3)

    spans = tracer.Tracer()
    spans.install()
    try:
        assert all(vars(m)["enumerate_spaces"] is not original for m in binders)
        assert enumeration._ITERATORS["ideals"] is not enumeration.iter_ideals.__wrapped__
        traced_doc = runner.run(op).doc
    finally:
        spans.uninstall()
    counter = tracer.FieldCounter()
    counter.install()
    try:
        runner.run(op)
    finally:
        counter.uninstall()

    assert _bindings() == before
    summary = spans.summary()
    assert summary["calls"]["aalgebra.theorem_battery"] == 1
    assert summary["counts"]["enumeration.echelon_bases.yields"] > 0
    assert summary["calls"]["enumeration.iter_ideals"] > 0
    assert counter.counts["PrimeField.add"] > 0
    assert runner.run(op).doc == traced_doc


def test_sample_is_seeded_stratified_and_balanced():
    F = gf(2)
    items = [W.Item(f"k{i}", "battery", "corpus", (F,), {}) for i in range(20)]
    costs = {op.key: i for i, op in enumerate(W.operations(items))}
    assert len(costs) == 40
    def keys(seed):
        return [op.key for op in W.sample(items, costs, "battery-gfp", 10, seed)]

    a = W.sample(items, costs, "battery-gfp", 10, seed=3)
    assert [op.key for op in a] == keys(3)
    assert [op.key for op in a] != keys(4)
    # k strata over 40 operations (20 inputs, two library seeds each) sorted
    # by cost: one draw from each, and the total cost within the balance
    # tolerance of its expectation.
    k = round(W.RATES["battery-gfp"]["corpus"] * 10)
    bounds = [(i * 40 // k, max(i * 40 // k + 1, (i + 1) * 40 // k)) for i in range(k)]
    drawn = sorted(costs[op.key] for op in a)
    assert len(drawn) == k
    assert all(lo <= c < hi for (lo, hi), c in zip(bounds, drawn))
    expected = sum((lo + hi - 1) / 2 for lo, hi in bounds)
    assert abs(sum(drawn) - expected) <= W.BALANCE_TOLERANCE * expected


def test_permuted_algebra_is_the_same_algebra_in_another_basis():
    L = fixture("r2", gf(4))
    P = W.permuted(L, (1, 0))
    assert isinstance(P, LeibnizAlgebra)
    assert P.leibniz_violation() is None
    assert P.table[1][0] == tuple(reversed(L.table[0][1]))
