"""Workloads of the leibnizalg benchmark.

A workload is a catalogue of inputs, split into sub-pools, plus a rate per
sub-pool.  A run draws ``round(rate * seconds)`` operations per pass from
each sub-pool with a seeded stratified sample: the sub-pool's operations (each
input with each library seed) are sorted by the cost the reference
recorded for each, cut into equal-count strata, and one operation is drawn
from each stratum.  Draws whose total recorded cost is more than
``BALANCE_TOLERANCE`` away from the expected total, or whose median or
tail is that far from the median or tail of the strata's middle members,
are rejected and drawn again (balanced sampling).  Every seed therefore gets
the same mix of cheap and expensive inputs and about the same amount of
work, which keeps the metrics comparable across seeds, while the inputs
themselves and the ``seed=`` passed to the library change with the seed.
The recorded costs are medians of three runs scaled to the reference host
speed (see ``hostspeed.py``), so that a phase of the host does not put an
operation into the wrong stratum.

Pools are defined by properties of the inputs (field, dimension, subspace
count, dim [L,L], centre, nilpotency), never by corpus labels.  The
catalogues are finite so that the reference can hold every operation a
seed can draw.

An operation is one public library call on a freshly built algebra, or one
CLI process.  Inputs are serialised once in set-up; an operation builds a
new ``LeibnizAlgebra`` from that data, so no memo in ``L._cache`` is shared
between operations.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import leibnizalg
import metrics
from leibnizalg import (FIELDS, FIXTURE_NAMES, QQ, LeibnizAlgebra,
                        build_cyclic, corpus, direct_sum, dumps_algebra,
                        fixture, format_poly, is_nilpotent, total_subspaces)

WORKLOADS = ("battery-gfp", "battery-dense", "rational", "cli-oneshot")
BATTERY_BUDGET = 100_000
LIB_SEEDS = (0, 1)
CLI_TIMEOUT_S = 170

# Operations drawn per second of --seconds, per sub-pool and pass.  An
# untraced run makes three passes, each over a third of its list (see
# run.py).  The rates make one pass take 3-6 s at the reference commit,
# keep the costliest strata to a few inputs, and put the median and tail
# ranks of the operation times inside a dense run of costs rather than on
# a gap between a cheap and a costly group: on battery-dense the tail rank
# lies inside the group of batteries of about 0.5 s (15% of the
# operations), and on cli-oneshot both ranks lie among the short
# processes, with the few deep ones above the tail.
RATES = {
    "battery-gfp": {"corpus": 3.5},
    "battery-dense": {"dense": 3.7},
    "rational": {"corpus": 2.0, "generated": 0.6, "cyclic": 0.8},
    "cli-oneshot": {"short": 1.5, "deep": 0.2},
}

BALANCE_TOLERANCE = 0.01
BALANCE_ATTEMPTS = 10_000

CLI_COMMANDS = (
    ("check",),
    ("analyze",),
    ("a-algebra",),
    ("decompose",),
    ("enumerate", "--kind", "ideals", "--list"),
    ("enumerate", "--kind", "subalgebras", "--list"),
)


@dataclass(frozen=True)
class Item:
    """One input of a workload: what an operation runs on, minus the seed."""
    key: str
    kind: str  # battery | cyclic | cli
    pool: str
    data: tuple = field(compare=False)
    props: dict = field(compare=False)


@dataclass(frozen=True)
class Op:
    item: Item
    lib_seed: int

    @property
    def key(self) -> str:
        return f"{self.item.key}|seed={self.lib_seed}"


@dataclass
class Outcome:
    seconds: float
    code: object  # exit code, or "raised"
    doc: dict
    digest: str
    child: dict = None  # summary written by a traced CLI child
    start: float = None  # time.perf_counter() when the timing began
    calibration: float = None  # seconds per unit of host-speed calibration
    scaled: float = None  # seconds scaled to the reference host speed


# -- inputs -----------------------------------------------------------------

def fresh(L: LeibnizAlgebra) -> LeibnizAlgebra:
    return LeibnizAlgebra(L.field, L.table, L.names)


def props(L: LeibnizAlgebra) -> dict:
    F = L.field
    return {"field": str(F), "dim": L.dim,
            "subspaces": total_subspaces(L.dim, F.size) if F.is_finite else None,
            "derived_dim": fresh(L).derived_space().dim}


def abelian(F, n: int) -> LeibnizAlgebra:
    zero = tuple(F.zero for _ in range(n))
    return LeibnizAlgebra(F, tuple(tuple(zero for _ in range(n)) for _ in range(n)))


def permuted(L: LeibnizAlgebra, perm) -> LeibnizAlgebra:
    """The same algebra in the basis e'_i = e_perm[i]."""
    table = tuple(tuple(tuple(L.table[perm[i]][perm[j]][perm[k]] for k in range(L.dim))
                        for j in range(L.dim)) for i in range(L.dim))
    return LeibnizAlgebra(L.field, table, tuple(L.names[p] for p in perm))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def battery_item(pool: str, L: LeibnizAlgebra) -> Item:
    key = "battery:" + _digest(dumps_algebra(L))[:20]
    return Item(key, "battery", pool, (L.field, L.table, L.names), props(L))


def _alpha_choices(n: int):
    """Three small-integer alpha vectors for a one-generator algebra of dim n."""
    one = Fraction(1)
    return [(one,) * (n - 1),
            (Fraction(2),) + (Fraction(0),) * (n - 2),
            (-one,) + (one,) * (n - 2)]


def _gfp_items(members):
    for m in members:
        L = m.algebra
        F = L.field
        if (F.is_finite and F.size in (2, 3) and 2 <= L.dim <= 6
                and total_subspaces(L.dim, F.size) <= 3000
                and fresh(L).centre().dim <= 1):
            yield battery_item("corpus", L)


def _dense_items(members):
    def dense(L):
        F = L.field
        return (F.is_finite and F.size in (4, 9) and L.dim >= 2
                and total_subspaces(L.dim, F.size) <= 200
                and fresh(L).derived_space().dim <= 1)

    for m in members:
        if dense(m.algebra):
            yield battery_item("dense", m.algebra)
    for F in FIELDS:
        if not (F.is_finite and F.size in (4, 9)):
            continue
        A1 = abelian(F, 1)
        for X in (fixture("r2", F), fixture("C2", F), abelian(F, 2)):
            for L in (direct_sum(A1, X), direct_sum(X, A1)):
                for perm in itertools.permutations(range(L.dim)):
                    P = permuted(L, perm)
                    if dense(P):
                        yield battery_item("dense", P)


def _rational_items(members):
    for m in members:
        if not m.algebra.field.is_finite:
            yield battery_item("corpus", m.algebra)
    for name in FIXTURE_NAMES:
        X = fixture(name, QQ)
        for n in range(2, 8):
            if 4 <= n + X.dim <= 9:
                for alphas in _alpha_choices(n):
                    yield battery_item("generated", direct_sum(build_cyclic(QQ, alphas), X))
    for n in range(2, 6):
        for ints in itertools.product((-1, 0, 1, 2), repeat=n - 1):
            alphas = tuple(Fraction(a) for a in ints)
            yield Item(f"cyclic:Q:{list(ints)}", "cyclic", "cyclic", (QQ, alphas),
                       props(build_cyclic(QQ, alphas)))


def _cli_items(members):
    for m in members:
        L = m.algebra
        F = L.field
        if not (F.is_finite and 10 ** 4 <= total_subspaces(L.dim, F.size) <= 10 ** 5):
            continue
        text = dumps_algebra(L)
        name = _digest(text)[:20]
        nilpotent = is_nilpotent(fresh(L))
        for cmd in CLI_COMMANDS:
            short = cmd == ("check",) or (nilpotent and cmd in (("analyze",), ("a-algebra",)))
            yield Item(f"cli:{' '.join(cmd)}:{name}", "cli", "short" if short else "deep",
                       (cmd, name + ".json", text), props(L))


_CATALOGUES = {
    "battery-gfp": _gfp_items,
    "battery-dense": _dense_items,
    "rational": _rational_items,
    "cli-oneshot": _cli_items,
}


def catalogue(workload: str, members) -> list:
    """Every input the workload can draw, deduplicated, in a fixed order."""
    seen, out = set(), []
    for item in _CATALOGUES[workload](members):
        if item.key not in seen:
            seen.add(item.key)
            out.append(item)
    return out


def build_corpus():
    """The corpus without its quotient members, from scratch: the
    process-wide memo of corpus() is emptied first, so that every set-up
    pays the full build.

    The quotient members take 6-8 s to build on the tuning host, nine
    times a run, which would not let 92 runs finish in the time they are
    given.  Leaving them out costs battery-gfp 80 of its 258 inputs and
    battery-dense 13 of its 93; rational and cli-oneshot draw none.
    """
    sys.modules["leibnizalg.corpus"]._CORPUS_CACHE.clear()
    return corpus(with_quotients=False)


def operations(items) -> list:
    """Every operation a seed can draw: each input with each library seed."""
    return [Op(it, s) for it in items for s in LIB_SEEDS]


def shape(costs) -> tuple:
    """Sum, median and tail percentile of a list of operation costs."""
    p = metrics.tail_percentile(len(costs))
    return (sum(costs), statistics.median(costs),
            metrics.percentile(costs, p) if p is not None else max(costs))


def sample(items, costs: dict, workload: str, seconds: int, seed: int,
           passes: int = 1) -> list:
    """Seeded, stratified and balanced sample of operations for ``passes``
    passes of ``seconds``; see the module docstring.  ``costs`` maps
    operation keys to their recorded cost."""
    rng = random.Random(seed)
    strata = []
    for pool, rate in RATES[workload].items():
        members = sorted((op for op in operations(items) if op.item.pool == pool),
                         key=lambda op: (costs[op.key], op.key))
        M, k = len(members), max(1, round(rate * seconds)) * passes
        for i in range(k):
            lo = i * M // k
            strata.append(members[lo:max(lo + 1, (i + 1) * M // k)])
    # The expected sum, and the median and tail of the strata's middle
    # members: a draw must match all three, which are what ops_per_s,
    # op_p50_ms and op_tail_ms take of the operation times.
    target = (sum(statistics.fmean(costs[op.key] for op in s) for s in strata),
              *shape([costs[s[len(s) // 2].key] for s in strata])[1:])
    best = None
    for _ in range(BALANCE_ATTEMPTS):
        drawn = [s[rng.randrange(len(s))] for s in strata]
        got = shape([costs[op.key] for op in drawn])
        miss = max(abs(g - t) / t for g, t in zip(got, target))
        if best is None or miss < best[0]:
            best = (miss, drawn)
        if miss <= BALANCE_TOLERANCE:
            break
    ops = best[1]
    rng.shuffle(ops)
    return ops


# -- operations -------------------------------------------------------------

def _basis(F, U):
    return [[F.serialize_scalar(c) for c in row] for row in U.basis]


def battery_doc(L, report) -> dict:
    v = report.verdict
    return {
        "verdict": v.label,
        "certificate": v.certificate,
        "witness": _basis(L.field, v.witness) if v.witness is not None else None,
        "reasons": list(v.reasons),
        "clauses": [[c.clause, c.applicable, c.holds, c.detail] for c in report.clauses],
        "findings": list(report.findings),
        "hard_failures": list(report.hard_failures),
    }


def cyclic_doc(report) -> dict:
    F = report.spec.field
    return {
        "polynomial": format_poly(report.polynomial),
        "cofactor_factors": [[format_poly(f), m] for f, m in report.factors],
        "is_a": report.is_a,
        "nilpotent": report.nilpotent,
        "complement": [F.serialize_scalar(c) for c in report.complement],
        "monolithic_claim": report.monolithic_claim,
        "frattini_free_claim": report.frattini_free_claim,
        "checks": [[c.clause, c.applicable, c.holds, c.detail] for c in report.checks],
        "ok": report.ok,
    }


class Runner:
    """Runs operations; CLI operations run in a child process under ``workdir``.

    With ``child_mode`` set ("spans" or "fields"), CLI children start through
    ``cli_child.py``, which traces the child and writes a summary.
    """

    def __init__(self, root: Path, workdir: Path, child_mode: Optional[str] = None):
        self.root = root
        self.workdir = workdir
        self.child_mode = child_mode
        # The hash seed of the children is fixed as it was when the reference
        # was recorded, so a child's report cannot vary with string hashing.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def write_inputs(self, items) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for item in items:
            if item.kind == "cli":
                (self.workdir / item.data[1]).write_text(item.data[2], encoding="utf-8")

    def run(self, op: Op) -> Outcome:
        kind = op.item.kind
        if kind == "cli":
            return self._run_cli(op)
        # Library calls go through the package namespace, which the tracer
        # patches; a name imported into this module would bypass it.
        t0 = time.perf_counter()
        try:
            if kind == "battery":
                F, table, names = op.item.data
                L = LeibnizAlgebra(F, table, names)
                report = leibnizalg.theorem_battery(L, seed=op.lib_seed,
                                                    budget=BATTERY_BUDGET)
                seconds = time.perf_counter() - t0
                doc, code = battery_doc(L, report), 1 if report.hard_failures else 0
            else:
                F, alphas = op.item.data
                report = leibnizalg.classify_cyclic(F, alphas, budget=BATTERY_BUDGET,
                                                    seed=op.lib_seed)
                seconds = time.perf_counter() - t0
                doc, code = cyclic_doc(report), 0 if report.ok else 1
        except Exception:  # an operation that raises is a failed operation
            seconds = time.perf_counter() - t0
            doc, code = {"error": traceback.format_exc(limit=-4)}, "raised"
        return Outcome(seconds, code, doc, _digest(json.dumps(doc, sort_keys=True)), start=t0)

    def _run_cli(self, op: Op) -> Outcome:
        cmd, fname, _ = op.item.data
        args = [*cmd, str(self.workdir / fname), "--format", "json",
                "--seed", str(op.lib_seed)]
        summary_path = self.workdir / "child-summary.json"
        if self.child_mode:
            summary_path.unlink(missing_ok=True)
            argv = [sys.executable, str(self.root / "benchmark" / "cli_child.py"),
                    self.child_mode, str(summary_path), repr(time.time()), *args]
        else:
            argv = [sys.executable, "-m", "leibnizalg", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            doc = {"error": proc.stderr.decode("utf-8", "replace")[-2000:]}
        child = None
        if self.child_mode and summary_path.exists():
            child = json.loads(summary_path.read_text(encoding="utf-8"))
        return Outcome(seconds, proc.returncode, doc,
                       hashlib.sha256(proc.stdout).hexdigest(), child, start=t0)


# -- reference views --------------------------------------------------------

def _decided_verdict(doc):
    if doc.get("verdict") in ("true", "false"):
        return {"verdict": doc["verdict"], "witness": doc.get("witness")}
    return {}


def _exact_radicals(doc):
    out = {}
    for name in ("nilradical", "radical"):
        value = doc.get(name)
        if isinstance(value, dict) and value.get("mode") == "exact":
            out[name] = value["dim"]
    return out


def exact_view(kind: str, doc: dict) -> dict:
    """The parts of a result that must never change.

    Verdicts marked unknown and radicals marked lower_bound are left out:
    a later change may make them exact.
    """
    if "error" in doc:
        return {}
    if kind == "battery":
        return _decided_verdict(doc)
    if kind == "cyclic":
        return {k: doc[k] for k in ("polynomial", "cofactor_factors", "is_a", "nilpotent",
                                    "complement", "monolithic_claim", "frattini_free_claim")}
    command = doc.get("command")
    if command == "check":
        return {"leibniz": doc["leibniz"]}
    if command == "analyze":
        out = {k: doc[k] for k in ("predicates", "series", "dims", "nilpotency_class",
                                   "derived_length")}
        out.update(_exact_radicals(doc))
        return out
    if command == "a-algebra":
        return _decided_verdict(doc)
    if command == "decompose":
        out = {"predicates": doc["predicates"]}
        out.update(_exact_radicals(doc))
        return out
    if command == "enumerate":
        order = _digest(json.dumps(doc.get("bases"), sort_keys=True))
        return {"kind": doc["kind"], "total": doc["total"],
                "by_dimension": doc["by_dimension"], "order_sha256": order}
    return {}


def reported_failure(kind: str, doc: dict) -> bool:
    """A battery hard failure or a classify_cyclic cross-check failure."""
    if kind == "cyclic":
        return doc.get("ok") is False
    return bool(doc.get("hard_failures"))


def check(op: Op, outcome: Outcome, reference: dict):
    """(failed, identical) for one operation against its reference entry."""
    ref = reference[op.key]
    kind = op.item.kind
    if outcome.code != ref["code"] or reported_failure(kind, outcome.doc):
        return True, False
    mine = exact_view(kind, outcome.doc)
    failed = any(mine.get(k) != v for k, v in ref["exact"].items())
    return failed, outcome.digest == ref["digest"]
