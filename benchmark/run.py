#!/usr/bin/env python3
"""The leibnizalg benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` it makes three untraced passes over the workload's
operation list, setting up three times before each, and prints the
end-to-end metrics.  The passes take turns through one list, so that each operation
runs once, and every set-up and operation time is scaled by the host
speed measured around and during it (``hostspeed.py``).  With ``--trace 1``
it sets up three times, draws a list a third as long, makes an untraced pass, a
pass with spans and a pass counting field operations over all of it, and
prints the per-layer metrics, whose times are not scaled.  ``--reverse`` runs the list backwards
and exits with 1 unless every report is byte-identical to the reference,
which catches memo state leaking from one operation into the next.

Every operation is checked against ``benchmark/reference/<workload>.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(machine, seed, per-operation times and input properties) is written to
``.bench_out/``.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
PASSES = 3
SETUPS_PER_PASS = 3


def import_library():
    """Import leibnizalg from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import leibnizalg
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import leibnizalg from {SRC}: {exc}")
    if Path(leibnizalg.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"benchmark: leibnizalg was imported from {leibnizalg.__file__}, "
                         f"not from {SRC}")


import_library()

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


@dataclass
class Plan:
    ops: list
    reference: dict
    runner: W.Runner
    corpus_build_s: float


def workdir(workload: str) -> Path:
    return WORK_DIR / f"{workload}-{os.getpid()}"


def load_reference(workload: str) -> dict:
    path = BENCH / "reference" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload: str, seed: int, seconds: int, passes: int) -> Plan:
    """Build the corpus, serialise the workload's inputs, load the reference
    and draw the operation list."""
    t0 = time.perf_counter()
    members = W.build_corpus()
    corpus_build_s = time.perf_counter() - t0
    items = W.catalogue(workload, members)
    reference = load_reference(workload)
    if {op.key for op in W.operations(items)} != set(reference["costs"]):
        raise SystemExit(f"benchmark: the {workload} inputs differ from those of "
                         f"the reference")
    ops = W.sample(items, reference["costs"], workload, seconds, seed, passes)
    missing = [op.key for op in ops if op.key not in reference["ops"]]
    if missing:
        raise SystemExit(f"benchmark: no reference for operation {missing[0]}")
    runner = W.Runner(ROOT, workdir(workload))
    runner.write_inputs({op.item for op in ops})
    return Plan(ops, reference["ops"], runner, corpus_build_s)


def run_ops(runner: W.Runner, ops, meter: hostspeed.Meter = None,
            trace: tracer.Tracer = None) -> list:
    """Run ``ops`` once.  With a ``meter``, host speed is sampled between
    the operations and, for library calls, during them, and every outcome
    gets its time less the samples' and that time scaled (hostspeed.py).
    CLI children are not sampled during, because the sampler would share
    their CPU; they are scaled by spawn blocks around them."""
    outcomes = []
    cli = bool(ops) and ops[0].item.kind == "cli"
    if meter is not None:
        meter.block(spawn=cli)
    for i, op in enumerate(ops):
        if trace is not None:
            trace.current_op = i
        if meter is not None and not cli:
            with meter.ticking():
                outcomes.append(runner.run(op))
        else:
            outcomes.append(runner.run(op))
        if meter is not None:
            meter.block(spawn=cli)
    if meter is not None:
        for out in outcomes:
            busy, out.calibration = meter.reading(out.start, out.start + out.seconds)
            out.seconds -= busy
            out.scaled = hostspeed.scale(out.seconds, out.calibration)
    return outcomes


def run_pass(plan: Plan, ops, trace: tracer.Tracer = None, meter: hostspeed.Meter = None):
    """Run ``ops`` once and check every outcome against the reference."""
    outcomes = run_ops(plan.runner, ops, meter, trace)
    checks = [W.check(op, out, plan.reference) for op, out in zip(ops, outcomes)]
    return outcomes, checks


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def op_records(pass_ops, passes):
    """Per operation run: input properties, pass, time and check outcome."""
    return [{"op": op.key, "pool": op.item.pool, "lib_seed": op.lib_seed, **op.item.props,
             "pass": r, "seconds": out.seconds, "scaled_s": out.scaled,
             "calibration_s": out.calibration, "code": out.code,
             "failed": failed, "identical": identical}
            for r, (ops, (outcomes, checks)) in enumerate(zip(pass_ops, passes))
            for op, out, (failed, identical) in zip(ops, outcomes, checks)]


def traced(plan: Plan, ops):
    """Untraced, span and field-count passes over the same operations."""
    cli = plan.ops[0].item.kind == "cli"
    passes = [run_pass(plan, ops)]
    spans = tracer.Tracer()
    if cli:
        plan.runner.child_mode = "spans"
    else:
        spans.install()
    try:
        passes.append(run_pass(plan, ops, spans))
    finally:
        spans.uninstall()
    counter = tracer.FieldCounter()
    if cli:
        plan.runner.child_mode = "fields"
    else:
        counter.install()
    try:
        passes.append(run_pass(plan, ops))
    finally:
        counter.uninstall()
        plan.runner.child_mode = None
    if cli:
        summary = tracer.merge_summaries(o.child or {} for o in passes[1][0])
        field_counts = tracer.merge_summaries(o.child or {} for o in passes[2][0])["counts"]
    else:
        summary, field_counts = spans.summary(), dict(counter.counts)
    untraced_s = sum(o.seconds for o in passes[0][0])
    overhead = sum(o.seconds for o in passes[1][0]) / untraced_s - 1
    layer = metrics.per_layer(summary, field_counts, plan.corpus_build_s, overhead)
    if cli:
        summary["by_op"] = {i: dict(o.child["self_s"], startup_s=o.child["startup_s"])
                            for i, o in enumerate(passes[1][0]) if o.child}
    return passes, layer, summary, len(spans.start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reverse", action="store_true",
                        help="run the operation list backwards and require "
                             "byte-identical reports")
    args = parser.parse_args(argv)

    setup_times, setup_raw, passes, pass_ops = [], [], [], []
    try:
        # An untraced run makes PASSES passes; before pass r it sets up
        # SETUPS_PER_PASS times, and pass r runs every PASSES-th operation of
        # the list from the r-th on, so that each operation runs once and
        # the run sees three times as many inputs as one pass holds.  A pass
        # and the set-ups before it run on one CPU, the CPUs this process
        # may use taking turns, so that the host-speed samples and the
        # operations they scale share a CPU (on the host this was tuned on,
        # each vCPU drifts between fast and slow phases of its own).
        cpus = sorted(os.sched_getaffinity(0))
        meter = hostspeed.Meter()
        n_passes = 1 if args.trace else PASSES
        for r in range(n_passes):
            if not args.trace:
                os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            try:
                for _ in range(SETUPS_PER_PASS):
                    meter.block()
                    with meter.ticking():
                        t0 = time.perf_counter()
                        plan = setup(args.workload, args.seed, args.seconds, n_passes)
                        t1 = time.perf_counter()
                    meter.block()
                    busy, unit = meter.reading(t0, t1)
                    setup_raw.append(t1 - t0 - busy)
                    setup_times.append(hostspeed.scale(setup_raw[-1], unit))
                ops = plan.ops[::-1] if args.reverse else plan.ops
                if not args.trace:
                    pass_ops.append(ops[r::n_passes])
                    passes.append(run_pass(plan, pass_ops[-1], meter=meter))
            finally:
                os.sched_setaffinity(0, cpus)
        cli = ops[0].item.kind == "cli"
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "reverse": args.reverse, "machine": machine(),
                  "commit": commit(), "setup_s": setup_times, "setup_raw_s": setup_raw,
                  "corpus_build_s": plan.corpus_build_s}
        if args.trace:
            passes, metric_values, summary, n_spans = traced(plan, ops)
            pass_ops = [ops] * len(passes)
            record["span_summary"] = summary
            record["span_count"] = n_spans
        else:
            times = [o.scaled for p in passes for o in p[0]]
            failed_ops = sum(f for p in passes for f, _ in p[1])
            metric_values = metrics.end_to_end(times, failed_ops, setup_times,
                                               peak_rss_mb(children=cli))
            record["tail_percentile"] = metrics.tail_percentile(len(times))
            record["op_seconds"] = times
    finally:
        shutil.rmtree(workdir(args.workload), ignore_errors=True)

    attempted = sum(len(c) for _, c in passes)
    failed = sum(f for _, c in passes for f, _ in c)
    identical = sum(i for _, c in passes for _, i in c)
    record["ops"] = op_records(pass_ops, passes)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metric_values.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    n = len(ops)
    p = metrics.tail_percentile(n)
    print(f"workload {args.workload}  seed {args.seed}  operations {n} in "
          f"{len(passes)} pass(es)  commit {record['commit']}")
    print(f"machine {record['machine']['cpu']}  nproc {record['machine']['nproc']}  "
          f"python {record['machine']['python']}")
    if not args.trace:
        print(f"op_tail_ms is the p{p} of {n} samples" if p is not None
              else f"op_tail_ms omitted: {n} samples")
    print(f"reports byte-identical to the reference: {identical}/{attempted}")
    for name, (value, unit) in metric_values.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    print(f"full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    if args.reverse and identical != attempted:
        print("benchmark: reversed order changed reports", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
