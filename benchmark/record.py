#!/usr/bin/env python3
"""Record the reference results of a workload's whole catalogue.

    python3 benchmark/record.py --workload NAME [--costs-only]

Runs every input of the workload with every library seed in
``workloads.LIB_SEEDS``, ``REPEATS`` times each, and writes
``benchmark/reference/NAME.json``: the exit code, the report digest and
the exact view of each operation, and the cost of each operation (the
median of its runs, scaled to the reference host speed as in run.py),
which orders the strata the runs sample from.  Refuses to write a
reference in which an operation fails or a repeat changes the report.
Re-record only when a change is meant to alter results, and say so.

``--costs-only`` re-measures the costs and keeps everything else; it
refuses to write when a report differs from the one already recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import hostspeed
import run  # imports the library from this checkout's src/
import workloads as W

REPEATS = 3


def measure(runner, op):
    """The operation's outcomes and its median time over REPEATS runs,
    each scaled to the reference host speed as in run.py."""
    outs = run.run_ops(runner, [op] * REPEATS, hostspeed.Meter())
    return outs, statistics.median(o.scaled for o in outs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--costs-only", action="store_true",
                        help="re-measure the costs of an existing reference")
    args = parser.parse_args(argv)

    # One CPU for the operations, their children and the calibration.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    path = run.BENCH / "reference" / f"{args.workload}.json"
    old = run.load_reference(args.workload) if args.costs_only else None
    items = W.catalogue(args.workload, W.build_corpus())
    runner = W.Runner(run.ROOT, run.WORK_DIR / f"record-{args.workload}")
    runner.write_inputs(items)
    costs, ops, bad = {}, {}, []
    for n, item in enumerate(items, 1):
        for seed in W.LIB_SEEDS:
            op = W.Op(item, seed)
            outs, costs[op.key] = measure(runner, op)
            out = outs[0]
            if (out.code not in (0, 1) or W.reported_failure(item.kind, out.doc)
                    or len({o.digest for o in outs}) != 1
                    or (old is not None and out.digest != old["ops"][op.key]["digest"])):
                bad.append((op.key, out.code, out.doc.get("error")))
            ops[op.key] = {"code": out.code, "digest": out.digest,
                           "exact": W.exact_view(item.kind, out.doc)}
            print(f"{n}/{len(items)} {op.key} {costs[op.key]:.3f}s", file=sys.stderr)
    shutil.rmtree(runner.workdir, ignore_errors=True)
    if bad:
        for entry in bad:
            print("failed:", *entry, file=sys.stderr)
        return 1
    path.parent.mkdir(exist_ok=True)
    if old is not None:
        doc = dict(old, costs=costs, costs_machine=run.machine(), costs_commit=run.commit())
    else:
        doc = {"workload": args.workload, "commit": run.commit(), "machine": run.machine(),
               "lib_seeds": list(W.LIB_SEEDS), "costs": costs, "ops": ops}
    doc.pop("items", None)
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}: {len(items)} inputs, {len(ops)} operations",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
