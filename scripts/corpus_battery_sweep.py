"""Run the theorem battery over the whole generated corpus.

Every corpus member gets the full clause catalogue; the script reports
per-member verdicts, any hard clause failures, and probe findings, then
a summary.  Exit status is nonzero iff some clause fails.

The default enumeration budget is 100,000, below the library default of
1,000,000, because the sweep's timings and verdict counts are measured at
that budget.  The six GF(4) dimension-6 members sit at 565,723 subspaces
(total_subspaces(6, 4)), past it; at --budget 1000000 the battery took
0.24-2.2 s on each of them (three runs each on a shared 2-vCPU Xeon).

The sweep is ``leibnizalg corpus --battery`` at that budget, which takes the
same arguments; this script lays its report out as a table or as JSON.

Usage:
    python3 scripts/corpus_battery_sweep.py --field GF(3) --limit 50
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from leibnizalg.cli import run_command

DEFAULT_SWEEP_BUDGET = 100_000
PROG = pathlib.Path(__file__).name
ROW_KEYS = ("label", "dim", "verdict", "hard_failures", "findings", "clauses")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    reader = argparse.ArgumentParser(
        prog=PROG, description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,  # as in leibnizalg.cli.main: the runner takes no abbreviation
        epilog="Every other argument is one of `leibnizalg corpus --battery`'s; --output is refused.")
    reader.add_argument("--format", default="text")  # the runner checks its value
    fmt = reader.parse_known_args(argv)[0].format
    start = time.perf_counter()
    if any(tok.split("=")[0] == "--output" for tok in argv):
        doc = {"error": {"message": "--output is not supported; redirect stdout"}}
    else:
        # a --budget among the arguments comes later, so it wins
        doc, code = run_command(["corpus", "--battery",
                                 "--budget", str(DEFAULT_SWEEP_BUDGET), *argv])
    total = time.perf_counter() - start
    if "error" in doc:
        print(f"{PROG}: error: {doc['error']['message']}", file=sys.stderr)
        return 2
    rows = [{key: member[key] for key in ROW_KEYS} for member in doc["members"]]
    failed, unknown = doc["battery"]["failed_members"], doc["battery"]["unknown_verdicts"]
    if fmt == "json":
        summary = {"members": len(rows), "failed_members": failed,
                   "unknown_verdicts": unknown, "seconds": round(total, 1)}
        print(json.dumps({"summary": summary, "rows": rows}, sort_keys=True, indent=2))
        return code
    for r in rows:
        status = "FAIL " + ",".join(r["hard_failures"]) if r["hard_failures"] else "ok"
        extra = f"  findings: {'; '.join(r['findings'])}" if r["findings"] else ""
        print(f"{r['label']:<44} dim={r['dim']}  verdict={r['verdict']:<7}  {status}{extra}")
    print()
    print(f"{len(rows)} members in {total:.1f}s, "
          f"{unknown} unknown verdicts, {len(failed)} with failures")
    for label in failed:
        print(f"  FAILED: {label}")
    return code


if __name__ == "__main__":
    sys.exit(main())
