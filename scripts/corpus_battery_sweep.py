"""Run the theorem battery over the whole generated corpus.

Every corpus member gets the full clause catalogue; the script reports
per-member verdicts, any hard clause failures, and probe findings, then
a summary.  Exit status is nonzero iff some clause fails.

The default enumeration budget keeps every member under a minute; the
GF(4) dimension-6 members sit at 565,723 subspaces (total_subspaces(6, 4))
and take several minutes each at --budget 1000000, which is the only
reason the default here is lower than the library default.

Usage:
    python3 scripts/corpus_battery_sweep.py --field GF(3) --limit 50
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from leibnizalg.aalgebra import theorem_battery
from leibnizalg.cli import _count
from leibnizalg.corpus import corpus

DEFAULT_SWEEP_BUDGET = 100_000


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", default=None,
                    help="only members over this field, e.g. GF(3) or Q")
    ap.add_argument("--kind", default=None,
                    choices=("fixture", "cyclic", "sum", "quotient"),
                    help="only members of this kind")
    ap.add_argument("--limit", type=_count, default=None)
    ap.add_argument("--budget", type=_count, default=DEFAULT_SWEEP_BUDGET)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("text", "json"), default="text")
    args = ap.parse_args(argv)

    # quotients come last in the corpus, so leaving them out changes no other member
    members = corpus(with_quotients=args.kind in (None, "quotient"))
    if args.field is not None:
        members = [m for m in members if str(m.algebra.field) == args.field]
    if args.kind is not None:
        members = [m for m in members if m.kind == args.kind]
    if args.limit is not None:
        members = members[:args.limit]

    rows = []
    failed = []
    unknown = 0
    start = time.perf_counter()
    for m in members:
        t0 = time.perf_counter()
        rep = theorem_battery(m.algebra, seed=args.seed, budget=args.budget)
        dt = time.perf_counter() - t0
        row = {
            "label": m.label,
            "dim": m.algebra.dim,
            "verdict": rep.verdict.label,
            "hard_failures": list(rep.hard_failures),
            "findings": list(rep.findings),
            "clauses": len(rep.clauses),
            "seconds": round(dt, 2),
        }
        rows.append(row)
        if rep.hard_failures:
            failed.append(m.label)
        if rep.verdict.is_unknown:
            unknown += 1
        if args.format == "text":
            status = "FAIL " + ",".join(rep.hard_failures) if rep.hard_failures else "ok"
            extra = f"  findings: {'; '.join(rep.findings)}" if rep.findings else ""
            print(f"{m.label:<44} dim={m.algebra.dim}  "
                  f"verdict={rep.verdict.label:<7} {dt:6.2f}s  {status}{extra}")
            sys.stdout.flush()
    total = time.perf_counter() - start

    summary = {
        "members": len(rows),
        "failed_members": failed,
        "unknown_verdicts": unknown,
        "seconds": round(total, 1),
    }
    if args.format == "json":
        print(json.dumps({"summary": summary, "rows": rows},
                         sort_keys=True, indent=2))
    else:
        print()
        print(f"{len(rows)} members in {total:.1f}s, "
              f"{unknown} unknown verdicts, {len(failed)} with failures")
        for label in failed:
            print(f"  FAILED: {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
