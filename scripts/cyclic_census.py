"""Census of one-generator Leibniz algebras over small finite fields.

Sweeps every alpha tuple up to the requested dimension, classifies each
algebra from its generator polynomial, and tabulates how many are
A-algebras, nilpotent, monolithic, and Frattini-free.  Every claim is
cross-checked against subspace enumeration where that fits the budget;
any disagreement is reported and makes the script exit nonzero.

Usage:
    python3 scripts/cyclic_census.py --fields gf2,gf3 --max-n 5
"""

import argparse
import itertools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from leibnizalg.cli import _count
from leibnizalg.cyclic import classify_cyclic, describe_polynomial
from leibnizalg.enumeration import DEFAULT_BUDGET
from leibnizalg.fields import parse_field_name
from leibnizalg.poly import _coef_str


def sweep(fields, max_n, budget):
    rows = []
    for F in fields:
        for n in range(2, max_n + 1):
            for alphas in itertools.product(range(F.size), repeat=n - 1):
                rep = classify_cyclic(F, alphas, budget=budget)
                rows.append({
                    "field": str(F),
                    "n": n,
                    "alphas": [F.serialize_scalar(a) for a in alphas],
                    "polynomial": describe_polynomial(rep),
                    "is_a": rep.is_a,
                    "nilpotent": rep.nilpotent,
                    "monolithic": rep.monolithic_claim,
                    "frattini_free": rep.frattini_free_claim,
                    "cross_checks_ok": rep.ok,
                    "failed_checks": [c.clause for c in rep.checks if c.failed],
                })
    return rows


def summarize(rows):
    keys = ("is_a", "nilpotent", "monolithic", "frattini_free")
    summary = {"total": len(rows)}
    for key in keys:
        summary[key] = sum(1 for r in rows if r[key])
    summary["cross_check_failures"] = sum(1 for r in rows
                                          if not r["cross_checks_ok"])
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fields", default="gf2,gf3",
                    help="comma-separated field names (default gf2,gf3)")
    ap.add_argument("--max-n", type=int, default=5,
                    help="largest algebra dimension to sweep (default 5)")
    ap.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)
    ap.add_argument("--format", choices=("text", "json"), default="text")
    args = ap.parse_args(argv)

    fields = [parse_field_name(tok) for tok in args.fields.split(",")]
    if any(not F.is_finite for F in fields):
        ap.error("the census sweep needs finite fields")
    if args.max_n < 2:
        ap.error(f"--max-n must be at least 2: {args.max_n}")
    rows = sweep(fields, args.max_n, args.budget)
    summary = summarize(rows)

    if args.format == "json":
        print(json.dumps({"summary": summary, "rows": rows},
                         sort_keys=True, indent=2))
    else:
        by_name = {str(F): F for F in fields}
        for r in rows:
            flags = "".join((
                "A" if r["is_a"] else ".",
                "N" if r["nilpotent"] else ".",
                "M" if r["monolithic"] else ".",
                "F" if r["frattini_free"] else ".",
            ))
            mark = "" if r["cross_checks_ok"] else \
                f"  CHECK FAILED: {','.join(r['failed_checks'])}"
            F = by_name[r["field"]]
            alphas = ",".join(_coef_str(F, F.parse_scalar(a)) for a in r["alphas"])
            print(f"{r['field']:>6}  n={r['n']}  alphas=({alphas})  "
                  f"{flags}  {r['polynomial']}{mark}")
        print()
        print(f"total {summary['total']}: "
              f"{summary['is_a']} A-algebras, "
              f"{summary['nilpotent']} nilpotent, "
              f"{summary['monolithic']} monolithic, "
              f"{summary['frattini_free']} frattini-free "
              f"(flags A/N/M/F per row)")
        if summary["cross_check_failures"]:
            print(f"cross-check failures: {summary['cross_check_failures']}")
    return 1 if summary["cross_check_failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
