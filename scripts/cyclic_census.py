"""Census of one-generator Leibniz algebras over small finite fields.

Sweeps every alpha tuple up to the requested dimension, classifies each
algebra from its generator polynomial, and tabulates how many are
A-algebras, nilpotent, monolithic, and Frattini-free.  Every claim is
cross-checked against subspace enumeration where that fits the budget;
any disagreement is reported and makes the script exit nonzero.

The sweep is ``leibnizalg census``, which takes the same arguments; this
script lays its report out as a table or as JSON.

Usage:
    python3 scripts/cyclic_census.py --fields gf2,gf3 --max-n 5
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from leibnizalg.cli import run_command

PROG = pathlib.Path(__file__).name
FLAGS = (("A", "is_a"), ("N", "nilpotent"), ("M", "monolithic"), ("F", "frattini_free"))


def census_row(row):
    """A census report row in this script's keys, with p = (x) * (f)^m ..."""
    factors = [f"({f['poly']})" + (f"^{f['multiplicity']}" if f["multiplicity"] > 1 else "")
               for f in row["cofactor_factors"]]
    return {"field": row["field"], "n": row["dim"], "alphas": row["alphas"],
            "polynomial": f"{row['polynomial']} = " + " * ".join(["(x)", *factors]),
            "is_a": row["is_a"], "nilpotent": row["nilpotent"],
            "monolithic": row["monolithic_claim"], "frattini_free": row["frattini_free_claim"],
            "cross_checks_ok": row["ok"],
            "failed_checks": [c["clause"] for c in row["checks"]
                              if c["applicable"] and c["holds"] is False]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    reader = argparse.ArgumentParser(
        prog=PROG, description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,  # as in leibnizalg.cli.main: the runner takes no abbreviation
        epilog="Every other argument is one of `leibnizalg census`'s; --output is refused.")
    reader.add_argument("--format", default="text")  # the runner checks its value
    fmt = reader.parse_known_args(argv)[0].format
    if any(tok.split("=")[0] == "--output" for tok in argv):
        doc = {"error": {"message": "--output is not supported; redirect stdout"}}
    else:
        doc, code = run_command(["census", *argv])
    if "error" in doc:
        print(f"{PROG}: error: {doc['error']['message']}", file=sys.stderr)
        return 2
    rows = [census_row(row) for row in doc["rows"]]
    summary = doc["summary"]
    if fmt == "json":
        print(json.dumps({"summary": summary, "rows": rows}, sort_keys=True, indent=2))
        return code
    for r in rows:
        flags = "".join(flag if r[key] else "." for flag, key in FLAGS)
        mark = "" if r["cross_checks_ok"] else f"  CHECK FAILED: {','.join(r['failed_checks'])}"
        # each scalar as format_poly writes a coefficient: [c] as c
        alphas = ",".join(str(a[0]) if len(a) == 1 else str(a) for a in r["alphas"])
        print(f"{r['field']:>6}  n={r['n']}  alphas=({alphas})  {flags}  {r['polynomial']}{mark}")
    print()
    print(f"total {summary['total']}: {summary['is_a']} A-algebras, "
          f"{summary['nilpotent']} nilpotent, {summary['monolithic']} monolithic, "
          f"{summary['frattini_free']} frattini-free (flags A/N/M/F per row)")
    if summary["cross_check_failures"]:
        print(f"cross-check failures: {summary['cross_check_failures']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
