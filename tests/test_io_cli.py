import builtins
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from leibnizalg import aalgebra
from leibnizalg.aalgebra import theorem_battery
from leibnizalg.algfile import (algebra_from_doc, algebra_to_doc,
                                dumps_algebra, input_digest, loads_algebra)
from leibnizalg.cli import _COMMANDS, _load, main, render, run_command
from leibnizalg.corpus import fixture
from leibnizalg.enumeration import total_subspaces
from leibnizalg.errors import ParseError
from leibnizalg.fields import QQ, gf


# ----------------------------------------------------------------- file I/O

FIXTURES = ("A2", "r2", "H3", "sl2", "C2", "C3a", "C3b")


def test_round_trip_all_fixtures():
    for name in FIXTURES:
        for F in (QQ, gf(4)):
            L = fixture(name, F)
            M = loads_algebra(dumps_algebra(L))
            assert M.table_key() == L.table_key()
            assert M.names == L.names


def test_dumps_canonical():
    L = fixture("H3", QQ)
    assert dumps_algebra(L) == dumps_algebra(L)
    doc = json.loads(dumps_algebra(L))
    assert list(doc) == sorted(doc)
    assert doc["format_version"] == 1


def test_path_round_trip(tmp_path):
    # the CLI reads a file written by dumps_algebra back to the same table
    L = fixture("C2", gf(9))
    path = tmp_path / "c2.json"
    path.write_text(dumps_algebra(L), encoding="utf-8")
    M, digest = _load(str(path))
    assert M.table_key() == L.table_key()
    assert digest == input_digest(dumps_algebra(L))


def _doc(L):
    return algebra_to_doc(L)


def test_parse_errors():
    base = _doc(fixture("A2", gf(2)))

    bad = dict(base, format_version=2)
    with pytest.raises(ParseError, match="format_version"):
        algebra_from_doc(bad)

    for version in (True, 1.0, "1"):
        with pytest.raises(ParseError, match="format_version"):
            algebra_from_doc(dict(base, format_version=version))

    bad = dict(base)
    del bad["field"]
    with pytest.raises(ParseError, match="field"):
        algebra_from_doc(bad)

    bad = dict(base, dim="2")
    with pytest.raises(ParseError, match="dim"):
        algebra_from_doc(bad)

    bad = dict(base, basis_names=["x", "x"])
    with pytest.raises(ParseError, match="distinct"):
        algebra_from_doc(bad)

    bad = dict(base, basis_names=["x", ""])
    with pytest.raises(ParseError, match="non-empty strings"):
        algebra_from_doc(bad)

    bad = dict(base, table=[base["table"][0]])
    with pytest.raises(ParseError):
        algebra_from_doc(bad)

    with pytest.raises(ParseError):
        algebra_from_doc([1, 2, 3])

    with pytest.raises(ParseError, match="JSON"):
        loads_algebra("{not json")


def test_parse_error_locates_bad_scalar():
    base = _doc(fixture("A2", gf(2)))
    base["table"][1][0][1] = "zebra"
    with pytest.raises(ParseError) as info:
        algebra_from_doc(base)
    assert info.value.where == "table[1][0][1]"


def test_input_digest():
    text = dumps_algebra(fixture("H3", QQ))
    assert input_digest(text) == input_digest(text)
    assert len(input_digest(text)) == 64
    assert input_digest(text) != input_digest(text + " ")


# --------------------------------------------------------------------- CLI

def _write(tmp_path, name, L):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps_algebra(L), encoding="utf-8")
    return str(path)


def test_cli_check_ok(tmp_path):
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    doc, code = run_command(["check", path])
    assert code == 0
    assert doc["leibniz"] is True
    assert doc["command"] == "check"
    assert len(doc["input_sha256"]) == 64


def test_cli_reads_the_input_once(tmp_path, monkeypatch):
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    with open(path, encoding="utf-8") as fh:
        digest = input_digest(fh.read())
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if file == path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    doc, code = run_command(["check", path])
    assert code == 0
    assert opened == [path]
    assert doc["input_sha256"] == digest


def test_cli_check_violation(tmp_path):
    bad = {"format_version": 1, "field": {"kind": "rationals"}, "dim": 1,
           "table": [[["1"]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    doc, code = run_command(["check", str(path)])
    assert code == 1
    assert doc["leibniz"] is False
    assert doc["violation"]["triple"] == [0, 0, 0]


def test_cli_analyze_rejects_non_leibniz(tmp_path):
    bad = {"format_version": 1, "field": {"kind": "rationals"}, "dim": 1,
           "table": [[["1"]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    doc, code = run_command(["analyze", str(path)])
    assert code == 1
    assert doc["error"]["type"] == "not_leibniz"


def test_cli_analyze_h3(tmp_path):
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    doc, code = run_command(["analyze", path])
    assert code == 0
    assert doc["predicates"]["nilpotent"] is True
    assert doc["predicates"]["abelian"] is False
    assert doc["series"]["derived"] == [3, 1, 0]
    assert doc["series"]["upper_central"] == [0, 1, 3]
    assert doc["dims"]["centre"] == 1
    assert doc["nilpotency_class"] == 2
    assert doc["derived_length"] == 2
    assert doc["nilradical"] == {"dim": 3, "mode": "exact"}


def test_cli_a_algebra(tmp_path):
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    doc, code = run_command(["a-algebra", path])
    assert code == 0
    assert doc["verdict"] == "false"
    assert doc["certificate"] == "nilpotent_self"
    assert doc["witness"]["dim"] == 3

    path = _write(tmp_path, "c2", fixture("C2", QQ))
    doc, code = run_command(["a-algebra", path])
    assert code == 0
    assert doc["verdict"] == "true" and doc["certificate"] == "lemma_aa"


def test_cli_battery(tmp_path):
    path = _write(tmp_path, "c3b", fixture("C3b", gf(2)))
    doc, code = run_command(["battery", path])
    assert code == 0
    assert doc["verdict"] == "true"
    assert doc["hard_failures"] == []
    assert doc["counts"]["clauses"] == 34
    assert doc["counts"]["failed"] == 0


def test_cli_decompose(tmp_path):
    path = _write(tmp_path, "c2", fixture("C2", gf(3)))
    doc, code = run_command(["decompose", path])
    assert code == 0
    assert doc["predicates"]["solvable"] is True
    assert doc["decomposition"]["part_dims"] == [1, 1]
    assert doc["decomposition_error"] is None


def test_cli_decompose_exits_1_on_a_failed_clause(monkeypatch, tmp_path):
    def fail(L):
        return False, f"forced failure in dimension {L.dim}"

    rows = tuple(aalgebra._Row(row.clause, fail, row.gates)
                 if row.clause == "ideal_chain_alignment" else row for row in aalgebra._STRUCTURE)
    monkeypatch.setattr(aalgebra, "_STRUCTURE", rows)
    doc, code = run_command(["decompose", _write(tmp_path, "c2", fixture("C2", gf(3)))])
    assert code == 1
    assert {"clause": "ideal_chain_alignment", "applicable": True, "holds": False,
            "detail": "forced failure in dimension 2"} in doc["clauses"]


def test_cli_cyclic():
    doc, code = run_command(["cyclic", "--field", "gf2", "1", "0", "1"])
    assert code == 0
    assert doc["polynomial"] == "x^4 + x^3 + x"
    assert doc["cofactor"] == "x^3 + x^2 + 1"
    assert doc["cofactor_factors"] == [{"poly": "x^3 + x^2 + 1",
                                        "multiplicity": 1}]
    assert doc["is_a"] is True
    assert doc["monolithic_claim"] is True
    assert doc["frattini_free_claim"] is True
    assert doc["ok"] is True


def test_cli_cyclic_rational_alphas():
    doc, code = run_command(["cyclic", "--field", "q", "1/2"])
    assert code == 0
    assert doc["alphas"] == ["1/2"]
    assert doc["is_a"] is True


def test_cli_cyclic_rational_quintic_cofactor():
    # the cofactor x^5 - x^4 - 1 factors over Q past degree four
    doc, code = run_command(["cyclic", "--field", "q", "1", "0", "0", "0", "1"])
    assert code == 0
    assert doc["cofactor"] == "x^5 - x^4 - 1"
    assert doc["cofactor_factors"] == [
        {"poly": "x^2 - x + 1", "multiplicity": 1},
        {"poly": "x^3 - x - 1", "multiplicity": 1}]
    assert doc["checks"] and all(c["holds"] for c in doc["checks"])
    assert doc["ok"] is True


def test_cli_cyclic_extension_field_digit_list():
    doc, code = run_command(["cyclic", "--field", "gf4", "1", "[0,1]"])
    assert code == 0
    assert doc["alphas"] == [[1, 0], [0, 1]]
    assert doc["ok"] is True and doc["is_a"] is True
    doc, code = run_command(["cyclic", "--field", "gf4", "[0,"])
    assert code == 3
    assert doc["error"]["type"] == "FieldParseError"


def test_cli_frattini(tmp_path):
    path = _write(tmp_path, "h3", fixture("H3", gf(2)))
    doc, code = run_command(["frattini", path])
    assert code == 0
    assert doc["frattini"]["dim"] == 1
    assert doc["maximal_subalgebra_count"] == 3
    assert doc["socle"] == {"minimal_ideal_dims": [1], "abelian_socle_dim": 1,
                            "monolithic": True, "monolith_dim": 1}


def test_cli_enumerate(tmp_path):
    path = _write(tmp_path, "h3", fixture("H3", gf(2)))
    doc, code = run_command(["enumerate", path, "--kind", "subspaces"])
    assert code == 0 and doc["total"] == 16
    doc, code = run_command(["enumerate", path, "--kind", "subalgebras"])
    assert code == 0 and doc["total"] == 12
    doc, code = run_command(["enumerate", path, "--kind", "ideals", "--list"])
    assert code == 0 and doc["total"] == 6
    assert len(doc["bases"]) == 6


def test_cli_corpus_limit():
    doc, code = run_command(["corpus", "--limit", "5"])
    assert code == 0
    assert doc["size"] == 5
    assert len(doc["members"]) == 5
    row = doc["members"][0]
    assert set(row) == {"label", "kind", "field", "dim"}


def test_cli_corpus_battery():
    doc, code = run_command(["corpus", "--battery", "--limit", "3"])
    assert code == 0
    assert doc["battery"]["failed_members"] == []
    assert len(doc["members"]) == 3
    assert all(row["verdict"] in {"true", "false", "unknown"} for row in doc["members"])


def test_cli_corpus_negative_limit():
    doc, code = run_command(["corpus", "--limit", "-1"])
    assert code == 3
    assert doc["error"]["type"] == "argument"
    assert "--limit" in doc["error"]["message"]


def test_cli_negative_budget(tmp_path):
    path = _write(tmp_path, "h3", fixture("H3", gf(2)))
    for argv in (["battery", path], ["enumerate", path], ["corpus", "--limit", "0"]):
        doc, code = run_command([*argv, "--budget", "-1"])
        assert code == 3
        assert doc["error"]["type"] == "argument"
        assert "--budget" in doc["error"]["message"]
    doc, code = run_command(["corpus", "--limit", "0", "--budget", "0"])
    assert code == 0 and doc["budget"] == 0


def test_cli_corpus_filters_by_field_and_kind(members):
    # the field is parsed, so every spelling of GF(2) picks the same members
    docs = [run_command(["corpus", "--battery", "--field", name, "--kind", "fixture"])
            for name in ("gf2", "GF(2)")]
    assert [code for _, code in docs] == [0, 0]
    rows = docs[0][0]["members"]
    assert docs[1][0]["members"] == rows
    chosen = [m for m in members if m.algebra.field == gf(2) and m.kind == "fixture"]
    assert [row["label"] for row in rows] == [m.label for m in chosen]
    for row, m in zip(rows, chosen):
        rep = theorem_battery(m.algebra)
        assert ((row["verdict"], row["hard_failures"], row["findings"], row["clauses"])
                == (rep.verdict.label, list(rep.hard_failures), list(rep.findings),
                    len(rep.clauses))), m.label


def test_cli_corpus_counts_unknown_verdicts():
    doc, code = run_command(["corpus", "--battery", "--field", "q", "--kind", "fixture"])
    assert code == 0
    assert [row["label"] for row in doc["members"] if row["verdict"] == "unknown"] == ["sl2/Q"]
    assert doc["battery"] == {"failed_members": [], "unknown_verdicts": 1}


def test_cli_corpus_lists_failed_members(monkeypatch):
    def fail(L):
        return False, f"forced failure in dimension {L.dim}"

    rows = tuple(aalgebra._Row(row.clause, fail) if row.clause == "nilradical_centralizer"
                 else row for row in aalgebra._BATTERY)
    monkeypatch.setattr(aalgebra, "_BATTERY", rows)
    doc, code = run_command(["corpus", "--battery", "--field", "gf2", "--kind", "fixture",
                             "--limit", "2"])
    assert code == 1
    labels = [row["label"] for row in doc["members"]]
    assert doc["battery"]["failed_members"] == labels
    assert all(row["hard_failures"] == ["nilradical_centralizer"] for row in doc["members"])


def test_cli_corpus_refuses_an_unknown_field():
    doc, code = run_command(["corpus", "--field", "nonsense"])
    assert code == 3
    assert doc["error"]["type"] == "BadSpec"
    assert "nonsense" in doc["error"]["message"]


def test_cli_corpus_lists_quotients():
    doc, code = run_command(["corpus", "--kind", "quotient", "--limit", "1"])
    assert code == 0
    assert [row["kind"] for row in doc["members"]] == ["quotient"]


def test_cli_census_rows_are_cyclic_reports():
    doc, code = run_command(["census", "--fields", "gf2,gf3", "--max-n", "3"])
    assert code == 0
    rows = doc["rows"]
    assert len(rows) == (2 + 4) + (3 + 9)
    head = {"command", "seed", "budget"}
    for row in rows:
        field = "gf2" if row["field"] == "GF(2)" else "gf3"
        report, code = run_command(["cyclic", "--field", field,
                                    *(str(a[0]) for a in row["alphas"])])
        assert code == 0
        assert row == {k: v for k, v in report.items() if k not in head}
    assert doc["summary"] == {
        "total": len(rows),
        "is_a": sum(row["is_a"] for row in rows),
        "nilpotent": sum(row["nilpotent"] for row in rows),
        "monolithic": sum(row["monolithic_claim"] for row in rows),
        "frattini_free": sum(row["frattini_free_claim"] for row in rows),
        "cross_check_failures": 0}


@pytest.mark.parametrize("argv, message", [
    (["--max-n", "1"], "--max-n must be at least 2: 1"),
    (["--fields", "q"], "the census sweep needs finite fields"),
], ids=["max-n-1", "rationals"])
def test_cli_census_refuses_bad_sweeps(argv, message):
    doc, code = run_command(["census", *argv])
    assert code == 3
    assert doc["error"] == {"type": "BadSpec", "message": message}


CENSUS = Path(__file__).resolve().parent.parent / "scripts" / "cyclic_census.py"


def _census(*argv):
    return subprocess.run([sys.executable, str(CENSUS), *argv],
                          capture_output=True, text=True)


def test_census_refuses_max_n_below_two():
    run = _census("--max-n", "1", "--format", "json")
    assert run.returncode == 2
    assert run.stdout == ""
    assert "--max-n must be at least 2" in run.stderr


def test_census_text_shows_scalars_as_coefficients():
    # a prime-field scalar shows as its digit, a GF(4) scalar as its digits
    run = _census("--fields", "gf2,gf4", "--max-n", "2")
    assert run.returncode == 0
    assert re.findall(r"alphas=\((.*?)\)  ", run.stdout) == [
        "0", "1", "[0, 0]", "[1, 0]", "[0, 1]", "[1, 1]"]


def test_census_text_shows_the_factored_polynomial():
    run = _census("--fields", "gf2,gf3", "--max-n", "4")
    assert run.returncode == 0
    lines = run.stdout.splitlines()
    assert any(line.endswith("x^4 + x^3 + x = (x) * (x^3 + x^2 + 1)")
               and "GF(2)  n=4  alphas=(1,0,1)" in line for line in lines)
    assert any(line.endswith("x^3 = (x) * (x)^2")
               and "GF(3)  n=3  alphas=(0,0)" in line for line in lines)


def test_census_refuses_output():
    run = _census("--max-n", "2", "--output", "census.txt")
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "cyclic_census.py: error: --output is not supported; redirect stdout\n"


SWEEP = CENSUS.parent / "corpus_battery_sweep.py"


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_returns_through_the_runner(command, capsys):
    argv = ["--help"] if command is None else [command, "--help"]
    doc, code = run_command(argv)
    assert (list(doc), code) == (["help"], 0)
    prog = "leibnizalg" if command is None else f"leibnizalg {command}"
    assert doc["help"].startswith(f"usage: {prog} ")
    for flags, _ in () if command is None else _COMMANDS[command][2]:
        assert flags[0] in doc["help"]
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == doc["help"]


@pytest.mark.parametrize("script", [CENSUS, SWEEP], ids=lambda p: p.name)
def test_script_help_names_the_script(script):
    run = subprocess.run([sys.executable, str(script), "--help"],
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith(f"usage: {script.name} ")
    assert "[--output" not in run.stdout
    assert not any(line.lstrip().startswith("--output") for line in run.stdout.splitlines())


def test_sweep_rows_match_the_battery_in_process(members):
    # the script's rows are the battery at its 100k budget, seed 0, on the
    # filtered slice, and its summary counts those rows
    run = subprocess.run([sys.executable, str(SWEEP), "--field", "GF(2)",
                          "--kind", "fixture", "--format", "json"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    rows = doc["rows"]
    chosen = [m for m in members
              if str(m.algebra.field) == "GF(2)" and m.kind == "fixture"]
    assert [row["label"] for row in rows] == [m.label for m in chosen]
    for row, m in zip(rows, chosen):
        rep = theorem_battery(m.algebra, seed=0, budget=100_000)
        assert ((row["dim"], row["verdict"], row["hard_failures"], row["findings"],
                 row["clauses"])
                == (m.algebra.dim, rep.verdict.label, list(rep.hard_failures),
                    list(rep.findings), len(rep.clauses))), m.label
    summary = doc["summary"]
    assert summary["members"] == len(rows) > 0
    assert summary["failed_members"] == [row["label"] for row in rows
                                         if row["hard_failures"]]
    assert summary["unknown_verdicts"] == sum(row["verdict"] == "unknown"
                                              for row in rows)


def test_cli_budget_exceeded(tmp_path):
    path = _write(tmp_path, "h3", fixture("H3", gf(2)))
    doc, code = run_command(["enumerate", path, "--budget", "3"])
    assert code == 2
    assert doc["error"]["type"] == "BudgetExceeded"


def test_cli_enumerate_infinite_field(tmp_path):
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    doc, code = run_command(["enumerate", path])
    assert code == 2
    assert doc["error"]["type"] == "InfiniteFieldUnsupported"


def test_cli_missing_file():
    doc, code = run_command(["check", "/nonexistent/x.json"])
    assert code == 3
    assert doc["error"]["type"] == "missing_file"


def test_cli_directory_input(tmp_path):
    doc, code = run_command(["check", str(tmp_path)])
    assert code == 3
    assert doc["error"]["type"] == "unreadable_file"


def test_cli_non_utf8_input(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format_version": 1, "basis_names": ["\xe9"]}')
    doc, code = run_command(["check", str(path)])
    assert code == 3
    assert doc["error"]["type"] == "unreadable_file"


def test_cli_bad_field():
    doc, code = run_command(["cyclic", "--field", "gf6", "1"])
    assert code == 3
    assert doc["error"]["type"] == "BadSpec"


def test_cli_refuses_a_prime_above_the_primality_bound(tmp_path):
    # 2**89 - 1 passes Miller-Rabin above the bound where that decides
    # primality; the trial division that followed did not end
    p = 2 ** 89 - 1
    doc, code = run_command(["cyclic", "--field", f"gf({p})", "1"])
    assert (code, doc["error"]["type"]) == (3, "BadSpec")
    path = tmp_path / "big.json"
    field = {"kind": "prime_field", "p": p}
    path.write_text(json.dumps(dict(algebra_to_doc(fixture("A2", gf(2))), field=field)))
    doc, code = run_command(["check", str(path)])
    assert (code, doc["error"]["type"]) == (3, "FieldParseError")


def test_cli_refuses_a_reducible_modulus(tmp_path):
    path = tmp_path / "reducible.json"
    field = {"kind": "extension_field", "p": 2, "k": 2, "modulus": [1, 0, 1]}
    path.write_text(json.dumps(dict(algebra_to_doc(fixture("A2", gf(4))), field=field)))
    doc, code = run_command(["check", str(path)])
    assert (code, doc["error"]["type"]) == (3, "FieldParseError")
    assert "reducible" in doc["error"]["message"]


@pytest.mark.parametrize("degree", [0, -1])
def test_cli_bad_extension_degree(degree):
    doc, code = run_command(["cyclic", "--field", f"gf(2,{degree})", "1"])
    assert code == 3
    assert doc["error"]["type"] == "BadSpec"


def test_cli_bad_scalar_located(tmp_path):
    base = algebra_to_doc(fixture("A2", gf(2)))
    base["table"][0][1][0] = "zebra"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(base))
    doc, code = run_command(["check", str(path)])
    assert code == 3
    assert doc["error"]["type"] == "ParseError"
    assert doc["error"]["where"] == "table[0][1][0]"


@pytest.mark.parametrize("key,value,error", [
    ("field", {"kind": "prime_field", "p": 2.5}, "FieldParseError"),
    ("format_version", True, "ParseError"),
], ids=["float-p", "bool-version"])
def test_cli_refuses_a_file_with_a_non_int_entry(tmp_path, key, value, error):
    base = algebra_to_doc(fixture("A2", gf(2)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(base, **{key: value})))
    doc, code = run_command(["check", str(path)])
    assert code == 3
    assert doc["error"]["type"] == error


def test_json_output_deterministic(tmp_path):
    path = _write(tmp_path, "c2", fixture("C2", gf(3)))
    a = render(run_command(["analyze", path])[0], "json")
    b = render(run_command(["analyze", path])[0], "json")
    assert a == b
    json.loads(a)


def test_main_stdout_and_output_file(tmp_path, capsys):
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    code = main(["check", path, "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["leibniz"] is True

    out = tmp_path / "report.json"
    code = main(["check", path, "--format", "json", "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["leibniz"] is True


def test_main_unwritable_output(tmp_path, capsys):
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    out = tmp_path / "missing" / "report.json"
    code = main(["check", path, "--format", "json", "--output", str(out)])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "unwritable_output"
    assert not out.parent.exists()


def test_main_refuses_abbreviated_options(tmp_path, capsys):
    # main reads --format and --output with its own parser, so neither it
    # nor the subcommand parsers may take abbreviations of them
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    out = tmp_path / "o.txt"
    for argv in (["check", path, "--fo", "json"],
                 ["check", path, "--out", str(out)]):
        doc, code = run_command(argv)
        assert code == 3
        assert doc["error"]["type"] == "argument"
        assert main(argv) == 3
        assert "unrecognized arguments" in capsys.readouterr().out
    assert not out.exists()


def test_main_output_option_missing_its_value(tmp_path, monkeypatch, capsys):
    # --output takes no option string as its path: the argument error is
    # printed as text on stdout and no file named --format is written
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "r2", fixture("r2", QQ))
    assert main(["check", "r2.json", "--output", "--format", "json"]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r2.json"]
    out = capsys.readouterr().out
    assert out.startswith("error:\n  type: argument\n")
    assert "argument --output: expected one argument" in out


def test_text_render(tmp_path, capsys):
    path = _write(tmp_path, "h3", fixture("H3", QQ))
    assert main(["analyze", path]) == 0
    text = capsys.readouterr().out
    assert "nilpotent: True" in text
    assert "derived: [3, 1, 0]" in text


# -------------------------------------------------------- CLI golden digest

CLI_GOLDEN_SUBSPACE_CAP = 300


def test_cli_analyze_and_decompose_golden_digest(members, tmp_path):
    """The JSON of `analyze` and `decompose`, which render the series
    dimensions and the triangular parts, on every member over Q and every
    finite member with at most CLI_GOLDEN_SUBSPACE_CAP subspaces."""
    digest = hashlib.sha256()
    outputs = 0
    for i, m in enumerate(members):
        L = m.algebra
        if L.field.is_finite and total_subspaces(L.dim, L.field.size) > CLI_GOLDEN_SUBSPACE_CAP:
            continue
        path = tmp_path / f"member{i}.json"
        path.write_text(dumps_algebra(L), encoding="utf-8")
        for command in ("analyze", "decompose"):
            doc, code = run_command([command, str(path), "--format", "json"])
            digest.update(f"{m.label} {command} {code}\n".encode())
            digest.update(render(doc, "json").encode())
            outputs += 1
    assert outputs == 462
    assert digest.hexdigest() == (
        "07f2a648b95c333062d8304a306fecf981556b0e67002eee6b41843aa249e918")


BENCHMARK_REFERENCE = (Path(__file__).resolve().parent.parent
                       / "benchmark" / "reference" / "cli-oneshot.json")


def test_cli_decompose_matches_the_benchmark_reference(members, tmp_path):
    """The seed-0 `decompose` reports of the benchmark's cli-oneshot
    catalogue, the finite members with 10^4 to 10^5 subspaces, each in a
    file named by the digest of its text, are byte for byte the ones
    recorded in benchmark/reference/cli-oneshot.json."""
    ops = json.loads(BENCHMARK_REFERENCE.read_text(encoding="utf-8"))["ops"]
    expected = {key: (op["code"], op["digest"]) for key, op in ops.items()
                if key.startswith("cli:decompose:") and key.endswith("|seed=0")}
    got = {}
    for m in members:
        L = m.algebra
        if not (L.field.is_finite and 10 ** 4 <= total_subspaces(L.dim, L.field.size) <= 10 ** 5):
            continue
        text = dumps_algebra(L)
        name = hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        doc, code = run_command(["decompose", str(path), "--format", "json", "--seed", "0"])
        got[f"cli:decompose:{name}|seed=0"] = (
            code, hashlib.sha256(render(doc, "json").encode("utf-8")).hexdigest())
    assert len(expected) == 19
    assert got == expected


def _golden_inputs(tmp_path):
    """Small algebra files for the report digest below, by name."""
    paths = {}
    for name, L in (("h3_gf2", fixture("H3", gf(2))), ("c2_gf3", fixture("C2", gf(3))),
                    ("c3b_gf2", fixture("C3b", gf(2))), ("c2_q", fixture("C2", QQ)),
                    ("r2_q", fixture("r2", QQ))):
        paths[name] = _write(tmp_path, name, L)
    not_leibniz = tmp_path / "not_leibniz.json"
    not_leibniz.write_text(json.dumps({"format_version": 1, "field": {"kind": "rationals"},
                                       "dim": 1, "table": [[["1"]]]}))
    paths["not_leibniz"] = str(not_leibniz)
    bad = algebra_to_doc(fixture("A2", gf(2)))
    bad["table"][0][1][0] = "zebra"
    bad_scalar = tmp_path / "bad_scalar.json"
    bad_scalar.write_text(json.dumps(bad))
    paths["bad_scalar"] = str(bad_scalar)
    return paths


CLI_GOLDEN_CASES = (
    ("check", "h3_gf2"), ("check", "r2_q"), ("check", "not_leibniz"),
    ("a-algebra", "h3_gf2"), ("a-algebra", "c2_gf3"), ("a-algebra", "c2_q"),
    ("battery", "c3b_gf2"), ("battery", "c2_q"),
    ("frattini", "h3_gf2"), ("frattini", "c2_gf3"),
    ("enumerate", "h3_gf2", "--kind", "subspaces", "--list"),
    ("enumerate", "h3_gf2", "--kind", "subalgebras", "--list"),
    ("enumerate", "c2_gf3", "--kind", "ideals", "--list"),
    ("cyclic", "--field", "q", "1/2", "-1"),
    ("cyclic", "--field", "gf2", "1", "0", "1"),
    ("cyclic", "--field", "gf4", "1", "[0,1]"),
    ("corpus", "--limit", "4"),
    ("corpus", "--battery", "--limit", "2"),
    # error documents
    ("check", "/nonexistent/x.json"),
    ("analyze", "not_leibniz"), ("battery", "not_leibniz"),
    ("check", "bad_scalar"),
    ("enumerate", "h3_gf2", "--budget", "3"),
    ("enumerate", "r2_q"),
    ("cyclic", "--field", "gf6", "1"),
)


CLI_GOLDEN_MEMBER_CAP = 40


def test_cli_reports_golden_digest(members, tmp_path):
    """The reports of the other commands, and the error documents, in both
    formats: `check`, `a-algebra`, `battery` and `frattini` on every finite
    member with at most CLI_GOLDEN_MEMBER_CAP subspaces and every member
    over Q of dimension at most 3, then the cases above."""
    digest = hashlib.sha256()
    outputs = 0

    def record(label, argv):
        nonlocal outputs
        doc, code = run_command(argv)
        digest.update(f"{label} {code}\n".encode())
        for fmt in ("json", "text"):
            digest.update(render(doc, fmt).encode())
        outputs += 1

    for i, m in enumerate(members):
        L = m.algebra
        finite = L.field.is_finite
        if (total_subspaces(L.dim, L.field.size) > CLI_GOLDEN_MEMBER_CAP if finite
                else L.dim > 3):
            continue
        path = tmp_path / f"member{i}.json"
        path.write_text(dumps_algebra(L), encoding="utf-8")
        commands = ("check", "a-algebra", "battery") + (("frattini",) if finite else ())
        for command in commands:
            record(f"{m.label} {command}", [command, str(path)])
    paths = _golden_inputs(tmp_path)
    for case in CLI_GOLDEN_CASES:
        record(" ".join(case), [paths.get(token, token) for token in case])
    assert outputs == 330
    assert digest.hexdigest() == (
        "2ebd1b0198b09b0d1eaf7436c639b879e98240500f85c820fc5ffd871fea0dda")
