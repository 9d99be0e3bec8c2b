"""The package namespace and what a process imports.

``import leibnizalg`` imports no submodule; each public name comes from its
home module on first use, and the package binds the same objects as an
eager import would.  A CLI process imports only the modules its command
runs.  The import checks run in fresh interpreters, since this test
process has imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leibnizalg
from leibnizalg.algfile import dumps_algebra
from leibnizalg.cli import main
from leibnizalg.corpus import fixture
from leibnizalg.fields import QQ, gf

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names, by home module.
HOMES = {
    "aalgebra": "AVerdict BatteryReport ClauseResult StructureReport is_a_algebra "
                "lemma_aa_certificate structure_report theorem_battery verify_witness "
                "witness_search",
    "algfile": "algebra_from_doc algebra_to_doc dumps_algebra input_digest loads_algebra",
    "core": "LeibnizAlgebra Violation direct_sum",
    "corpus": "FIELDS FIXTURE_NAMES CorpusMember corpus fixture",
    "cyclic": "CyclicReport CyclicSpec build_cyclic classify_cyclic complement_vector "
              "generator_cofactor generator_polynomial",
    "decompose": "cartan_subalgebra enumerated_cartan_subalgebras fitting "
                 "fitting_family max_nilpotent_subalgebras triangular_decomposition",
    "enumeration": "DEFAULT_BUDGET SocleReport enumerate_spaces frattini_ideal "
                   "gaussian_binomial iter_ideals iter_subalgebras iter_subspaces "
                   "maximal_subalgebras socle_analysis total_subspaces",
    "errors": "AmbientMismatch BadSpec BudgetExceeded DecompositionFailed FieldParseError "
              "InfiniteFieldUnsupported LeibnizError NoSolution NotAnIdeal NotASubalgebra "
              "NotLeibniz ParseError ShapeMismatch ZeroPolynomial",
    "fields": "QQ ExtensionField PrimeField Rationals field_from_doc field_to_doc gf "
              "parse_field_name",
    "linalg": "Subspace image kernel rref solve",
    "poly": "Poly companion_matrix format_poly is_irreducible poly poly_factor",
    "series": "derived_length derived_series hypercentre is_completely_solvable "
              "is_metabelian is_nilpotent is_nilpotent_space is_solvable is_solvable_space "
              "lower_central_series lower_nilpotent_series nilpotency_class "
              "nilpotent_residual nilradical radical upper_central_series",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}


def _python(*args):
    """Run a fresh interpreter on the package in ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def _printed(code):
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_all_lists_the_public_names():
    assert len(HOME) == 96
    assert leibnizalg.__all__ == sorted(HOME)


def test_every_name_is_its_home_modules_object():
    for name, module in HOME.items():
        assert getattr(leibnizalg, name) is getattr(sys.modules[f"leibnizalg.{module}"], name)


def test_import_loads_no_submodule_until_a_name_is_used():
    assert _printed(
        "import json, sys, leibnizalg\n"
        "before = sorted(m for m in sys.modules if m.startswith('leibnizalg.'))\n"
        "leibnizalg.Subspace\n"
        "after = sorted(m for m in sys.modules if m.startswith('leibnizalg.'))\n"
        "print(json.dumps([before, after, leibnizalg.series.__name__]))\n"
    ) == [[], ["leibnizalg.errors", "leibnizalg.linalg", "leibnizalg.value"],
          "leibnizalg.series"]


@pytest.mark.parametrize("prelude", [
    "import leibnizalg.corpus",
    "import leibnizalg.poly",
    "import leibnizalg.fields",
    "import leibnizalg.corpus, leibnizalg.poly",
])
def test_functions_named_like_submodules_stay_functions(prelude):
    # importing the submodule corpus (or poly) binds it on the package, and
    # the function of that name must take its place again
    assert _printed(
        f"{prelude}\n"
        "import json, sys\n"
        "from leibnizalg import corpus, poly\n"
        "homes = [sys.modules['leibnizalg.corpus'].corpus, sys.modules['leibnizalg.poly'].poly]\n"
        "print(json.dumps([corpus is homes[0], poly is homes[1]]))\n"
    ) == [True, True]


def test_star_import_binds_every_name():
    assert _printed(
        "from leibnizalg import *\n"
        "import json, leibnizalg\n"
        "print(json.dumps([n for n in leibnizalg.__all__\n"
        "                  if globals().get(n) is not getattr(leibnizalg, n)]))\n"
    ) == []


# --------------------------------------------------------------------- CLI

CHECK_MODULES = ["algfile", "cli", "core", "enumeration", "errors", "fields", "linalg",
                 "value"]


def _run_command(tmp_path, command, q):
    """Run ``command`` on H3 over GF(q) in a fresh interpreter; return its
    exit code, the package modules it loaded and the modules it added to
    those of a bare interpreter."""
    path = tmp_path / "h3.json"
    path.write_text(dumps_algebra(fixture("H3", gf(q))), encoding="utf-8")
    out = tmp_path / "report.json"
    bare = _printed("import json, sys\nprint(json.dumps(sorted(sys.modules)))")
    code, loaded = _printed(
        "import json, sys\n"
        "from leibnizalg.cli import main\n"
        f"code = main([{command!r}, {str(path)!r}, '--format', 'json', '--output', {str(out)!r}])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    assert json.loads(out.read_text(encoding="utf-8"))["command"] == command
    return (code, [m for m in loaded if m.startswith("leibnizalg.")],
            set(loaded) - set(bare))


@pytest.mark.parametrize("command,modules", [
    ("check", CHECK_MODULES),
    ("analyze", sorted(CHECK_MODULES + ["series"])),
])
def test_a_command_imports_only_the_modules_it_runs(tmp_path, command, modules):
    # over GF(3) no module loads poly, dataclasses or inspect
    code, package, added = _run_command(tmp_path, command, 3)
    assert (code, package) == (0, [f"leibnizalg.{m}" for m in modules])
    assert {"dataclasses", "inspect"} & added == set()


def test_an_extension_field_loads_poly_and_nothing_else(tmp_path):
    code, package, added = _run_command(tmp_path, "check", 4)
    assert (code, package) == (0, [f"leibnizalg.{m}" for m in sorted(CHECK_MODULES + ["poly"])])
    assert {"dataclasses", "inspect"} & added == set()


NOT_LEIBNIZ = json.dumps({"format_version": 1, "field": {"kind": "rationals"},
                          "dim": 1, "table": [[["1"]]]})


@pytest.mark.parametrize("text,expected_code", [
    (dumps_algebra(fixture("H3", QQ)), 0),
    (NOT_LEIBNIZ, 1),
], ids=["leibniz", "violation"])
def test_module_entry_point_matches_main(tmp_path, capsys, text, expected_code):
    path = tmp_path / "algebra.json"
    path.write_text(text, encoding="utf-8")
    argv = ["check", str(path), "--format", "json"]
    assert main(argv) == expected_code
    expected = capsys.readouterr().out
    run = _python("-m", "leibnizalg", *argv)
    assert (run.returncode, run.stdout, run.stderr) == (expected_code, expected, "")
