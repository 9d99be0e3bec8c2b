"""Source hygiene: every name a library module imports is used there,
every private function, method or class is referenced by the package, and
every exception class in ``errors.py`` is raised by some library module.

``__init__.py`` is skipped by the import check, since its imports are the
package's re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "leibnizalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_scan_finds_unused_import():
    tree = ast.parse("import os\nfrom x import a, b as c\nprint(a)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "c")]


def _references(node):
    """Names read, attributes taken and names imported under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _unreferenced_privates(trees):
    """Underscore-prefixed, non-dunder definitions that nothing outside
    their own body refers to, as (module, line, name)."""
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if (isinstance(node, DEFINITIONS) and name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__"))
                    and refs[name] == _references(node)[name]):
                out.append((module, node.lineno, name))
    return sorted(out)


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_privates(trees) == []


def test_scan_finds_unreferenced_private():
    trees = {
        "a.py": ast.parse("def _used(): pass\n"
                          "def _dead(n): return _dead(n - 1)\n"
                          "class _Gone:\n"
                          "    def __init__(self): pass\n"
                          "    def _method(self): pass\n"),
        "b.py": ast.parse("from a import _used\n_used()\n"),
    }
    assert _unreferenced_privates(trees) == [
        ("a.py", 2, "_dead"), ("a.py", 3, "_Gone"), ("a.py", 5, "_method")]


def _raised(trees):
    """Names of the exceptions raised, bare or called, under the trees."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    out.add(exc.id)
    return out


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in MODULES]
    assert sorted(classes - _raised(trees)) == []


def test_scan_finds_raised_errors():
    tree = ast.parse("raise A\nraise B('x')\ntry:\n    pass\nexcept C:\n    raise\n")
    assert _raised([tree]) == {"A", "B"}


FIELD_TYPES = {"Fraction", "Rationals", "PrimeField", "ExtensionField"}


def _field_type_tests(tree):
    """Lines of ``isinstance`` calls that test for a field or scalar type,
    as (line, type name)."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            types = node.args[1]
            for t in types.elts if isinstance(types, ast.Tuple) else [types]:
                name = t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", "")
                if name in FIELD_TYPES:
                    out.append((node.lineno, name))
    return out


def test_field_types_tested_only_in_fields():
    found = {p.name: _field_type_tests(ast.parse(p.read_text(), filename=str(p)))
             for p in MODULES if p.name != "fields.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_finds_field_type_tests():
    tree = ast.parse("isinstance(c, Fraction)\n"
                     "isinstance(F, (int, fields.PrimeField))\n"
                     "isinstance(x, dict)\n"
                     "if isinstance(F, ExtensionField): pass\n")
    assert _field_type_tests(tree) == [(1, "Fraction"), (2, "PrimeField"),
                                       (4, "ExtensionField")]
