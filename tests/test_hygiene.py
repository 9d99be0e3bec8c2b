"""Source hygiene: every name a library module imports is used there,
every private function, method or class is referenced by the package,
every public one is used by the package, the scripts, the benchmark, the
acceptance tests or the kernel reference (a re-export is not a use),
every parameter of every function is read in its body, every
exception class in ``errors.py`` is raised by some library module,
only the witness search's module imports ``random``, only
``fields.py`` imports ``fractions``, calls ``range`` on a field's
``.size`` or tests a scalar with ``.is_zero``, no module imports
``dataclasses`` or ``inspect``, no script imports a private name of the
package, and every public ``LeibnizAlgebra`` method checks its subspace
arguments with ``_own``.

``__init__.py`` is skipped by the import check, since its imports are the
package's re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "leibnizalg"
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


def _unreferenced_publics(trees, users=(), exempt=frozenset()):
    """Public module-level functions and classes, and public methods of
    public classes, that nothing outside their own body refers to, as
    (module, line, name).  References count from the package's modules
    other than ``__init__.py``, whose re-exports are no use, and from the
    ``users`` trees.  ``exempt`` holds (class, method) pairs that are never
    reported."""
    refs = sum((_references(tree) for module, tree in trees.items()
                if module != "__init__.py"), Counter())
    refs += sum((_references(tree) for tree in users), Counter())
    out = []

    def visit(module, body, cls):
        for node in body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            if ((cls, node.name) not in exempt
                    and refs[node.name] == _references(node)[node.name]):
                out.append((module, node.lineno, node.name))
            if isinstance(node, ast.ClassDef) and cls is None:
                visit(module, node.body, node.name)

    for module, tree in trees.items():
        visit(module, tree.body, None)
    return sorted(out)


FIELD_CLASSES = ("Rationals", "PrimeField", "ExtensionField")


def _scalar_interface(tree):
    """(class, method) for each method that every field class defines: the
    scalar interface, which callers reach through any field (the benchmark
    counts ``div`` on each class, though the package never calls it)."""
    methods = {node.name: {sub.name for sub in node.body if isinstance(sub, DEFINITIONS)}
               for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in FIELD_CLASSES}
    shared = set.intersection(*methods.values())
    return {(cls, name) for cls in methods for name in shared}


# Code outside the package that may be the only user of a public name.
USERS = (sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "kernel_reference.py"])


def test_no_unreferenced_public_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    users = [ast.parse(p.read_text(), filename=str(p)) for p in USERS]
    assert _unreferenced_publics(trees, users, _scalar_interface(trees["fields.py"])) == []


def test_scan_finds_unreferenced_public():
    trees = {
        "a.py": ast.parse("def used(): pass\n"
                          "def exported(): pass\n"
                          "def dead(n): return dead(n - 1)\n"
                          "class Kept:\n"
                          "    def run(self): pass\n"
                          "    def idle(self): pass\n"
                          "    def spare(self): pass\n"
                          "class _Hidden:\n"
                          "    def idle(self): pass\n"
                          "def scripted(): pass\n"),
        "b.py": ast.parse("from a import used, Kept\nused()\nKept().run()\n"),
        "__init__.py": ast.parse("from .a import exported, scripted\n"),
    }
    users = [ast.parse("import pkg\npkg.scripted()\n")]
    assert _unreferenced_publics(trees, users, {("Kept", "spare")}) == [
        ("a.py", 2, "exported"), ("a.py", 3, "dead"), ("a.py", 6, "idle")]
    fields = ast.parse("class Rationals:\n    def add(self): pass\n    def parse(self): pass\n"
                       "class PrimeField:\n    def add(self): pass\n"
                       "class ExtensionField:\n    def add(self): pass\n")
    assert _scalar_interface(fields) == {("Rationals", "add"), ("PrimeField", "add"),
                                         ("ExtensionField", "add")}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _unread_parameters(tree):
    """Parameters that their function's body never reads, as (line,
    function, parameter); a method need not read ``self`` or ``cls``.  The
    battery runner passes each check the facts its parameters name, so an
    unread one is a fact computed for nothing."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        out.extend((node.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params
                   if p is not None and p.arg not in read and p.arg not in ("self", "cls"))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unread_parameters(tree) == []


def test_scan_finds_unread_parameters():
    tree = ast.parse("def f(a, b, *rest, c=1, **extra):\n"
                     "    return a + c\n"
                     "def g(x, y):\n"
                     "    return lambda z: x\n"
                     "class K:\n"
                     "    def run(self, n):\n"
                     "        return n\n")
    assert _unread_parameters(tree) == [
        (1, "f", "b"), (1, "f", "extra"), (1, "f", "rest"),
        (3, "g", "y"), (4, "<lambda>", "z")]


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


def _imports(tree, module):
    """Whether the tree imports the top-level ``module``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == module for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == module:
            return True
    return False


def _importers(module):
    return [p.name for p in sorted(SRC.glob("*.py"))
            if _imports(ast.parse(p.read_text(), filename=str(p)), module)]


def test_only_the_witness_search_imports_random():
    # randomness may decide only whether a witness is found; every other
    # result, decompositions included, depends on the algebra and budget
    assert _importers("random") == ["aalgebra.py"]


def test_scan_finds_random_imports():
    assert _imports(ast.parse("import random\n"), "random")
    assert _imports(ast.parse("from random import Random\n"), "random")
    assert _imports(ast.parse("def f():\n    import random as r\n"), "random")
    assert not _imports(ast.parse("import randomize\n"
                                  "from .random import x\n"
                                  "from .fields import random_scalar\n"), "random")


def test_only_fields_imports_fractions():
    # Rationals alone decides when a scalar is an int and when a Fraction
    assert _importers("fractions") == ["fields.py"]


def test_scan_finds_fractions_imports():
    assert _imports(ast.parse("from fractions import Fraction\n"), "fractions")
    assert _imports(ast.parse("import fractions\n"), "fractions")
    assert _imports(ast.parse("def f():\n    from fractions import Fraction as F\n"),
                    "fractions")
    assert not _imports(ast.parse("from .fields import Fraction\n"
                                  "import fractionsx\n"), "fractions")


def test_no_module_imports_dataclasses_or_inspect():
    # value.Value stands in for dataclasses, and functions are read through
    # __code__: a CLI process compiles neither module
    assert _importers("dataclasses") + _importers("inspect") == []


def test_scan_finds_dataclasses_and_inspect_imports():
    assert _imports(ast.parse("from dataclasses import dataclass, replace\n"), "dataclasses")
    assert _imports(ast.parse("def f(g):\n    import inspect\n"), "inspect")
    assert not _imports(ast.parse("from .value import Value\n"
                                  "import inspection\n"), "inspect")


def _private_imports(tree):
    """Underscore-prefixed names imported from ``leibnizalg``, or from one of
    its modules, as (line, name)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            path = node.module.split(".")
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            path, names = [], [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = path + name.split(".")
            if parts[0] == "leibnizalg" and any(p.startswith("_") for p in parts[1:]):
                out.append((node.lineno, name))
    return out


def test_scripts_import_no_private_names():
    # the scripts lay out CLI reports, through the package's public names
    found = {p.name: _private_imports(ast.parse(p.read_text(), filename=str(p)))
             for p in sorted((ROOT / "scripts").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_finds_private_imports():
    tree = ast.parse("from leibnizalg.cli import _count, run_command\n"
                     "from leibnizalg import _internal\n"
                     "import leibnizalg._private.x\n"
                     "from leibnizalg.poly import format_poly\n"
                     "from other import _hidden\n"
                     "from .local import _near\n"
                     "import leibnizalg.cli\n")
    assert _private_imports(tree) == [(1, "_count"), (2, "_internal"),
                                      (3, "leibnizalg._private.x")]


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


def _unowned_subspaces(tree, cls="LeibnizAlgebra"):
    """(method, parameter) for each parameter annotated ``Subspace`` of a
    public method of ``cls`` that reaches no ``self._own``: the method
    neither passes it to ``self._own`` nor, in a position the callee owns,
    to another method of ``cls``.  Only positional arguments count."""
    methods = {f.name: f for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == cls
               for f in node.body if isinstance(f, ast.FunctionDef)}
    params = {name: [a.arg for a in f.args.args[1:]] for name, f in methods.items()}
    owned, grew = set(), True  # (method, parameter position)
    while grew:
        grew = False
        for name, f in methods.items():
            for call in ast.walk(f):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "self"):
                    continue
                for pos, arg in enumerate(call.args):
                    if (isinstance(arg, ast.Name) and arg.id in params[name]
                            and (call.func.attr == "_own" or (call.func.attr, pos) in owned)):
                        key = (name, params[name].index(arg.id))
                        grew |= key not in owned
                        owned.add(key)
    return sorted((name, a.arg) for name, f in methods.items() if not name.startswith("_")
                  for pos, a in enumerate(f.args.args[1:])
                  if a.annotation is not None and (name, pos) not in owned
                  and any(isinstance(sub, ast.Name) and sub.id == "Subspace"
                          for sub in ast.walk(a.annotation)))


def test_subspace_arguments_are_owned():
    # a space over another field or ambient must raise AmbientMismatch, not
    # pass as a subalgebra or fail deep in the bracket
    path = SRC / "core.py"
    assert _unowned_subspaces(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_finds_unowned_subspaces():
    tree = ast.parse("class LeibnizAlgebra:\n"
                     "    def own(self, U: Subspace, n: int):\n"
                     "        self._own(U)\n"
                     "    def passes(self, n, U: Subspace):\n"
                     "        return self.own(U, n)\n"
                     "    def wrong_slot(self, U: Subspace, V: Subspace):\n"
                     "        return self.own(V, U)\n"
                     "    def bare(self, U: Optional[Subspace]):\n"
                     "        return U.dim\n"
                     "    def later(self, U: Subspace):\n"
                     "        return self.chained(U)\n"
                     "    def chained(self, U: Subspace):\n"
                     "        return self.passes(0, U)\n"
                     "    def _private(self, U: Subspace):\n"
                     "        return U\n"
                     "class Other:\n"
                     "    def bare(self, U: Subspace):\n"
                     "        return U\n")
    assert _unowned_subspaces(tree) == [("bare", "U"), ("wrong_slot", "U")]


# The traced benchmark counts scalar operations by patching
# ``vars(cls)[method]`` on each field class (``benchmark/tracer.py``), so a
# method inherited from a shared base class would go uncounted.
FIELD_CLASSES = ("PrimeField", "ExtensionField", "Rationals")
SCALAR_METHODS = ("add", "sub", "mul", "neg", "inv", "div", "is_zero")


def _scalar_methods_missing(tree):
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in FIELD_CLASSES:
            own = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            out[node.name] = [m for m in SCALAR_METHODS if m not in own]
    return out


def test_field_classes_define_their_scalar_methods():
    path = SRC / "fields.py"
    missing = _scalar_methods_missing(ast.parse(path.read_text(), filename=str(path)))
    assert missing == {name: [] for name in FIELD_CLASSES}


def test_scan_finds_inherited_scalar_methods():
    tree = ast.parse("class PrimeField(Base):\n"
                     "    def add(self, a, b): pass\n"
                     "    zero = 0\n")
    assert _scalar_methods_missing(tree) == {"PrimeField": list(SCALAR_METHODS[1:])}


def _size_ranges(tree):
    """Lines of ``range`` calls over a ``.size``: the scalars of a finite
    field spelt as the ints below its size."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "range"
                  and any(isinstance(sub, ast.Attribute) and sub.attr == "size"
                          for arg in node.args for sub in ast.walk(arg)))


def test_field_scalars_listed_only_in_fields():
    # a finite field's scalars are F.elements(); only fields.py knows they
    # are range(q)
    found = {p.name: _size_ranges(ast.parse(p.read_text(), filename=str(p)))
             for p in MODULES if p.name != "fields.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _scalar_zero_tests(tree):
    """Lines of ``.is_zero(...)`` calls with an argument: a field's zero
    test, not the no-argument one of a subspace or polynomial."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "is_zero" and (node.args or node.keywords))


def test_scalars_tested_for_zero_only_by_truthiness():
    # every field's zero is the only falsy scalar (see fields.py), so one
    # spelling serves the kernel's inner loops and every other caller
    found = {p.name: _scalar_zero_tests(ast.parse(p.read_text(), filename=str(p)))
             for p in MODULES if p.name != "fields.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_finds_scalar_zero_tests():
    tree = ast.parse("F.is_zero(a)\n"
                     "W.is_zero()\n"
                     "all(L.field.is_zero(c) for c in v)\n"
                     "if p.is_zero(): pass\n"
                     "F.is_zero(a=c)\n"
                     "not c\n")
    assert _scalar_zero_tests(tree) == [1, 3, 5]


def test_scan_finds_size_ranges():
    tree = ast.parse("range(F.size)\n"
                     "product(range(L.field.size), repeat=2)\n"
                     "range(1, F.size - 1)\n"
                     "range(len(size))\n"
                     "F.elements()\n"
                     "range(n)\n")
    assert _size_ranges(tree) == [1, 2, 3]
