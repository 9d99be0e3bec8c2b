"""Exact-arithmetic analysis of finite-dimensional Leibniz algebras.

Algebras are given by structure-constant tables over the rationals or a
finite field.  The library computes characteristic series and radicals,
Fitting/Cartan/triangular decompositions, decides the A-algebra property
(every nilpotent subalgebra abelian) with three-valued verdicts,
classifies one-generator algebras, and runs an empirical battery of
structural statements over a reproducible corpus.

``import leibnizalg`` imports no submodule: each public name is imported
from its home module on first use (PEP 562), so a process pays only for
the modules it uses.
"""

import importlib
import sys
import types

_MODULE_EXPORTS = {
    "aalgebra": ("AVerdict", "BatteryReport", "ClauseResult", "StructureReport",
                 "is_a_algebra", "lemma_aa_certificate", "structure_report",
                 "theorem_battery", "verify_witness", "witness_search"),
    "algfile": ("algebra_from_doc", "algebra_to_doc", "dumps_algebra",
                "input_digest", "loads_algebra"),
    "core": ("LeibnizAlgebra", "Violation", "direct_sum"),
    "corpus": ("FIELDS", "FIXTURE_NAMES", "CorpusMember", "corpus", "fixture"),
    "cyclic": ("CyclicReport", "CyclicSpec", "build_cyclic", "classify_cyclic",
               "complement_vector", "generator_cofactor", "generator_polynomial"),
    "decompose": ("cartan_subalgebra", "enumerated_cartan_subalgebras", "fitting",
                  "fitting_family", "max_nilpotent_subalgebras",
                  "triangular_decomposition"),
    "enumeration": ("DEFAULT_BUDGET", "SocleReport", "enumerate_spaces",
                    "frattini_ideal", "gaussian_binomial", "iter_ideals",
                    "iter_subalgebras", "iter_subspaces", "maximal_subalgebras",
                    "socle_analysis", "total_subspaces"),
    "errors": ("AmbientMismatch", "BadSpec", "BudgetExceeded", "DecompositionFailed",
               "FieldParseError", "InfiniteFieldUnsupported", "LeibnizError",
               "NoSolution", "NotAnIdeal", "NotASubalgebra", "NotLeibniz",
               "ParseError", "ShapeMismatch", "ZeroPolynomial"),
    "fields": ("QQ", "ExtensionField", "PrimeField", "Rationals", "field_from_doc",
               "field_to_doc", "gf", "parse_field_name"),
    "linalg": ("Subspace", "image", "kernel", "rref", "solve"),
    "poly": ("Poly", "companion_matrix", "format_poly", "is_irreducible", "poly",
             "poly_factor"),
    "series": ("derived_length", "derived_series", "hypercentre",
               "is_completely_solvable", "is_metabelian", "is_nilpotent",
               "is_nilpotent_space", "is_solvable", "is_solvable_space",
               "lower_central_series", "lower_nilpotent_series", "nilpotency_class",
               "nilpotent_residual", "nilradical", "radical", "upper_central_series"),
}

# public name -> home module
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # The import system binds each submodule on the package once it has
        # run.  Bind the submodule's exports with it: the functions ``corpus``
        # and ``poly``, not the submodules of those names, stay the package's
        # attributes, and ``__getattr__`` is not needed for them again.
        if isinstance(value, types.ModuleType) and value.__name__ == f"{__name__}.{name}":
            for export in _MODULE_EXPORTS.get(name, ()):
                super().__setattr__(export, getattr(value, export))


def __getattr__(name):
    """Import the home module of a public name, or a submodule, on first use."""
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULE_EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


sys.modules[__name__].__class__ = _Package
