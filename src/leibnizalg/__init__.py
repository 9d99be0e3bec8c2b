"""Exact-arithmetic analysis of finite-dimensional Leibniz algebras.

Algebras are given by structure-constant tables over the rationals or a
finite field.  The library computes characteristic series and radicals,
Fitting/Cartan/triangular decompositions, decides the A-algebra property
(every nilpotent subalgebra abelian) with three-valued verdicts,
classifies one-generator algebras, and runs an empirical battery of
structural statements over a reproducible corpus.
"""

from .aalgebra import (AVerdict, BatteryReport, ClauseResult, StructureReport,
                       is_a_algebra, lemma_aa_certificate, structure_report,
                       theorem_battery, verify_witness, witness_search)
from .algfile import (algebra_from_doc, algebra_to_doc, dumps_algebra,
                      input_digest, loads_algebra)
from .core import LeibnizAlgebra, Violation, direct_sum
from .corpus import FIELDS, FIXTURE_NAMES, CorpusMember, corpus, fixture
from .cyclic import (CyclicReport, CyclicSpec, build_cyclic, classify_cyclic,
                     complement_vector, describe_polynomial,
                     generator_cofactor, generator_polynomial)
from .decompose import (FittingPair, cartan_subalgebra,
                        enumerated_cartan_subalgebras, fitting, fitting_family,
                        max_nilpotent_subalgebras, triangular_decomposition)
from .enumeration import (DEFAULT_BUDGET, SocleReport, enumerate_spaces,
                          frattini_ideal, gaussian_binomial, iter_ideals,
                          iter_subalgebras, iter_subspaces, maximal_subalgebras,
                          socle_analysis, total_subspaces)
from .errors import (AmbientMismatch, BadSpec, BudgetExceeded,
                     DecompositionFailed, FieldParseError,
                     InfiniteFieldUnsupported, LeibnizError, NoSolution,
                     NotAnIdeal, NotASubalgebra, NotLeibniz, ParseError,
                     ShapeMismatch, ZeroPolynomial)
from .fields import (QQ, ExtensionField, PrimeField, Rationals, field_from_doc,
                     field_to_doc, gf, parse_field_name)
from .linalg import Subspace, image, kernel, rref, solve
from .poly import (Poly, companion_matrix, format_poly, is_irreducible, poly,
                   poly_factor)
from .series import (derived_length, derived_series, hypercentre,
                     is_completely_solvable, is_metabelian, is_nilpotent,
                     is_nilpotent_space, is_solvable, is_solvable_space,
                     lower_central_series, lower_nilpotent_series,
                     nilpotency_class, nilpotent_residual, nilradical, radical,
                     upper_central_series)

__version__ = "0.1.0"
