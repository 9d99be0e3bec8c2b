"""Exception taxonomy shared across the package."""


class LeibnizError(Exception):
    """Base class for library-specific errors."""


class FieldParseError(LeibnizError, ValueError):
    """A scalar literal does not denote an element of the declared field."""


class ParseError(LeibnizError, ValueError):
    """An algebra document is malformed.  ``where`` locates the offence."""

    def __init__(self, message, where=None):
        self.where = where
        super().__init__(message if where is None else f"{where}: {message}")


class ZeroPolynomial(LeibnizError, ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class ShapeMismatch(LeibnizError, ValueError):
    """Vector/matrix dimensions do not line up."""


class AmbientMismatch(ShapeMismatch):
    """Two subspaces live in different ambient spaces or fields."""


class NoSolution(LeibnizError):
    """A linear system has no solution."""


class NotLeibniz(LeibnizError):
    """A structure-constant table violates the Leibniz identity."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(f"Leibniz identity fails at basis triple {violation.triple}")


class NotASubalgebra(LeibnizError):
    """The subspace is not closed under the product."""


class NotAnIdeal(LeibnizError):
    """The subspace is not a two-sided ideal."""


class DecompositionFailed(LeibnizError):
    """A Fitting, Cartan or triangular decomposition is not there or does
    not verify: the algebra is not solvable, Fitting components fail their
    checks, no Cartan subalgebra is found within the budget, or the parts
    found lack their invariants."""


class InfiniteFieldUnsupported(LeibnizError):
    """Subspace enumeration needs a finite ground field."""


class BudgetExceeded(LeibnizError):
    """The enumeration would visit more subspaces than the budget allows."""

    def __init__(self, needed, budget):
        self.needed = needed
        self.budget = budget
        super().__init__(f"enumeration needs {needed} subspaces, budget is {budget}")


class BadSpec(LeibnizError, ValueError):
    """A construction spec (cyclic algebra, field name, ...) is invalid."""
