"""Exception types shared across the package."""


class SpherecombError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(SpherecombError, ValueError):
    """Operands have incompatible dimensions."""


class NotUnimodularError(SpherecombError, ValueError):
    """A matrix expected to lie in SL(d, Z) has determinant != 1."""


class UnknownLabelError(SpherecombError, KeyError):
    """An edge or word refers to a label absent from the generator system."""


class AutomatonFormatError(SpherecombError, ValueError):
    """An automaton description violates the file format or its invariants."""


class InconsistentAutomatonError(SpherecombError):
    """A constructed automaton failed its internal consistency checks."""


class RadiusExhaustedError(SpherecombError):
    """Breadth-first exploration ran out of new elements before the target radius."""


class NilpotentMatrixError(SpherecombError, ValueError):
    """The transition matrix has no cycle, so no spectral data exists."""


class NotAlmostSemisimpleError(SpherecombError):
    """Two maximal components are joined by a directed path (defective leading eigenvalue)."""


class SmallGrowthVertexError(SpherecombError, ValueError):
    """A chain was requested on a graph that still contains small-growth vertices."""


class BudgetExceededError(SpherecombError):
    """Exact enumeration would visit more paths than the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} nodes, budget is {budget}; "
            "switch to Monte Carlo mode or raise the budget"
        )
