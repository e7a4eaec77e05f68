"""Exception types shared across the package, and the rule of its integer arguments."""

import numbers


def check_integer(value, role: str, least: int | None = 0) -> None:
    """The check of every vertex, edge-index and size argument of the package.

    The value must be an integer (numpy integers too, but no bool and no
    float, integral or not) and, unless ``least`` is None, at least ``least``;
    else ``ValueError`` names the role.
    """
    # an int passes at once: the Integral check is an ABC lookup, slow per edge or step
    if type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
        raise ValueError(f"{role} {value!r} is not an integer")
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{role} must be {bound}")


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
