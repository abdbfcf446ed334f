"""Exception types shared across the package."""


class CondexpError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(CondexpError):
    """Malformed structured-text input; message carries a JSON-style path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class DimensionMismatch(CondexpError):
    """Vector values of inconsistent dimension."""


class IndexOutOfRange(SchemaError):
    """A selection or pure strategy names an index outside range(m)."""


class WeightInvalid(SchemaError):
    """Mixture weights are not m numbers, each >= 0, summing to one."""


class SaturatedBlock(CondexpError):
    """Region queries are undefined on saturated blocks."""


class NotGMeasurable(CondexpError):
    """Function is not constant on a coarse block where it must be."""


class NotSaturated(CondexpError):
    """Operation requires a saturated cell."""


class BoundaryPoint(CondexpError):
    """Conditioning point sits on the boundary where densities degenerate."""


class BudgetExceeded(CondexpError):
    """Search budget outside the supported desk-scale range."""


class UnsupportedDimension(CondexpError):
    """Exact vertex geometry is only available in dimension <= 3."""


class InfeasibleProgram(CondexpError):
    """Linear program has no feasible point."""


class UnboundedProgram(CondexpError):
    """Linear program is unbounded below."""


class AtomObstructionError(CondexpError):
    """Raised when an operation requires an atom-free space.

    Carries the obstruction certificate in ``obstruction``.
    """

    def __init__(self, obstruction):
        self.obstruction = obstruction
        super().__init__(str(obstruction))
