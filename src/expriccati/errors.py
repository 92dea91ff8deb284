"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A problem or integrator configuration is inconsistent."""


class SolvabilityError(ArithmeticError):
    """A Sylvester-type operator is singular or too close to singular.

    ``separation`` is the smallest |lambda_i(A) + mu_j(D)| over the two
    spectra (zero means exactly singular) and ``condition`` a rough
    estimate of the operator condition derived from it.
    """

    def __init__(self, message, separation=0.0, condition=float("inf")):
        super().__init__(message)
        self.separation = separation
        self.condition = condition


class FiniteEscapeError(ArithmeticError):
    """A reference flow-map solve exceeded its condition bound or met a non-finite value.

    For Riccati flows this is the numerical signature of a finite escape
    time (blow-up of the solution near a time the reference passes
    through), or of a bound too tight for the flow.
    """


class MatrixFormatError(ValueError):
    """A matrix file could not be parsed."""

    def __init__(self, message, path="", line=0):
        loc = f"{path}:{line}: " if line else (f"{path}: " if path else "")
        super().__init__(loc + message)
        self.path = path
        self.line = line


class IntegrationError(RuntimeError):
    """A time step failed.

    Carries the zero-based index of the failing step and the trajectory
    accumulated up to (and excluding) that step.
    """

    def __init__(self, message, step_index, trajectory=None):
        super().__init__(message)
        self.step_index = step_index
        self.trajectory = trajectory


class UsageError(ValueError):
    """Bad command-line or experiment-file input (CLI exit code 2)."""
