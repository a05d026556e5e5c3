"""Exception hierarchy shared across the package."""


class EchogradError(Exception):
    """Base class for package-specific failures."""


class ConfigError(EchogradError):
    """Invalid configuration file, flag combination, or model descriptor."""


class NumericalError(EchogradError):
    """Base class for failures of the numerical machinery."""


class DivergenceError(NumericalError):
    """A state became non-finite during integration, relaxation or a
    boundary value solve.

    ``step`` is the first step with a non-finite state and ``row`` the first
    batch row holding one at that step (``None`` where not applicable).
    """

    def __init__(self, message: str, step: int | None = None, row: int | None = None):
        super().__init__(message)
        self.step = step
        self.row = row


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its budget before reaching tolerance."""


class SingularHessianError(NumericalError):
    """A velocity or momentum Hessian, or a boundary value defect Jacobian,
    could not be inverted."""
