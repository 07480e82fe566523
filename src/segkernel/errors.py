"""Exception types shared across the package."""


class SegkernelError(Exception):
    """Base class for all package-specific failures."""


class MonotonicityViolation(SegkernelError):
    """Computed profile has a non-increasing node; spurious branch."""


class WindowTooContaminated(SegkernelError):
    """Asymptotic fit window still carries the decaying component."""


class DegenerateFit(SegkernelError):
    """Too few nodes in the requested fit window."""


class GridMismatch(SegkernelError):
    """Operands live on different grids."""


class SingularSystem(SegkernelError):
    """Factorization hit a zero or near-zero pivot."""


class GramSingular(SegkernelError):
    """Projection carriers are (numerically) linearly dependent."""


class ResolutionInsufficient(SegkernelError):
    """Two-resolution residual measurements disagree by 5% or more."""


class NoConvergence(SegkernelError):
    """An iteration failed: the profile Newton solve missed its residual
    tolerance, or the eigenvalue iteration hit its cap or failed its
    certificate.

    Carries the last Rayleigh quotient in ``last_value`` (None for Newton).
    """

    def __init__(self, message, last_value=None):
        super().__init__(message)
        self.last_value = last_value


class BudgetExceeded(SegkernelError):
    """Problem size is over the guard for the exact method."""
