"""Exception types shared across the package."""


class SikError(Exception):
    """Base class for all package-specific errors."""


class NearSingularPencil(SikError):
    """Spectra of A and -A* overlap within tolerance: an eigenvalue sits on or
    near the imaginary axis, so the Lyapunov equation is (nearly) singular.

    Attributes carry the diagnostics the caller needs to report: the computed
    eigenvalues, the offending minimal pair sum, and the tolerance used.  The
    certification pipeline also attaches its unsolved truncation record.
    """

    def __init__(self, message, eigenvalues=None, pair_min=None, tol=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.pair_min = pair_min
        self.tol = tol
        self.truncation = None


class DeltaTooLarge(SikError):
    """delta_N = M N^-2 >= 1: the truncation is too coarse for any tail estimate."""


class NonHermitianInput(SikError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class DegenerateRestriction(SikError):
    """A rank decision in the addition-rule check is tolerance-ambiguous."""


class SingularSystem(SikError):
    """The Kronecker-form linear system for the Lyapunov equation is singular."""


class ConfigError(SikError):
    """A run configuration is malformed; message names the offending key."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key
