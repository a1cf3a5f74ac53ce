"""Domain-error types raised across the package."""


class HRGError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPrimeError(HRGError):
    """The lattice base p is not a prime number."""


class EpsRangeError(HRGError):
    """eps outside the admissible interval (0, 1]."""


class BoxBudgetError(HRGError):
    """Requested block enumeration exceeds the configured box budget."""


class BoxIndexError(HRGError):
    """Box address invalid for the given parameters."""


class DegreeError(HRGError):
    """Polynomial degree exceeds the supported cap."""


class WickConstantMismatchError(HRGError):
    """Binary operation on Wick polynomials with different constants."""


class BlowUpError(HRGError):
    """Couplings left the configured guard region during iteration."""


class NoGapError(HRGError):
    """Jacobian is not triangular with a dominant mass eigenvalue."""


class ManifoldRadiusError(HRGError):
    """Coupling outside the configured stable-manifold radius."""


class EscapeAmbiguousError(HRGError):
    """Bisection orbit neither escaped nor settled within the step budget."""


class ConvergenceError(HRGError):
    """Iterative limit not reached within the step budget."""


class OffManifoldError(HRGError):
    """Seed orbit does not approach the fixed point."""


class SeriesDivergenceError(HRGError):
    """A geometric series needed by an observable does not converge."""


class ContractionError(HRGError):
    """Deviation flow is not contracting at the requested point."""


class VolumeError(HRGError):
    """Sampling volume exceeds the configured budget."""


class NotPSDError(HRGError):
    """Covariance matrix failed a positive-semidefiniteness factorization."""


class SampleCountError(HRGError):
    """Too few samples for the requested estimator."""


class DomainError(HRGError):
    """Generic precondition violation on an operation domain."""


class IoError(HRGError):
    """Artifact input/output failure (bad schema, unwritable path)."""
