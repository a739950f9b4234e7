"""Exception hierarchy shared across the package."""


class LabError(Exception):
    """Base class for all lsslab errors."""


class NonConvergence(LabError):
    """Iterative solver failed to reach its residual target."""


class BranchViolation(LabError):
    """Fixed point converged on the wrong half plane."""


class OutsideSupport(LabError):
    """Density requested off the spectral bulk."""


class LogDomain(LabError):
    """Log test function evaluated on its branch cut, or its contour cannot avoid it."""


class NodeSingularity(LabError):
    """Integrand blew up at a quadrature node."""


class QuadratureStall(LabError):
    """Node doubling stopped reducing the quadrature error estimate."""


class FlatContour(LabError):
    """The contour hugs the bulk so closely that its quadrature cannot converge."""


class DenominatorNearZero(LabError):
    """Mean-correction denominator vanished at a quadrature node."""


class KernelOutOfDisk(LabError):
    """Covariance kernel left the unit disk, variance formula invalid."""


class ZeroVariance(LabError):
    """Normalization requested with sigma = 0."""


class DegenerateTruncation(LabError):
    """Truncation removed essentially all entry mass."""


class EmptySample(LabError):
    """Statistic requested on an empty sample."""


class TooFewPoints(LabError):
    """Rate fit needs at least three (n, ks) points."""


class NonPositiveKs(LabError):
    """Rate fit requires strictly positive KS values."""


class OutOfRange(LabError):
    """Argument outside the guaranteed-stable evaluation range."""


class CostBudgetExceeded(LabError):
    """Projected work exceeds the configured cost cap."""


class ConfigError(LabError):
    """Base class for configuration parsing problems."""


class UnknownKey(ConfigError):
    """Config contains a key the schema does not define."""


class TypeMismatch(ConfigError):
    """Config value has the wrong type."""


class MissingRequired(ConfigError):
    """Required config field absent."""


class ConstraintViolation(ConfigError):
    """Config value violates a documented constraint."""
