"""Exception types shared across the package."""


class GaudinError(Exception):
    """Base class for all workbench errors."""


class NotAPartition(GaudinError):
    """Sequence is not weakly decreasing and nonnegative."""


class DistinctnessError(GaudinError):
    """Evaluation sites must be pairwise distinct."""


class SchemaError(GaudinError):
    """Problem JSON does not conform to the input schema."""


class PoleEvaluation(GaudinError):
    """Rational function evaluated at a pole."""


class ImproperRational(GaudinError):
    """Expansion at infinity requires deg(num) <= deg(den)."""


class DimensionMismatch(GaudinError):
    """Incompatible matrix or module dimensions."""


class RepeatedSites(DistinctnessError):
    """Tensor evaluation sites coincide."""


class NotInvariant(GaudinError):
    """Subspace is not preserved by the operator family."""


class PointNotInU(GaudinError):
    """Point lies on a forbidden hyperplane of the master function domain."""


class ZeroVector(GaudinError):
    """Weight function vanished at a critical point (computation fault)."""


class KernelDimensionMismatch(GaudinError):
    """Polynomial kernel of the master operator has unexpected dimension."""


class ShapeNormalizationFailure(GaudinError):
    """Kernel basis cannot be brought to the prescribed coefficient shape."""


class AmbientTooSmall(GaudinError):
    """Ambient polynomial degree bound violates the required inequalities."""


class TermLimitExceeded(GaudinError):
    """Weight-function term count exceeds the configured budget."""
