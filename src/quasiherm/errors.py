"""Exception hierarchy shared by all quasiherm modules."""


class QuasihermError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QuasihermError):
    """Operands do not share a compatible dimension."""


class DefectiveMatrix(QuasihermError):
    """Biorthonormalization failed: the matrix is (numerically) non-diagonalizable."""


class NotHermitian(QuasihermError):
    """A Hermitian matrix was required but the Hermitian defect exceeds tolerance."""


class NotPositiveDefinite(QuasihermError):
    """A positive-definite matrix was required."""


class SingularMatrix(QuasihermError):
    """Pivot collapsed during elimination: the matrix is numerically singular."""


class ExponentialOverflow(QuasihermError):
    """A matrix exponential has a non-finite entry (the input is too large)."""


class ComplexSpectrum(QuasihermError):
    """The spectrum has imaginary parts beyond tolerance: no admissible metric exists."""


class SpanMismatch(QuasihermError):
    """The two independent constructions of the metric solution space disagree."""


class NonPositiveWeight(QuasihermError):
    """Metric weights must be strictly positive."""


class NotHermitianParameter(QuasihermError):
    """An operator parameter must be Hermitian."""


class SingularParameter(QuasihermError):
    """An operator parameter must be invertible."""


class QuasiHermiticityViolation(QuasihermError):
    """The supplied (operator, metric) pair fails the intertwining relation."""


class FactorizationMismatch(QuasihermError):
    """Recomposed factors do not reproduce the metric they were extracted from."""


class WrongN(QuasihermError):
    """Operation is only defined for a specific chain depth."""


class ZeroState(QuasihermError):
    """A nonzero state vector is required."""


class ZeroParameter(QuasihermError):
    """A nonzero model parameter is required."""


class BadDimension(QuasihermError):
    """Model dimension out of range."""


class BadRange(QuasihermError):
    """Invalid parameter interval or sample grid."""


class InputFormatError(QuasihermError):
    """A serialized matrix, vector, chain or config failed to parse."""


class DegenerateSpectrumWarning(UserWarning):
    """Eigenvalue gap below tolerance: the metric family has a multi-member cluster."""
