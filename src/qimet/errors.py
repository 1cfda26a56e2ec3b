"""Exception types raised across the package.

All errors derive from :class:`QimetError` so callers can catch the package's
failures with a single except clause while still being able to distinguish
the individual conditions.
"""


class QimetError(Exception):
    """Base class for all qimet errors."""


class DimensionMismatch(QimetError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(QimetError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotPSD(QimetError):
    """A matrix required to be positive semidefinite has an eigenvalue
    below the negative clamping threshold."""


class InvalidModel(QimetError):
    """A noise model violates its structural invariants (bad weights,
    missing entries, wrong dimensions, non-trace-preserving tables...)."""


class UnsupportedDimension(QimetError):
    """A dimension outside the supported range was requested."""


class DimensionTooLarge(QimetError):
    """A Choi block's side or the oracle's Woodbury factor is over its cap."""


class Unconverged(QimetError):
    """The SDP oracle stopped with a certified gap above the requested
    tolerance.  The message names why it stopped (``max_iterations``,
    ``step_collapse`` or ``linalg_error``); the partial result (with honest
    bounds) is attached as the ``result`` attribute."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
