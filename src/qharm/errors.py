"""Exception types shared across the library."""


class QHarmError(Exception):
    """Base class for library errors."""


class TruncationCapError(QHarmError):
    """A series or product did not converge within the term cap."""


class PoleProximityError(QHarmError):
    """An evaluation point is too close to a pole of the q-exponential."""


class LatticeMismatchError(QHarmError):
    """Operands live on different lattice windows."""


class PrecisionLossError(QHarmError):
    """A value lost more digits to cancellation than its tolerance allows."""
