"""Exception types raised across the qinv package."""


class QinvError(Exception):
    """Base class for every error raised by qinv."""


class LengthMismatchError(QinvError, ValueError):
    """Amplitude vector or operator string has the wrong length."""


class ZeroVectorError(QinvError, ValueError):
    """Amplitude vector has (numerically) zero norm."""


class TooLargeError(QinvError, ValueError):
    """Qubit count exceeds the supported maximum."""


class NonFiniteError(QinvError, ValueError):
    """Amplitude vector has NaN or infinite entries (or its squared norm overflows)."""


class UnnormalizedError(QinvError, ValueError):
    """Operation requires a normalized state."""


class BadSubsetError(QinvError, ValueError):
    """Qubit subset is empty or contains out-of-range indices."""


class DimensionMismatchError(QinvError, ValueError):
    """Matrices do not have compatible dimensions or qubit labels."""


class IndexOutOfRangeError(QinvError, IndexError):
    """Qubit index outside 1..n."""


class SameIndexError(QinvError, ValueError):
    """Two qubit indices that must differ are equal."""


class WrongQubitCountError(QinvError, ValueError):
    """State has the wrong number of qubits for this invariant."""


class OddQubitCountError(WrongQubitCountError):
    """Invariant is defined only for an even number of qubits."""


class EvenQubitCountError(WrongQubitCountError):
    """Invariant is defined only for an odd number of qubits."""


class NotUnitaryError(QinvError, ValueError):
    """Matrix expected to be unitary is not, within tolerance."""


class HermitianViolationError(QinvError):
    """Hermitian expectation came back with a large imaginary part.

    This signals a kernel bug, not bad user input.
    """


class InternalDisagreementError(QinvError):
    """Two formulas for the same invariant disagree beyond tolerance."""


class InvariantNotApplicableError(QinvError, ValueError):
    """Requested invariant does not apply to this state or group."""


class ConditioningFailureError(QinvError, RuntimeError):
    """Rejection sampling could not produce a well-conditioned operator."""


class StateFileError(QinvError, ValueError):
    """Unreadable or schema-invalid state file (CLI exit code 2)."""


class UnnormalizedInputError(UnnormalizedError):
    """State file is not normalized and --normalize was not given (CLI exit code 3)."""
