"""Exception types shared across the library."""

# Default cap on the words any enumeration may visit; past it the call
# raises SearchSpaceTooLarge instead of running.
DEFAULT_BUDGET = 1 << 25


class VCodesError(Exception):
    """Base class for all library errors."""


class ParamMismatch(VCodesError, ValueError):
    """Operands belong to different fields or rings, or an option name is unknown."""


class DivisionByZero(VCodesError, ZeroDivisionError):
    """Inversion or division by a zero element / zero polynomial."""


class ParseError(VCodesError, ValueError):
    """Text does not match the element / polynomial / file grammar."""


class ShapeError(VCodesError, ValueError):
    """Ragged or dimensionally inconsistent input."""


class CharacteristicTwoUnsupported(VCodesError):
    """The evaluation/CRT splitting needs 2 to be invertible (q odd)."""


class SearchSpaceTooLarge(VCodesError):
    """An enumeration would exceed the configured budget."""


class NotADivisor(VCodesError, ValueError):
    """Generator polynomial does not divide x^n - 1."""


class EmptyCode(VCodesError):
    """The zero code has no nonzero codeword to measure."""


class NotSymmetric(VCodesError, ValueError):
    """Matrix input violates A^T = A."""


class TransformInconsistent(VCodesError):
    """A MacWilliams transform produced non-integral or negative counts."""
