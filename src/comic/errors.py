"""Exception types shared across the package, and the integer and real checks that raise one."""

import numbers
import operator


class ArgumentError(ValueError):
    """A caller violated a documented precondition."""


class NumericError(FloatingPointError):
    """A computation produced or encountered a non-finite value."""


class ParseError(ValueError):
    """A text input could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FetchError(OSError):
    """A download failed after all retries."""


def check_int(name: str, value) -> int:
    """value as a Python int (operator.index); ArgumentError naming name otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None


def check_real(name: str, value) -> float:
    """value as a Python float if it is a numbers.Real; ArgumentError naming name otherwise."""
    if not isinstance(value, numbers.Real):
        raise ArgumentError(f"{name} must be a real number, got {value!r}")
    return float(value)
