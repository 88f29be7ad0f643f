"""Exception types, and the one rule for arguments: every public function
and CLI command answers, with no NaN among the numbers it returns, or
raises DomainError (CLI exit 2) or ToleranceError (CLI exit 3), never a
bare TypeError or OverflowError.  The checks below raise DomainError
naming the argument; a real number is an int or a float.
"""

_MAX = 1.7976931348623157e308  # the largest double


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ToleranceError(RuntimeError):
    """A requested accuracy cannot be delivered.

    Raised when no admissible term count reaches the requested tolerance,
    or when the tolerance lies below the round-off floor of double
    precision at the evaluation point.
    """


def check_real(value, name: str) -> float:
    """`value` as a float, if it is a finite real number."""
    if not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not -_MAX <= value <= _MAX:  # NaN, inf, or an int whose digits str() may refuse
        shown = f"an int of {value.bit_length()} bits" if isinstance(value, int) else repr(value)
        raise DomainError(f"{name} must be finite, got {shown}") from None
    return float(value)


def check_positive(value, name: str) -> float:
    """`check_real`, for a value > 0."""
    if check_real(value, name) > 0.0:
        return float(value)
    raise DomainError(f"{name} must be > 0")


def check_tol(tol) -> None:
    """For a real number > 0; +inf asks for no accuracy."""
    refuse(("tol", tol))
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")


def check_count(value, name: str, top: int) -> None:
    """For an int (not a bool) in 1..top."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an int, got {value!r}")
    if not 1 <= check_real(value, name) <= top:
        raise DomainError(f"{name} must be in 1..{top}, got {value}")


def refuse(*named) -> None:
    """After a test of these (name, value) pairs raised TypeError or
    OverflowError: DomainError for the first value that caused it, if any."""
    for name, value in named:
        if not isinstance(value, float):  # NaN and inf cause neither
            check_real(value, name)
