"""Exception types shared across the package, and the integer rule that raises one."""

import numbers


class ValidationError(ValueError):
    """An input object violates one of its documented invariants."""


class MalformedHeaderError(ValidationError):
    """A CSV file is missing its header row or a required column."""


class NonAscendingTimestampsError(ValidationError):
    """Timestamps in a series are not strictly ascending."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget without converging."""


def _integer(name: str, value) -> int:
    """`value` as a Python int, refusing with a ValidationError that names `name` a
    value that is not an integer (a numpy integer is one; a bool or a float is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _integer_fields(spec, *names) -> None:
    """Store each named field of the frozen `spec` as a Python int by `_integer`."""
    for name in names:
        object.__setattr__(spec, name, _integer(name, getattr(spec, name)))
