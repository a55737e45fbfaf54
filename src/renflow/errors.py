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


def _integer(name: str, value, minimum: int | None = None) -> int:
    """`value` as a Python int, refusing with a ValidationError that names `name` a
    value that is not an integer (a numpy integer is one; a bool or a float is not)
    or one below `minimum`.  A plain int skips the slower abstract-class check."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {value}")
    return value


def _integer_fields(spec, **minimums) -> None:
    """Store each named field of the frozen `spec` as a Python int by `_integer`,
    with its lower bound (None for none)."""
    for name, minimum in minimums.items():
        object.__setattr__(spec, name, _integer(name, getattr(spec, name), minimum))
