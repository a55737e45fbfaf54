"""Exception types shared across the package, the one conversion of outside input
to an array, and the integer, real, integer-array, series and probability rules raising one."""

import math
import numbers

import numpy as np

# A distribution whose sum is off 1 by more than this is refused, never renormalized.
PROB_TOL = 1e-12


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


def _real(name: str, value) -> float:
    """`value` as a finite float, refusing with a ValidationError that names `name` a
    value that is not a real number (a bool, a string or a complex is not) or not
    finite.  A plain float skips the slower abstract-class check."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int or a Fraction past the float range
            raise ValidationError(f"{name} is past the float range") from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _integer_fields(spec, **minimums) -> None:
    """Store each named field of the frozen `spec` as a Python int by `_integer`,
    with its lower bound (None for none)."""
    for name, minimum in minimums.items():
        object.__setattr__(spec, name, _integer(name, getattr(spec, name), minimum))


def _array(name: str, values) -> np.ndarray:
    """`values` as a numpy array, refusing with a ValidationError that names `name`
    a ragged nesting of sequences, which numpy cannot hold in one shape."""
    try:
        return np.asarray(values)
    except ValueError:
        raise ValidationError(f"{name} must be a rectangular array, "
                              "got a ragged nesting of sequences") from None


def _integers(name: str, values) -> np.ndarray:
    """`values` as a new, read-only, one-dimensional int64 array, refusing with a
    ValidationError that names `name` a value that is not integers (bools, floats,
    strings and objects are not), not one-dimensional, empty, or past int64."""
    arr = _array(name, values)
    # numpy holds Python ints as floats or objects when one of them is past int64
    wide = (arr.dtype.kind in "fO" and arr.ndim == 1 and arr.size > 0
            and all(type(v) is int for v in values))
    if not wide and (arr.dtype.kind not in "iu" or arr.ndim != 1 or arr.size == 0):
        raise ValidationError(f"{name} must be a non-empty one-dimensional array of int64 "
                              f"integers, got shape {arr.shape} of dtype {arr.dtype}")
    if wide or arr.dtype.kind == "u" and arr.max() > np.iinfo(np.int64).max:
        # max(v, -1 - v) passes 2**63 - 1 just where v lies past int64: report the farthest
        past = max(map(int, values), key=lambda v: max(v, -1 - v))
        raise ValidationError(f"{name} must fit in int64, got {past}")
    arr = arr.astype(np.int64)
    arr.flags.writeable = False
    return arr


def _series(name: str, values) -> np.ndarray:
    """`values` as a new, read-only, one-dimensional float array, refusing with a
    ValidationError that names `name` a value that is not numbers, not
    one-dimensional, empty, or holding a NaN or an infinity."""
    arr = _array(name, values)
    if arr.dtype.kind not in "iuf" or arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty one-dimensional array of numbers, "
                              f"got shape {arr.shape} of dtype {arr.dtype}")
    arr = arr.astype(float)
    finite = np.isfinite(arr)
    if not finite.all():
        at = int(np.argmin(finite))
        raise ValidationError(f"{name} must be finite, got the non-finite value {arr[at]} "
                              f"at position {at}")
    arr.flags.writeable = False
    return arr


def _probabilities(name: str, values, axes: int | None = None) -> np.ndarray:
    """`values` as a new, read-only float array whose cells follow the series rule (a
    0-d array is no distribution), refusing with a ValidationError that names `name` a
    negative cell or a distribution over the last `axes` axes (all when None) whose sum
    is off 1 by more than PROB_TOL."""
    arr = _array(name, values)
    arr = _series(name, arr.ravel() if arr.ndim else arr).reshape(arr.shape)
    if np.any(arr < 0.0):
        raise ValidationError(f"{name} holds a negative probability")
    off = np.abs(arr.reshape(*arr.shape[:arr.ndim - (axes or arr.ndim)], -1).sum(axis=-1) - 1.0)
    if np.any(off > PROB_TOL):
        raise ValidationError(f"{name} has a distribution off 1 by {float(off.max())!r}, "
                              f"past the tolerance {PROB_TOL}")
    return arr
