"""Coupled Markov processes with analytically known transfer entropy.

The source chain evolves on its own; the target's next symbol depends
on the pair (current target symbol, current source symbol).  Because
the coupled pair (x_t, y_t) is itself a first-order Markov chain, the
exact order-q transfer entropy at histories m = l = 1 can be computed
by enumerating the stationary joint distribution, which makes these
processes the ground truth the estimator is verified against.
Each row of both transition arrays passes the probability rule of `errors`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError, _integer, _integer_fields
from .errors import _probabilities, _real
from .infocore import conditional_mutual_information
from .symbolize import SymbolSeries

_POWER_TOL = 1e-14
_POWER_MAX_ITER = 10**6
_MAX_CELLS = 2**24  # largest transition array a preset or the oracle allocates
_SPEC_KEYS = ("alphabet_size", "source_transition", "target_transition")


def _check_alphabet(n, power: int) -> int:
    """Alphabet n as an int by the integer rule (at least 2), refused before an
    array of n**power cells past _MAX_CELLS is allocated."""
    n = _integer("alphabet_size", n, 2)
    if n**power > _MAX_CELLS:
        raise ValidationError(
            f"alphabet {n} needs {n}**{power} cells, past the limit of {_MAX_CELLS}"
        )
    return n


def _fidelity(value) -> float:
    """Copy fidelity as a float by the real-number rule, refused outside (0, 1]."""
    value = _real("fidelity", value)
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"fidelity must lie in (0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class CoupledMarkovSpec:
    """Transition law of a source-driven pair of symbol chains.

    source_transition[y, y']    = P(y_{t+1} = y' | y_t = y)
    target_transition[x, y, x'] = P(x_{t+1} = x' | x_t = x, y_t = y)

    Generated series start from uniformly drawn symbols.
    """

    alphabet_size: int
    source_transition: np.ndarray
    target_transition: np.ndarray

    def __post_init__(self):
        _integer_fields(self, alphabet_size=2)
        n = self.alphabet_size
        for name, shape in (("source_transition", (n, n)), ("target_transition", (n, n, n))):
            arr = _probabilities(name, getattr(self, name), axes=1)
            if arr.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in _SPEC_KEYS},
                          default=np.ndarray.tolist, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CoupledMarkovSpec":
        try:
            raw = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
            raise ValidationError(f"process spec is not JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValidationError(f"process spec must be a JSON object, got {type(raw).__name__}")
        for key in raw:
            if key not in _SPEC_KEYS:
                raise ValidationError(f"process spec has an unknown key {key!r}")
        for key in _SPEC_KEYS:
            if key not in raw:
                raise ValidationError(f"process spec has no {key!r} key")
        return cls(**raw)


def copy_spec(alphabet_size: int = 3) -> CoupledMarkovSpec:
    """Deterministic coupling x_{t+1} = y_t with an i.i.d. uniform source."""
    return noisy_copy_spec(alphabet_size, 1.0)


def noisy_copy_spec(alphabet_size: int = 2, fidelity: float = 0.75) -> CoupledMarkovSpec:
    """x_{t+1} copies y_t with probability `fidelity`, else errs uniformly."""
    n = _check_alphabet(alphabet_size, 3)
    fidelity = _fidelity(fidelity)
    a = np.full((n, n), 1.0 / n)
    b = np.full((n, n, n), (1.0 - fidelity) / (n - 1))
    for y in range(n):
        b[:, y, y] = fidelity
    return CoupledMarkovSpec(n, a, b)


def independent_spec(alphabet_size: int = 3) -> CoupledMarkovSpec:
    """Zero coupling: both chains are i.i.d. uniform."""
    n = _check_alphabet(alphabet_size, 3)
    a = np.full((n, n), 1.0 / n)
    b = np.broadcast_to(np.full(n, 1.0 / n), (n, n, n)).copy()
    return CoupledMarkovSpec(n, a, b)


def generate(spec: CoupledMarkovSpec, length: int, seed: int) -> tuple[SymbolSeries, SymbolSeries]:
    """Sample a (target, source) series pair of the given length.

    The source advances by its own transition row; the target draws from
    the slice selected by (x_t, y_t).  Deterministic under the seed.
    """
    length = _integer("length", length, 2)
    n = spec.alphabet_size
    rng = np.random.default_rng(_integer("seed", seed) & 0xFFFFFFFFFFFFFFFF)
    ux, uy = rng.random((2, length)).tolist()

    # Cumulative rows as plain Python lists: the sequential loop is much
    # faster on scalars than on numpy indexing.  A draw is the first symbol
    # whose cumulative probability exceeds u, and the last symbol otherwise.
    cum_a = np.cumsum(spec.source_transition, axis=1).tolist()
    cum_b = np.cumsum(spec.target_transition, axis=2).tolist()
    cum_init = np.cumsum(np.full(n, 1.0 / n)).tolist()
    last = n - 1
    x, y = bisect_right(cum_init, ux[0], 0, last), bisect_right(cum_init, uy[0], 0, last)
    xs, ys = [x], [y]
    for u, v in zip(ux[1:], uy[1:]):
        x, y = bisect_right(cum_b[x][y], u, 0, last), bisect_right(cum_a[y], v, 0, last)
        xs.append(x)
        ys.append(y)
    return (
        SymbolSeries(symbols=xs, alphabet_size=n, label="X"),
        SymbolSeries(symbols=ys, alphabet_size=n, label="Y"),
    )


def _reaching(transition: np.ndarray, state: int) -> np.ndarray:
    """Which states reach `state` over the nonzero entries of a transition matrix."""
    reach = frontier = np.arange(len(transition)) == state
    while frontier.any():
        frontier = (transition @ frontier > 0) & ~reach
        reach = reach | frontier
    return reach


def stationary_joint(spec: CoupledMarkovSpec) -> np.ndarray:
    """Stationary distribution pi(x, y) of the coupled pair chain.

    Power iteration of the lazy chain (P + I) / 2 from the uniform
    distribution, which has P's stationary laws and settles on periodic
    chains too: the step pi @ P is returned once it is within 1e-14 of
    pi in max norm, and a chain not settled after 10^6 steps is an error.
    A chain with more than one stationary law is refused.  The pair
    transition matrix has n**4 cells, so an alphabet past 2**24 of them
    is refused.
    """
    n = _check_alphabet(spec.alphabet_size, 4)
    # P[(x, y), (x', y')] = B[x, y, x'] * A[y, y']
    transition = np.einsum("xyu,yv->xyuv", spec.target_transition, spec.source_transition)
    transition = transition.reshape(n * n, n * n)
    pi = np.full(n * n, 1.0 / (n * n))
    for _ in range(_POWER_MAX_ITER):
        step = pi @ transition
        step /= step.sum()
        if np.max(np.abs(step - pi)) < _POWER_TOL:
            break
        pi = (pi + step) / 2
    else:
        raise ConvergenceError(f"power iteration did not converge within {_POWER_MAX_ITER} steps")
    # The most likely state lies in a closed class, and the law is unique
    # exactly when every state can reach it.
    if not _reaching(transition, int(np.argmax(step))).all():
        raise ValidationError("the coupled chain has more than one closed class, "
                              "so more than one stationary law")
    return step.reshape(n, n)


def exact_transfer_entropy(spec: CoupledMarkovSpec, q) -> float:
    """Exact order-q transfer entropy from source to target at m = l = 1.

    The conditional mutual information I_q(X'; Y | X) of the stationary
    joint p(x', y, x) = pi(x, y) * B[x, y, x'], one transition step from
    the stationary pair distribution.
    """
    return conditional_mutual_information(
        np.einsum("xy,xyu->uyx", stationary_joint(spec), spec.target_transition), q
    )
