"""Coupled Markov processes with analytically known transfer entropy.

The source chain evolves on its own; the target's next symbol depends
on the pair (current target symbol, current source symbol).  Because
the coupled pair (x_t, y_t) is itself a first-order Markov chain, the
exact order-q transfer entropy at histories m = l = 1 can be computed
by enumerating the stationary joint distribution, which makes these
processes the ground truth the estimator is verified against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .infocore import RenyiOrder, conditional_entropy
from .symbolize import SymbolSeries

_ROW_TOL = 1e-12
_POWER_TOL = 1e-14
_POWER_MAX_ITER = 10**6


def _check_stochastic(arr: np.ndarray, name: str) -> np.ndarray:
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must contain finite non-negative probabilities")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _ROW_TOL):
        raise ValidationError(f"every conditional slice of {name} must sum to 1")
    return arr


@dataclass(frozen=True)
class CoupledMarkovSpec:
    """Transition law of a source-driven pair of symbol chains.

    source_transition[y, y']    = P(y_{t+1} = y' | y_t = y)
    target_transition[x, y, x'] = P(x_{t+1} = x' | x_t = x, y_t = y)

    Initial distributions default to uniform.
    """

    alphabet_size: int
    source_transition: np.ndarray
    target_transition: np.ndarray
    initial_source: np.ndarray | None = None
    initial_target: np.ndarray | None = None

    def __post_init__(self):
        n = self.alphabet_size
        if n < 2:
            raise ValidationError("alphabet size must be at least 2")
        a = np.asarray(self.source_transition, dtype=float)
        b = np.asarray(self.target_transition, dtype=float)
        if a.shape != (n, n):
            raise ValidationError(f"source transition must be {n}x{n}, got {a.shape}")
        if b.shape != (n, n, n):
            raise ValidationError(f"target transition must be {n}x{n}x{n}, got {b.shape}")
        _check_stochastic(a, "source transition")
        _check_stochastic(b, "target transition")
        init_y = self._init_vector(self.initial_source, n, "initial source")
        init_x = self._init_vector(self.initial_target, n, "initial target")
        for name, arr in (("source_transition", a), ("target_transition", b),
                          ("initial_source", init_y), ("initial_target", init_x)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @staticmethod
    def _init_vector(value, n: int, name: str) -> np.ndarray:
        if value is None:
            return np.full(n, 1.0 / n)
        arr = np.asarray(value, dtype=float)
        if arr.shape != (n,):
            raise ValidationError(f"{name} must have length {n}")
        if np.any(arr < 0.0) or abs(arr.sum() - 1.0) > _ROW_TOL:
            raise ValidationError(f"{name} must be a probability vector")
        return arr

    def to_json(self) -> str:
        return json.dumps(
            {
                "alphabet_size": self.alphabet_size,
                "source_transition": self.source_transition.tolist(),
                "target_transition": self.target_transition.tolist(),
                "initial_source": self.initial_source.tolist(),
                "initial_target": self.initial_target.tolist(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CoupledMarkovSpec":
        raw = json.loads(text)
        return cls(
            alphabet_size=int(raw["alphabet_size"]),
            source_transition=np.asarray(raw["source_transition"], dtype=float),
            target_transition=np.asarray(raw["target_transition"], dtype=float),
            initial_source=np.asarray(raw["initial_source"], dtype=float)
            if "initial_source" in raw else None,
            initial_target=np.asarray(raw["initial_target"], dtype=float)
            if "initial_target" in raw else None,
        )


def copy_spec(alphabet_size: int = 3) -> CoupledMarkovSpec:
    """Deterministic coupling x_{t+1} = y_t with an i.i.d. uniform source."""
    return noisy_copy_spec(alphabet_size, 1.0)


def noisy_copy_spec(alphabet_size: int = 2, fidelity: float = 0.75) -> CoupledMarkovSpec:
    """x_{t+1} copies y_t with probability `fidelity`, else errs uniformly."""
    n = alphabet_size
    if n < 2:
        raise ValidationError("alphabet size must be at least 2")
    if not 0.0 < fidelity <= 1.0:
        raise ValidationError("fidelity must lie in (0, 1]")
    a = np.full((n, n), 1.0 / n)
    b = np.full((n, n, n), (1.0 - fidelity) / (n - 1))
    for y in range(n):
        b[:, y, y] = fidelity
    return CoupledMarkovSpec(n, a, b)


def independent_spec(alphabet_size: int = 3) -> CoupledMarkovSpec:
    """Zero coupling: both chains are i.i.d. uniform."""
    n = alphabet_size
    a = np.full((n, n), 1.0 / n)
    b = np.broadcast_to(np.full(n, 1.0 / n), (n, n, n)).copy()
    return CoupledMarkovSpec(n, a, b)


def generate(spec: CoupledMarkovSpec, length: int, seed: int) -> tuple[SymbolSeries, SymbolSeries]:
    """Sample a (target, source) series pair of the given length.

    The source advances by its own transition row; the target draws from
    the slice selected by (x_t, y_t).  Deterministic under the seed.
    """
    if length < 2:
        raise ValidationError("generated series need length >= 2")
    n = spec.alphabet_size
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    uniforms = rng.random((2, length))

    # Cumulative rows as plain Python lists: the sequential loop is much
    # faster on scalars than on numpy indexing.
    cum_a = np.cumsum(spec.source_transition, axis=1).tolist()
    cum_b = np.cumsum(spec.target_transition, axis=2).tolist()
    cum_init_y = np.cumsum(spec.initial_source).tolist()
    cum_init_x = np.cumsum(spec.initial_target).tolist()

    def draw(cum_row, u):
        for idx in range(n - 1):
            if u < cum_row[idx]:
                return idx
        return n - 1

    xs = np.empty(length, dtype=np.int64)
    ys = np.empty(length, dtype=np.int64)
    ux, uy = uniforms[0].tolist(), uniforms[1].tolist()
    x = draw(cum_init_x, ux[0])
    y = draw(cum_init_y, uy[0])
    xs[0], ys[0] = x, y
    for t in range(1, length):
        x_new = draw(cum_b[x][y], ux[t])
        y = draw(cum_a[y], uy[t])
        x = x_new
        xs[t], ys[t] = x, y
    return (
        SymbolSeries(symbols=xs, alphabet_size=n, label="X"),
        SymbolSeries(symbols=ys, alphabet_size=n, label="Y"),
    )


def stationary_joint(spec: CoupledMarkovSpec) -> np.ndarray:
    """Stationary distribution pi(x, y) of the coupled pair chain.

    Power iteration from the uniform distribution; stops when successive
    iterates differ by less than 1e-14 in max norm, errors out after
    10^6 iterations (reducible or periodic chain).
    """
    n = spec.alphabet_size
    # P[(x, y), (x', y')] = B[x, y, x'] * A[y, y']
    transition = np.einsum("xyu,yv->xyuv", spec.target_transition, spec.source_transition)
    transition = transition.reshape(n * n, n * n)
    pi = np.full(n * n, 1.0 / (n * n))
    for _ in range(_POWER_MAX_ITER):
        nxt = pi @ transition
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < _POWER_TOL:
            return nxt.reshape(n, n)
        pi = nxt
    raise ConvergenceError(
        "power iteration did not converge; the coupled chain may be reducible or periodic"
    )


def exact_transfer_entropy(spec: CoupledMarkovSpec, q) -> float:
    """Exact order-q transfer entropy from source to target at m = l = 1.

    Builds the stationary three-variable joint p(x', x, y) by one
    transition step from the stationary pair distribution and takes the
    difference of the two escort-averaged conditional entropies.
    """
    order = RenyiOrder.coerce(q)
    n = spec.alphabet_size
    pi = stationary_joint(spec)
    # p(x', x, y) = pi(x, y) * B[x, y, x'], arranged with x' first.
    triple = np.einsum("xy,xyu->uxy", pi, spec.target_transition)
    joint_next_given_pair = triple.reshape(n, n * n)
    joint_next_given_target = triple.sum(axis=2)
    return conditional_entropy(joint_next_given_target, order) - conditional_entropy(
        joint_next_given_pair, order
    )
