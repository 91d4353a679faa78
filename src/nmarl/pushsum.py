"""Push-sum tracking of every agent's policy parameters.

Each agent ``i`` carries a scalar weight ``p_i`` (all 1 at start) and, per
target agent ``j``, an intermediate vector ``breve[i, j]`` (zero at start).
A mixing round replaces the weights by ``W p`` and reads off the estimates

    estimates[i, j] = (W breve[:, j])_i / (W p)_i,

note the skew: the estimate divides by the *advanced* weight. Parameter
changes enter through the owner's intermediate vector, scaled by the agent
count, and are mixed in the same round:

    breve[:, j] <- W (breve[:, j] + n * delta_j * e_j).

Because ``W`` is column stochastic, two exact invariants hold at every
step: the weights sum to ``n``, and the per-target mean of the intermediate
vectors equals the target's true parameter. Target columns never interact,
so :func:`inject_all` mixes every column in one sweep; it equals injecting
one column at a time (``tests/support.ref_inject``, the per-column
reference the tests compare it with).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteState, NonPositiveWeight, ProtocolInvariantError

MASS_TOL = 1e-10  # the deviation check_invariants allows in either invariant


@dataclass
class PushSumState:
    """Mutable protocol state: weights, intermediate vectors, estimates.

    ``breve[i, j]`` is agent ``i``'s intermediate vector for agent ``j``;
    ``estimates[i, j]`` is agent ``i``'s current estimate of ``j``'s
    parameters, refreshed by :func:`mix_and_estimate`.
    """

    weights: np.ndarray  # (n,)
    breve: np.ndarray  # (n, n, d)
    estimates: np.ndarray  # (n, n, d)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def init_state(n: int, d: int) -> PushSumState:
    return PushSumState(
        weights=np.ones(n),
        breve=np.zeros((n, n, d)),
        estimates=np.zeros((n, n, d)),
    )


def mix_and_estimate(st: PushSumState, w: np.ndarray) -> PushSumState:
    """One mixing round: advance the weights, refresh the estimates.

    The intermediate vectors are left untouched; they advance in
    :func:`inject_all`, which multiplies by the same mixing matrix.
    """
    n = st.n
    if w.shape != (n, n):
        raise DimensionMismatch(f"weight matrix shape {w.shape}, expected {(n, n)}")
    new_weights = w @ st.weights
    if new_weights.min() <= 0.0:
        raise NonPositiveWeight(
            "push-sum weight became non-positive; mixing matrix lacks support"
        )
    mixed = (w @ st.breve.reshape(n, -1)).reshape(st.breve.shape)
    st.weights = new_weights
    st.estimates = mixed / new_weights[:, None, None]
    return st


def inject_all(st: PushSumState, w: np.ndarray, deltas: np.ndarray) -> PushSumState:
    """Add ``n * deltas[j]`` at each owner ``j`` and mix every target column.

    Restores each per-target mean to the updated true parameter exactly
    (column stochasticity moves the whole injected mass once).
    """
    deltas = np.asarray(deltas, dtype=float)
    n = st.n
    if deltas.shape != st.breve.shape[1:]:
        raise DimensionMismatch(
            f"deltas have shape {deltas.shape}, expected {st.breve.shape[1:]}"
        )
    if not np.isfinite(deltas).all():
        raise NonFiniteState("push-sum deltas must be finite")
    augmented = st.breve.copy()
    augmented.reshape(n * n, -1)[:: n + 1] += n * deltas  # the (j, j) rows
    st.breve = (w @ augmented.reshape(n, -1)).reshape(st.breve.shape)
    return st


def consensus_error(st: PushSumState, theta: np.ndarray) -> float:
    """Worst-case estimate error ``max_{i,j} ||estimates[i, j] - theta[j]||``.

    Errors beyond ~1e154 overflow when squared; the result is then ``inf``,
    without a warning, and the caller decides what a non-finite error means.
    The square root is taken of the largest squared norm only: it is
    monotone and correctly rounded, so that is the largest norm, bit for bit.
    """
    diff = st.estimates - theta[None, :, :]
    with np.errstate(over="ignore"):
        np.square(diff, out=diff)
    return math.sqrt(diff.sum(axis=2).max())


def check_invariants(st: PushSumState, theta: np.ndarray) -> None:
    """Assert mass conservation and the per-target averaged property (NaN fails)."""
    n = st.n
    # the ufunc reductions skip the wrappers of ``sum``, ``mean`` and ``max``,
    # with the same bits: ``mean`` is ``add.reduce`` divided by the count
    mass_err = abs(float(np.add.reduce(st.weights)) - n)
    if not mass_err <= MASS_TOL:
        raise ProtocolInvariantError(f"weight mass deviates from {n} by {mass_err:.3e}")
    mean_err = float(np.maximum.reduce(np.abs(np.add.reduce(st.breve) / n - theta), axis=None))
    if not mean_err <= MASS_TOL:
        raise ProtocolInvariantError(
            f"intermediate-vector means deviate from true parameters by {mean_err:.3e}"
        )
