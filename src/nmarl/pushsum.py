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
reference the tests compare it with). ``verify.check_pushsum`` relies on it
too: it certifies two runs as the column halves of one.

:func:`check_invariants` and :func:`consensus_error` also take stacked
snapshots: a :class:`PushSumState` whose weights are ``(..., n)`` and whose
intermediate vectors and estimates are ``(..., n, n, d)``, against true
parameters ``(..., n, d)``. Each snapshot gets the bits of a call on it
alone; a state without leading axes is the single snapshot the trainer
checks every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteState, NonPositiveWeight, ProtocolInvariantError

MASS_TOL = 1e-10  # the deviation check_invariants allows in either invariant


@dataclass
class PushSumState:
    """Mutable protocol state: weights, intermediate vectors, estimates.

    ``breve[i, j]`` is agent ``i``'s intermediate vector for agent ``j``;
    ``estimates[i, j]`` is agent ``i``'s current estimate of ``j``'s
    parameters, refreshed by :func:`mix_and_estimate`. Leading snapshot axes
    are read by the two checks only.
    """

    weights: np.ndarray  # (n,)
    breve: np.ndarray  # (n, n, d)
    estimates: np.ndarray  # (n, n, d)

    @property
    def n(self) -> int:
        return self.weights.shape[-1]


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
    _check_mixing(w, st.n)
    _mix(st, w)
    return st


def inject_all(st: PushSumState, w: np.ndarray, deltas: np.ndarray) -> PushSumState:
    """Add ``n * deltas[j]`` at each owner ``j`` and mix every target column.

    Restores each per-target mean to the updated true parameter exactly
    (column stochasticity moves the whole injected mass once).
    """
    deltas = np.asarray(deltas, dtype=float)
    if not np.isfinite(deltas).all():
        raise NonFiniteState("push-sum deltas must be finite")
    _check_mixing(w, st.n)
    _inject(st, w, deltas)
    return st


def consensus_error(st: PushSumState, theta: np.ndarray) -> float | np.ndarray:
    """Worst-case estimate error ``max_{i,j} ||estimates[i, j] - theta[j]||``.

    A float for one state; an array of one error per snapshot for stacked
    estimates ``(..., n, n, d)`` against ``theta`` ``(..., n, d)``. Any other
    ``theta`` shape raises :class:`DimensionMismatch`.

    Errors beyond ~1e154 overflow when squared; the result is then ``inf``,
    without a warning, and the caller decides what a non-finite error means.
    The square root is taken of the largest squared norm only: it is
    monotone and correctly rounded, so that is the largest norm, bit for bit.
    """
    worst = _worst_error(st.estimates, _true_parameters(st.estimates, theta)[..., None, :, :])
    return float(worst) if worst.ndim == 0 else worst


def check_invariants(st: PushSumState, theta: np.ndarray) -> None:
    """Assert mass conservation and the per-target averaged property (NaN fails).

    Stacked snapshots are checked in one call. The error names the first
    snapshot, in C order, that fails, with the deviation a call on it alone
    reports. A ``theta`` or weight shape that does not match the intermediate
    vectors raises :class:`DimensionMismatch`.
    """
    n = st.breve.shape[-2]
    theta = _true_parameters(st.breve, theta)
    if st.weights.shape != st.breve.shape[:-2]:
        raise DimensionMismatch(
            f"weights have shape {st.weights.shape}, expected {st.breve.shape[:-2]}"
        )
    # the ufunc reductions skip the wrappers of ``sum``, ``mean`` and ``max``,
    # with the same bits: ``mean`` is ``add.reduce`` divided by the count
    mass_err = abs(np.add.reduce(st.weights, axis=-1) - n)
    if not np.maximum.reduce(mass_err, axis=None) <= MASS_TOL:  # NaN fails
        _refuse(mass_err, f"weight mass deviates from {n}")
    mean_err = abs(np.add.reduce(st.breve, axis=-3) / n - theta)
    if not np.maximum.reduce(mean_err, axis=None) <= MASS_TOL:
        _refuse(
            np.maximum.reduce(mean_err, axis=(-2, -1)),
            "intermediate-vector means deviate from true parameters",
        )


# The kernels of the three functions above, on arguments they checked: a float
# ``(n, n)`` matrix, finite deltas, true parameters that broadcast against the
# estimates. ``trainer.step``, whose run implies those, calls them directly.


def _mix(st: PushSumState, w: np.ndarray) -> None:
    new_weights = w @ st.weights
    if np.minimum.reduce(new_weights) <= 0.0:
        raise NonPositiveWeight("push-sum weight became non-positive; mixing matrix lacks support")
    mixed = (w @ st.breve.reshape(len(w), -1)).reshape(st.breve.shape)
    st.weights = new_weights
    st.estimates = mixed / new_weights[:, None, None]


def _inject(st: PushSumState, w: np.ndarray, deltas: np.ndarray) -> None:
    if deltas.shape != st.breve.shape[1:]:
        raise DimensionMismatch(f"deltas have shape {deltas.shape}, expected {st.breve.shape[1:]}")
    n = len(w)
    augmented = st.breve.copy()
    augmented.reshape(n * n, -1)[:: n + 1] += n * deltas  # the (j, j) rows
    st.breve = (w @ augmented.reshape(n, -1)).reshape(st.breve.shape)


def _worst_error(estimates: np.ndarray, theta: np.ndarray) -> np.ndarray:
    diff = estimates - theta
    with np.errstate(over="ignore"):
        np.square(diff, out=diff)
    return np.sqrt(np.maximum.reduce(np.add.reduce(diff, axis=-1), axis=(-2, -1)))


def _check_mixing(w: np.ndarray, n: int) -> None:
    if w.shape != (n, n):
        raise DimensionMismatch(f"weight matrix shape {w.shape}, expected {(n, n)}")


def _true_parameters(vectors: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``theta`` checked to be ``(..., n, d)`` against ``(..., n, n, d)`` vectors."""
    theta = np.asarray(theta)
    expected = vectors.shape[:-3] + vectors.shape[-2:]
    if theta.shape != expected:
        raise DimensionMismatch(f"true parameters have shape {theta.shape}, expected {expected}")
    return theta


def _refuse(errors: np.ndarray, what: str) -> None:
    """Raise for the first snapshot whose error exceeds ``MASS_TOL`` or is NaN."""
    at = np.unravel_index(np.argmax(~(errors <= MASS_TOL)), np.shape(errors))
    where = f" at snapshot {', '.join(str(int(k)) for k in at)}" if at else ""
    raise ProtocolInvariantError(f"{what} by {float(errors[at]):.3e}{where}")
