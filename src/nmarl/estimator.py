"""Geometric two-horizon sampling and the unbiased coupled policy-gradient estimate.

One sample consists of two independently drawn horizons: the first,
``T1 ~ Geom(1 - gamma)``, selects an occupancy-weighted snapshot time; the
second, ``T2 ~ Geom(1 - gamma^(1/2))``, truncates the return estimate whose
``gamma^(tau/2)`` weights compensate the truncation exactly in expectation.
Both geometric draws have support ``{0, 1, 2, ...}`` with ``P(k) = p * (1 -
p)^k``; support starting at 1 would bias the estimator, which a regression
test pins down.

The per-agent gradient estimate is ``q * score_sum / (1 - gamma)`` and its
norm is asserted against the analytic cap on every sample; a violation is an
implementation bug, never a data error.

Every sample of the chain, here and in the trainer's Monte-Carlo
evaluation, is stepped by ``simulate``; its docstring states the draw order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import netgraph
from .errors import BoundViolated, HorizonOverflow, InvalidProbability
from .model import FactoredNmarlModel
from .policy import CoupledSoftmaxPolicy

MAX_HORIZON = 10**7


@dataclass
class TwoHorizonRollout:
    """One sampled episode: snapshot at ``t1``, rewards over ``[t1, t1 + t2]``.

    ``reward_trace`` has shape ``(t2 + 1, n)`` and holds every agent's reward
    even though each consumer only reads its own neighborhood columns.
    """

    t1: int
    t2: int
    snapshot_state: tuple[int, ...]
    snapshot_action: tuple[int, ...]
    reward_trace: np.ndarray

    def to_json(self) -> dict:
        return {
            "t1": self.t1,
            "t2": self.t2,
            "snapshot_state": list(self.snapshot_state),
            "snapshot_action": list(self.snapshot_action),
            "reward_trace": self.reward_trace.tolist(),
        }


@dataclass
class GradientEstimate:
    """Per-agent gradient estimates with their scalar return estimates."""

    grads: np.ndarray  # (n, d)
    q_values: np.ndarray  # (n,)
    norms: np.ndarray  # (n,)
    bound: float


def sample_geometric(
    p: float, rng: np.random.Generator, size: int | None = None
) -> int | np.ndarray:
    """Draw from ``{0, 1, ...}`` with ``P(k) = p * (1 - p)^k``.

    With ``size``, an array of ``size`` draws; it holds the values of, and
    advances ``rng`` like, ``size`` scalar draws.
    """
    if not 0.0 < p <= 1.0:
        raise InvalidProbability(f"success probability must be in (0, 1], got {p}")
    if size is None:
        return int(rng.geometric(p)) - 1
    return rng.geometric(p, size=size) - 1


def half_discount_weights(gamma: float, length: int) -> np.ndarray:
    """``gamma^(tau/2)`` for ``tau = 0..length-1``, via ``exp`` for accumulated-error control."""
    tau = np.arange(length)
    return np.exp(0.5 * tau * math.log(gamma))


def simulate(
    m: FactoredNmarlModel,
    tables: np.ndarray,
    states: np.ndarray,
    rng: np.random.Generator,
    steps: int,
    actions: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step the chain under the per-agent policy ``tables`` ``(n, S, A)``.

    Yields ``(states, actions)`` for steps ``0..steps``. Both are integer
    arrays shaped like the start ``states``, ``(..., n)``: one call steps a
    single trajectory or a batch of episodes. Every sample of the chain in
    the package is drawn here, in one order: at each step one uniform per
    entry picks the actions (none at step 0 when the start ``actions`` are
    given), then one uniform per entry picks the next states, except after
    the last step. Each uniform is inverted through its row's cumulative
    probabilities. A step draws when it is taken, so a caller draws nothing
    else from ``rng`` until it has taken the steps it needs.
    """
    pol_cum = np.cumsum(tables, axis=2)
    kern_cum = m.stacked_kernel_cum()
    agents = np.arange(m.n)
    for t in range(steps + 1):
        if t > 0:
            u = rng.random(states.shape)
            states = _inverse_cdf(kern_cum[agents, states, actions], u)
        if t > 0 or actions is None:
            actions = _inverse_cdf(pol_cum[agents, states], rng.random(states.shape))
        yield states, actions


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first index whose cumulative probability exceeds ``u``.

    A cumsum can end just below 1; a draw beyond it maps to the last index.
    """
    return np.minimum((cum <= u[..., None]).sum(axis=-1), cum.shape[-1] - 1)


def _score_trace(
    m: FactoredNmarlModel, steps: Iterator[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States, actions and rewards ``(steps, n)`` of the visited rows; the
    rewards in one batched call."""
    # Unpacked as the steps come: holding every yielded pair at once (as
    # ``zip(*steps)`` does) raised peak RSS on long training runs.
    visited_s, visited_a = [], []
    for s, a in steps:
        visited_s.append(s)
        visited_a.append(a)
    states, actions = np.stack(visited_s), np.stack(visited_a)
    return states, actions, np.asarray(m.batch_rewards(states, actions), dtype=float)


def rollout_two_horizon(
    m: FactoredNmarlModel,
    params: np.ndarray,
    pol: CoupledSoftmaxPolicy,
    rng: np.random.Generator,
    tables: np.ndarray | None = None,
    max_horizon: int = MAX_HORIZON,
) -> TwoHorizonRollout:
    """Sample one two-horizon episode under the executed policy.

    ``params`` is either an ``(n, n, d)`` estimate stack (agent ``i``
    executes with its row ``params[i]``) or an ``(n, d)`` shared parameter.
    Draw order is fixed: ``t1``, ``t2``, the start state, then the steps in
    ``simulate``'s order. The rewards of the visited steps are scored with
    one batched call after the last step, which draws nothing.
    """
    t1 = sample_geometric(1.0 - m.gamma, rng)
    t2 = sample_geometric(1.0 - math.sqrt(m.gamma), rng)
    if t1 + t2 > max_horizon:
        raise HorizonOverflow(f"sampled horizon {t1 + t2} exceeds cap {max_horizon}")
    if tables is None:
        tables = pol.prob_tables(params)
    steps = simulate(m, tables, m.rho.sample(rng, 1)[0], rng, t1 + t2)
    states, actions, trace = _score_trace(m, itertools.islice(steps, t1, None))
    return TwoHorizonRollout(
        t1=t1,
        t2=t2,
        snapshot_state=tuple(int(s) for s in states[0]),
        snapshot_action=tuple(int(a) for a in actions[0]),
        reward_trace=trace,
    )


def q_estimate(
    roll: TwoHorizonRollout,
    i: int,
    m: FactoredNmarlModel,
    kappa_p: int,
    kappa_r: int | None = None,
) -> float:
    """Half-discounted reward sum over the ``kappa_p + kappa_r``-hop neighbors."""
    kappa_r = m.kappa_r if kappa_r is None else kappa_r
    members = netgraph.khop(m.graph, i, kappa_p + kappa_r).members
    weights = half_discount_weights(m.gamma, roll.t2 + 1)
    per_step = roll.reward_trace[:, list(members)].sum(axis=1)
    return float(weights @ per_step) / m.n


def estimate_bound(
    m: FactoredNmarlModel, pol: CoupledSoftmaxPolicy, kappa_r: int | None = None
) -> float:
    """Analytic cap on every single-sample gradient-estimate norm."""
    kappa_r = m.kappa_r if kappa_r is None else kappa_r
    kappa_p = pol.spec.kappa_p
    b = pol.score_bound()
    r = m.reward_bound
    m_p = netgraph.max_neighborhood_size(m.graph, kappa_p)
    m_pr = netgraph.max_neighborhood_size(m.graph, kappa_p + kappa_r)
    return (
        b * r * m_p * m_pr / ((1.0 - m.gamma) * (1.0 - math.sqrt(m.gamma)) * m.n)
    )


def agent_gradient(
    roll: TwoHorizonRollout,
    i: int,
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Agent ``i``'s gradient estimate and return estimate from one rollout.

    Reads only the snapshot entries within ``kappa_p`` hops, the reward
    columns within ``kappa_p + kappa_r`` hops, and (for an estimate stack)
    agent ``i``'s own row.
    """
    arr = np.asarray(params, dtype=float)
    row = arr if arr.ndim == 2 else arr[i]
    q = q_estimate(roll, i, m, pol.spec.kappa_p)
    g = pol.score_sum(i, roll.snapshot_state, roll.snapshot_action, row)
    return q * g / (1.0 - m.gamma), q


def gradient_estimate(
    roll: TwoHorizonRollout,
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    bound: float | None = None,
) -> GradientEstimate:
    """Per-agent gradient estimates from one rollout.

    Agent ``i`` scores the snapshot with its own estimate row (or the shared
    parameters when ``params`` is ``(n, d)``).
    """
    if bound is None:
        bound = estimate_bound(m, pol)
    grads = np.empty((m.n, pol.d))
    q_values = np.empty(m.n)
    for i in range(m.n):
        grads[i], q_values[i] = agent_gradient(roll, i, m, pol, params)
    norms = np.linalg.norm(grads, axis=1)
    worst = float(norms.max(initial=0.0))
    if worst > bound * (1.0 + 1e-9):
        raise BoundViolated(
            f"gradient-estimate norm {worst:.6g} exceeds analytic cap {bound:.6g}"
        )
    return GradientEstimate(grads=grads, q_values=q_values, norms=norms, bound=bound)


def sample_q_conditional(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    snapshot_state: Sequence[int],
    snapshot_action: Sequence[int],
    i: int,
    rng: np.random.Generator,
    tables: np.ndarray | None = None,
) -> float:
    """One conditional resample of the return estimate from a fixed snapshot.

    Draws a fresh ``t2`` and continues the trajectory from the given
    state-action pair; the mean over many such draws is the exact
    neighbors-averaged action value at the snapshot.
    """
    if tables is None:
        tables = pol.prob_tables(params)
    t2 = sample_geometric(1.0 - math.sqrt(m.gamma), rng)
    start = np.array(snapshot_state, dtype=np.intp)
    steps = simulate(m, tables, start, rng, t2, np.array(snapshot_action, dtype=np.intp))
    *_, trace = _score_trace(m, steps)
    roll = TwoHorizonRollout(0, t2, tuple(snapshot_state), tuple(snapshot_action), trace)
    return q_estimate(roll, i, m, pol.spec.kappa_p)
