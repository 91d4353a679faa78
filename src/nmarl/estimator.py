"""Geometric two-horizon sampling and the unbiased coupled policy-gradient estimate.

One sample consists of two independently drawn horizons: the first,
``T1 ~ Geom(1 - gamma)``, selects an occupancy-weighted snapshot time; the
second, ``T2 ~ Geom(1 - gamma^(1/2))``, truncates the return estimate whose
``gamma^(tau/2)`` weights compensate the truncation exactly in expectation.
Both geometric draws have support ``{0, 1, 2, ...}`` with ``P(k) = p * (1 -
p)^k``; support starting at 1 would bias the estimator, which a regression
test pins down.

Agent ``i``'s gradient estimate is ``q_i * score_sum_i / (1 - gamma)``,
computed for the whole network at once: the ``n`` return estimates come
from one gather of every agent's ``(kappa_p + kappa_r)``-hop reward columns
and one batched dot with the half-discount weights (``q_estimates``), and
the ``n`` score sums from one batched softmax over the snapshot
(``CoupledSoftmaxPolicy.score_sums``). Every norm is asserted against the
analytic cap on every sample; a violation is an implementation bug, never a
data error.

Every sample of the chain, here and in the trainer's Monte-Carlo
evaluation, is stepped by ``simulate``; its docstring states the draw order
and its one inversion rule, counted in two forms (Python scalars for a
single trajectory, whole arrays for batches of episodes) that pick the same
index for every uniform: a draw at or beyond a float cumsum that ends below
1 still lands on the last index. Uniforms lie in ``[0, 1)``, so a kernel
threshold at or above 1 is never reached and ``model.kernel_support`` drops
it; on one-hot kernels none is left and a step is two table lookups of the
entry's flat kernel row.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import netgraph
from .errors import BoundViolated, HorizonOverflow, InvalidProbability
from .model import FactoredNmarlModel
from .policy import CoupledSoftmaxPolicy

MAX_HORIZON = 10**7
# simulate inputs of at least this many entries count whole threshold arrays:
# on both shipped models the array count overtakes the scalar bisect form
# between ~40 and ~55 entries (measured on a 2-vCPU x86 machine)
BATCH_ENTRIES = 48
# Most uniforms simulate draws per rng.random call. At 2**13 a block's uniforms
# and the reward temporaries of scoring it stay at or below 64 KB. On a 2-vCPU
# x86 machine, numpy temporaries of ~128 KB page-fault on every call: the
# path-planning reward takes ~70 us with 0 minor faults at 4 000 entries, but
# ~1 ms with 343 faults at 16 000; a 400-episode path-planning evaluation takes
# 177-996 minor faults at 2**14 and 0-86 at 2**13 (the count depends on the
# heap's state).
DRAW_BLOCK = 2**13


@dataclass
class TwoHorizonRollout:
    """One sampled episode: snapshot at ``t1``, rewards over ``[t1, t1 + t2]``.

    The snapshot is the integer ``(n,)`` state and action arrays of step
    ``t1``, as ``simulate`` drew them; ``reward_trace`` has shape ``(t2 + 1,
    n)`` and holds every agent's reward even though each consumer only reads
    its own neighborhood columns.
    """

    t1: int
    t2: int
    snapshot_state: np.ndarray
    snapshot_action: np.ndarray
    reward_trace: np.ndarray

    def to_json(self) -> dict:
        return {
            "t1": self.t1,
            "t2": self.t2,
            "snapshot_state": self.snapshot_state.tolist(),
            "snapshot_action": self.snapshot_action.tolist(),
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
    """``gamma^(tau/2)`` for ``tau = 0..length-1``, via ``exp`` for accumulated-error control.

    A read-only prefix of one cached array per ``gamma``, whose length is the
    next power of two: ``exp`` acts element by element, so the prefix holds
    the bits a fresh array of ``length`` weights would.
    """
    return _half_discount_prefix(gamma, max(64, 1 << (length - 1).bit_length()))[:length]


@lru_cache(maxsize=64)
def _half_discount_prefix(gamma: float, size: int) -> np.ndarray:
    weights = np.exp(np.arange(size) * (0.5 * math.log(gamma)))
    weights.setflags(write=False)
    return weights


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
    the last step.

    The uniforms after step 0 are drawn in blocks of whole steps, at most
    ``DRAW_BLOCK`` per ``rng.random`` call (one step per call when a step
    alone needs more), each block when its first step is taken. The start
    actions' uniforms, when drawn, are drawn in the first block's call, at
    step 0, one uniform per entry beyond ``DRAW_BLOCK``. The values and the
    final generator state are those of one draw per step, provided the
    caller takes every step: a caller draws nothing else from ``rng`` until
    it has taken all ``steps + 1``, and every caller in the package does.

    Each uniform ``u`` inverts to the first index whose cumulative
    probability exceeds ``u``, or the last index when none does (a float
    cumsum can end just below 1). On a nondecreasing cumsum that index is
    the count of the row's thresholds at or below ``u``: the policy's first
    ``A - 1`` cumsum columns, and the kernel's rising columns below 1 only
    (``model.kernel_support``), whose count then picks the successor state.
    ``rng.random`` draws lie in ``[0, 1)``, so no uniform reaches a kernel
    threshold at or above 1, and the support drops those: its counts hold
    for uniforms in ``[0, 1)`` only. Two forms take that count, value for
    value:

    * inputs of fewer than ``BATCH_ENTRIES`` entries, such as a training
      rollout's ``(n,)`` trajectory, step on Python floats. Each entry
      carries its flat kernel row ``r = p * A + a``, ``p = agent * S + s``
      its flat policy row, and walks ``p = successor_rows[r][bisect_right(
      thresholds[r], u)]`` (just ``only_rows[r]`` when no kernel row keeps a
      threshold), then ``r = p * A + bisect_right(policy[p], u')``: the
      policy's thresholds as lists built per call, the kernel's cached by
      ``model.kernel_support_lists``. A drawn block's steps are computed
      together, entry by entry, when its first step is taken, and the rows
      kept are decoded into states and actions by two table lookups;
    * larger inputs compare whole threshold arrays with ``u``, one step at a
      time, and skip the kernel count when no kernel row keeps a threshold.
      A drawn block's steps are written into one ``(k, ...)`` array each for
      states and actions.

    Both forms compute a drawn block's steps together, and this generator
    yields them one step at a time. ``_step_blocks`` yields the whole drawn
    blocks, so that a caller such as ``trainer.evaluate_policy`` can score a
    block's steps with one reward call.

    Precondition: ``tables`` is finite. On a NaN threshold the two counts
    disagree (``bisect_right`` assumes a sorted list); ``trainer.run_dscp``
    stops a run whose parameters or push-sum estimates turn non-finite
    before it steps them.
    """
    for states_block, actions_block in _step_blocks(m, tables, states, rng, steps, actions):
        yield from zip(states_block, actions_block)


def _step_blocks(
    m: FactoredNmarlModel,
    tables: np.ndarray,
    states: np.ndarray,
    rng: np.random.Generator,
    steps: int,
    actions: np.ndarray | None,
    start: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``simulate``'s steps from ``start`` on, as states and actions ``(k,
    ...)`` of ``k`` consecutive steps at a time: one array pair per drawn
    block, step 0 in the first pair of the scalar form and alone in the count
    form. Steps before ``start`` are taken, drawing what they draw, but not
    returned.

    The policy thresholds are built once per call as running column sums:
    ``columns[c]`` ``(A - 1, n * S)`` is the sum of every flat policy row's
    first ``c + 1`` probabilities, added in column order as ``np.cumsum``
    adds them, so it holds the bits of the cumsum's first ``A - 1`` columns.
    The count form compares whole rows of ``columns``; the scalar form
    bisects each flat policy row's thresholds, ``columns.T`` as Python
    lists.

    The uniforms come as one ``(rows, ...)`` array per drawn block: when the
    start actions are drawn, their uniforms are the first row of the first
    block; then each step of the block has a row of transition and a row of
    action uniforms. One ``rng.random`` call draws the values and leaves the
    generator state of one call per part.
    """
    n, n_states, n_actions = tables.shape
    flat = tables.reshape(n * n_states, n_actions)
    columns = np.empty((n_actions - 1, n * n_states))
    if n_actions > 1:
        columns[0] = flat[:, 0]
    for c in range(1, n_actions - 1):
        np.add(columns[c - 1], flat[:, c], out=columns[c])
    size = states.size
    block = max(1, DRAW_BLOCK // max(1, 2 * size))  # whole steps per draw
    lead = actions is None  # a first row of start-action uniforms
    # at least one draw, so that step 0 is taken inside the loop of a form
    draw_rows = [2 * min(block, steps + 1 - t) for t in range(1, steps + 1, block)] or [0]
    draw_rows[0] += lead
    draws = (rng.random((k,) + states.shape) for k in draw_rows)
    form = _scalar_steps if size < BATCH_ENTRIES else _count_steps
    yield from form(m, columns, states, actions, draws, start, lead)


@lru_cache(maxsize=64)
def _agent_rows(n: int, n_states: int) -> np.ndarray:
    """Each agent's first flat policy row ``agent * S``. Read-only."""
    rows = np.arange(n) * n_states
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=64)
def _row_decoding(n: int, n_states: int, n_actions: int) -> tuple[np.ndarray, np.ndarray]:
    """The state and the action of each flat kernel row ``(agent * S + s) * A
    + a``. Read-only."""
    state_of, action_of = np.divmod(np.arange(n * n_states * n_actions), n_actions)
    state_of %= n_states
    state_of.setflags(write=False)
    action_of.setflags(write=False)
    return state_of, action_of


def _scalar_steps(
    m: FactoredNmarlModel,
    columns: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray | None,
    draws: Iterator[np.ndarray],
    start: int,
    lead: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``_step_blocks`` on Python scalars: ``bisect_right`` over threshold lists.

    Each entry carries its flat kernel row ``r = p * A + a``, where ``p =
    agent * S + s`` is its flat policy row: the successor lists hold policy
    rows, so a step is two lookups and no agent offset. The entries' chains
    are independent (each agent's policy row reads its own state, each
    kernel is its own), so a drawn block is stepped entry by entry, each
    entry through all of the block's steps, its start action picked first
    when it is drawn. The rows go into one flat list, entry by entry; one
    ``reshape`` turns it into steps, and the kept steps' rows are decoded
    into states and actions by two lookups in ``_row_decoding``'s tables.
    """
    n_actions = m.n_actions
    shape, size = states.shape, states.size
    pol = columns.T.tolist()
    thresholds, successors, only_rows = m.kernel_support_lists()
    state_of, action_of = _row_decoding(m.n, m.n_states, n_actions)
    pol_rows = _agent_rows(m.n, m.n_states) + states
    # each entry's flat kernel row, or its policy row until its start action is picked
    last = (pol_rows if lead else pol_rows * n_actions + actions).ravel().tolist()
    first = 0  # the block's first row: step 0 in the first block
    for block in draws:
        taken = len(block) // 2 + (first == 0)  # the block's rows per entry
        skip = min(taken, max(0, start - first))  # those before ``start``
        if only_rows is not None:  # no kernel uniform to invert: list the action ones
            u, stride, to_action = block[1 - lead :: 2].ravel().tolist(), size, 0
        else:
            u, stride, to_action = block.ravel().tolist(), 2 * size, size
        ahead = size if lead else 0  # the start-action uniforms, ahead of the steps'
        rows = []
        for j in range(size):
            r = last[j]
            if lead:
                r = r * n_actions + bisect_right(pol[r], u[j])
            if first == 0:
                rows.append(r)
            u_act = u[ahead + to_action + j :: stride]
            if only_rows is not None:
                for ua in u_act:
                    p = only_rows[r]
                    r = p * n_actions + bisect_right(pol[p], ua)
                    rows.append(r)
            else:
                for un, ua in zip(u[ahead + j :: stride], u_act):
                    p = successors[r][bisect_right(thresholds[r], un)]
                    r = p * n_actions + bisect_right(pol[p], ua)
                    rows.append(r)
            last[j] = r
        first += taken
        lead = False
        if skip < taken:
            kept = np.array(rows, dtype=np.intp).reshape(size, taken)[:, skip:].T
            kept = kept.reshape((taken - skip,) + shape)
            yield state_of.take(kept), action_of.take(kept)


def _count_steps(
    m: FactoredNmarlModel,
    columns: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray | None,
    draws: Iterator[np.ndarray],
    start: int,
    lead: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``_step_blocks`` on arrays: each step counts whole threshold arrays.

    Each entry's kernel row indexes its successor directly when no kernel
    row keeps a threshold (``kernel_support``'s ``K = 1``). The steps of a
    drawn block fill one ``(k, ...)`` states and one actions array, which are
    yielded together.
    """
    n_actions = m.n_actions
    shape = states.shape
    kern_thresholds, successors = m.kernel_support()
    width = successors.shape[1]
    flat_successors = successors.ravel()
    offsets = _agent_rows(m.n, m.n_states)
    pol_rows = offsets + states
    t = 1  # the first step of the next block
    for u in draws:
        if lead:
            actions = _count_at_or_below(columns, pol_rows, u[0])
            u, lead = u[1:], False
        if t == 1 and start == 0:
            yield states[None], actions[None]
        block = u.reshape((-1, 2) + shape)
        k = len(block)
        skip = min(k, max(0, start - t))  # the block's steps before ``start``
        t += k
        states_block = np.empty((k,) + shape, dtype=np.intp)
        actions_block = np.empty_like(states_block)
        for j, (u_next, u_act) in enumerate(block):
            rows = pol_rows * n_actions + actions  # kernel rows
            if width > 1:
                rows = rows * width + _count_at_or_below(kern_thresholds, rows, u_next)
            # rows are always in range; "clip" lets take write into ``out``
            # without the buffered copy of the default "raise"
            states = flat_successors.take(rows, out=states_block[j], mode="clip")
            pol_rows = offsets + states
            actions = _count_at_or_below(columns, pol_rows, u_act, actions_block[j])
        if skip < k:
            yield states_block[skip:], actions_block[skip:]


def _count_at_or_below(
    thresholds: np.ndarray, rows: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per entry, how many of its row's ``thresholds`` ``(k, rows)`` are at
    or below ``u``: on a nondecreasing row, the index of the first column
    above ``u``, or ``k`` when none is. Written into ``out`` when given."""
    return (thresholds.take(rows, axis=1) <= u).sum(axis=0, out=out)


def _score_trace(
    m: FactoredNmarlModel, blocks: Iterator[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States, actions and rewards ``(steps, n)`` of the steps ``blocks``
    returns; the rewards in one batched call."""
    visited = list(blocks)
    if len(visited) == 1:
        states, actions = visited[0]
    else:
        states = np.concatenate([s for s, _ in visited])
        actions = np.concatenate([a for _, a in visited])
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
    blocks = _step_blocks(m, tables, m.rho.sample(rng, 1)[0], rng, t1 + t2, None, t1)
    states, actions, trace = _score_trace(m, blocks)
    return TwoHorizonRollout(
        t1=t1, t2=t2, snapshot_state=states[0], snapshot_action=actions[0], reward_trace=trace
    )


def q_estimates(roll: TwoHorizonRollout, m: FactoredNmarlModel, kappa_p: int) -> np.ndarray:
    """Every agent's return estimate ``(n,)``: the half-discounted reward sum
    over its ``kappa_p + kappa_r``-hop neighbors, divided by ``n``.

    Each agent's member rewards are added one member at a time, in member
    order, and its step sums are dotted with the weights in a dot of its
    own, so an estimate's bits do not depend on the rest of the network.
    """
    cols = _member_columns(m.graph, kappa_p + m.kappa_r)
    trace = roll.reward_trace
    padded = np.concatenate([trace.T, np.zeros((1, len(trace)))])  # (n + 1, t2 + 1)
    step_sums = np.add.reduce(padded[cols], axis=0)  # (n, t2 + 1), member by member
    weights = half_discount_weights(m.gamma, roll.t2 + 1)
    return (step_sums[:, None, :] @ weights[:, None])[:, 0, 0] / m.n


@lru_cache(maxsize=256)
def _member_columns(g: netgraph.AgentGraph, kappa: int) -> np.ndarray:
    """``(k, n)``: column ``i`` lists the ``kappa``-hop members of ``i`` in
    order, padded with ``n``, the zero row ``q_estimates`` appends to the
    transposed trace; ``k`` is the largest neighborhood size."""
    mask = netgraph.hop_mask(g, kappa)
    cols = np.full((int(mask.sum(axis=1).max()), g.n), g.n)
    for i, row in enumerate(mask):
        members = np.flatnonzero(row)
        cols[: len(members), i] = members
    cols.setflags(write=False)
    return cols


def q_estimate(roll: TwoHorizonRollout, i: int, m: FactoredNmarlModel, kappa_p: int) -> float:
    """Agent ``i``'s entry of ``q_estimates``."""
    return float(q_estimates(roll, m, kappa_p)[i])


def estimate_bound(m: FactoredNmarlModel, pol: CoupledSoftmaxPolicy) -> float:
    """Analytic cap on every single-sample gradient-estimate norm."""
    kappa_p = pol.spec.kappa_p
    b = pol.score_bound()
    r = m.reward_bound
    m_p = netgraph.max_neighborhood_size(m.graph, kappa_p)
    m_pr = netgraph.max_neighborhood_size(m.graph, kappa_p + m.kappa_r)
    return (
        b * r * m_p * m_pr / ((1.0 - m.gamma) * (1.0 - math.sqrt(m.gamma)) * m.n)
    )


def gradient_estimate(
    roll: TwoHorizonRollout,
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    bound: float | None = None,
) -> GradientEstimate:
    """Every agent's gradient estimate from one rollout.

    Agent ``i`` scores the snapshot with its own estimate row (or the shared
    parameters when ``params`` is ``(n, d)``). Its row reads only that view,
    the snapshot entries within ``kappa_p`` hops and the reward columns
    within ``kappa_p + kappa_r`` hops.
    """
    if bound is None:
        bound = estimate_bound(m, pol)
    q_values = q_estimates(roll, m, pol.spec.kappa_p)
    scores = pol.score_sums(roll.snapshot_state, roll.snapshot_action, params)
    grads = q_values[:, None] * scores / (1.0 - m.gamma)
    norms = np.sqrt(np.einsum("ij,ij->i", grads, grads))
    worst = float(np.maximum.reduce(norms, initial=0.0))
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
    start_actions = np.array(snapshot_action, dtype=np.intp)
    *_, trace = _score_trace(m, _step_blocks(m, tables, start, rng, t2, start_actions))
    roll = TwoHorizonRollout(0, t2, start, start_actions, trace)
    return float(q_estimates(roll, m, pol.spec.kappa_p)[i])
