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

``rollouts_two_horizon`` draws ``E`` episodes side by side, for
``verify``'s statistical checks; one episode of it draws what
``rollout_two_horizon`` draws. ``sample_q_conditional`` is the batch with
``t1 = 0`` and the snapshot as its start. All three take the policy as its
``(n, S, A)`` probability tables, and draw, as the trainer's Monte-Carlo
evaluation does, in the order ``_step_blocks`` states.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import netgraph
from .errors import (BoundViolated, ConfigError, DimensionMismatch, HorizonOverflow,
                     IndexOutOfRange, InvalidProbability)
from .model import FactoredNmarlModel
from .policy import CoupledSoftmaxPolicy

MAX_HORIZON = 10**7
# Most uniforms a form of _step_blocks reads per block; the transition
# uniforms it skips do not count. At 2**13 a block's uniforms and the reward
# temporaries of scoring it stay at or below 64 KB. On a 2-vCPU x86 machine,
# numpy temporaries of ~128 KB page-fault on every call: the path-planning
# reward takes ~70 us with 0 minor faults at 4 000 entries, but ~1 ms with 343
# at 16 000; a 400-episode path-planning evaluation takes 177-996 minor faults
# at 2**14 and 0-86 at 2**13 (the count depends on the heap's state).
DRAW_BLOCK = 2**13


@dataclass
class TwoHorizonRollout:
    """Sampled episodes: snapshot at ``t1``, rewards over ``[t1, t1 + t2]``.

    One episode (``rollout_two_horizon``) has integer ``t1`` and ``t2``,
    the ``(n,)`` states and actions of step ``t1`` and every agent's rewards
    ``(t2 + 1, n)``. ``E`` episodes (``rollouts_two_horizon``) have ``(E,)``
    horizons, ``(E, n)`` snapshots and their windows ``(sum(t2 + 1), n)``
    one after another, in episode order.
    """

    t1: int | np.ndarray
    t2: int | np.ndarray
    snapshot_state: np.ndarray
    snapshot_action: np.ndarray
    reward_trace: np.ndarray


@dataclass
class GradientEstimate:
    """Per-agent gradient estimates with their scalar return estimates, with
    the rollout's episode axis in front when it has one."""

    grads: np.ndarray  # (..., n, d)
    q_values: np.ndarray  # (..., n)
    norms: np.ndarray  # (..., n)
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


def _step_blocks(
    m: FactoredNmarlModel,
    tables: np.ndarray,
    states: np.ndarray,
    rng: np.random.Generator,
    steps: int,
    actions: np.ndarray | None = None,
    start: int | np.ndarray = 0,
    last_steps: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Step the chain under the per-agent policy ``tables`` ``(n, S, A)``.

    Takes steps ``0..steps`` from the start ``states``: one ``(n,)``
    trajectory whose start actions are drawn, or, with ``last_steps``, a
    batch of ``(E, n)`` episodes. Yields the steps from ``start`` on as
    integer states and actions ``(k, ...)`` of ``k`` consecutive steps at a
    time, one array pair per block: step 0 in the first pair of the scalar
    walk and alone in the count form. Steps before ``start`` are taken,
    drawing what they draw, but not returned.

    The draw order of every sample of the chain in the package, stated here
    once. A sampler first draws its horizons, one array per kind for a
    batch: ``t1`` then ``t2`` for a two-horizon rollout, ``t2`` alone for a
    conditional resample, the geometric horizons of an evaluation. Then it
    draws its start states (``FactoredNmarlModel.sample_starts``), except a
    conditional resample, which starts from the snapshot. Then this
    generator draws: at each step one uniform per entry picks the actions
    (none at step 0 when the start ``actions`` are given), then one uniform
    per entry picks the next states, except after the last step. The values
    and the final generator state are those of one ``rng.random`` call per
    step, provided the caller runs this generator to its end and draws
    nothing else from ``rng`` until then, as every caller in the package does.

    The steps after step 0 come in blocks of whole steps, each drawn when
    its first step is taken, as rows of one uniform per entry: the
    start-action row first when those are drawn, then each step's
    transition row and action row. A block holds at most ``DRAW_BLOCK``
    uniforms that a form reads (one step when a step alone holds more),
    beside the start-action row. The count form on kernels where no row
    keeps a threshold (``model.kernel_support``) reads no transition row:
    on a ``PCG64`` each step advances past it and draws its action row, and
    the buffered 32-bit half that ``advance`` drops is put back at the end;
    any other bit generator draws the pair and drops the transition row
    (``_action_rows``). Its blocks thus hold twice the steps, and the values
    and the final state stay the same.

    With ``last_steps`` ``(E,)``, each episode's last step that counts, the
    start ``actions``, when given, are ``(E, n)`` too, ``start`` is each
    episode's first step that counts (one for all or ``(E,)``, the blocks
    start at the earliest), and each block comes as a triple: its states and
    actions, and the indices ``(L,)`` of the ``L`` episodes it covers, in
    order. It drops finished episodes, a parked one only once its first step
    is yielded (``_live_count_steps``). Dropping keeps the draw order: every
    block is drawn while an episode is left, and a dropped episode's
    uniforms are left unused. Once no episode is left, nothing is stepped
    and the blocks not drawn yet are skipped (``_skip_uniforms``).

    Each uniform ``u`` inverts to the first index whose cumulative
    probability exceeds ``u``, or the last index when none does (a float
    cumsum can end just below 1). On a nondecreasing cumsum that index is
    the count of the row's thresholds at or below ``u``: the policy's first
    ``A - 1`` cumsum columns, and the kernel's rising columns below 1 only
    (``model.kernel_support``), whose count then picks the successor. No
    ``rng.random`` uniform in ``[0, 1)`` reaches a dropped kernel threshold,
    which is at least 1. ``columns[c]`` ``(A - 1, n * S)``, built once per
    call, adds every flat policy row's first ``c + 1`` probabilities in
    column order, so it holds the bits of ``np.cumsum``'s first ``A - 1``
    columns. Two forms take the count, value for value, by one rule:

    * without ``last_steps``, for the training rollout's trajectory, the
      agents step on Python floats (``_scalar_steps``): ``bisect_right``
      over the policy's thresholds as the Python lists ``columns.T`` and
      the kernel's as ``model.kernel_support_lists`` caches them;
    * with ``last_steps``, for an episode batch of any size, one episode
      included, whole rows of ``columns`` and of the kernel thresholds are
      compared with ``u``, one step at a time (``_count_stepper``), into
      one ``(k, L, n)`` array each for a block's states and actions.

    Yielding whole blocks lets a caller such as ``trainer.evaluate_policy``
    score a block's steps with one reward call.

    Precondition: ``tables`` is finite. On a NaN threshold the two counts
    disagree (``bisect_right`` assumes a sorted list); ``trainer.step``
    stops a run whose parameters or push-sum estimates turn non-finite
    before it steps them.
    """
    n, n_states, n_actions = tables.shape
    flat = tables.reshape(n * n_states, n_actions)
    columns = np.empty((n_actions - 1, n * n_states))
    if n_actions > 1:
        columns[0] = flat[:, 0]
    for c in range(1, n_actions - 1):
        np.add(columns[c - 1], flat[:, c], out=columns[c])
    reads = 1 if last_steps is not None and not len(m.kernel_support()[0]) else 2
    block = max(1, DRAW_BLOCK // max(1, reads * states.size))  # whole steps per block
    # at least one block, so that step 0 is taken inside the loop of a form
    draw_rows = [2 * min(block, steps + 1 - t) for t in range(1, steps + 1, block)] or [0]
    draw_rows[0] += actions is None  # a first row of start-action uniforms
    held = None  # the PCG64 state before the transition rows are skipped
    if reads == 2:
        draws = (rng.random((k,) + states.shape) for k in draw_rows)
    else:
        held = rng.bit_generator.state if type(rng.bit_generator) is np.random.PCG64 else None
        draws = _action_rows(rng, draw_rows, states.shape, held is not None)
    if last_steps is None:
        yield from _scalar_steps(m, columns, states, draws, start)
        return
    yield from _live_count_steps(m, columns, states, actions, draws, start, last_steps,
                                 rng, draw_rows)
    if held is not None:
        _put_back_half(rng.bit_generator, held)


def _action_rows(
    rng: np.random.Generator, draw_rows: list[int], shape: tuple, advance: bool
) -> Iterator[np.ndarray]:
    """The action rows of each block of ``draw_rows``, after its start-action
    row when its count is odd: a step's transition row is skipped by
    ``advance`` (a ``PCG64``'s), or else drawn with it and dropped."""
    size = math.prod(shape)
    for k in draw_rows:
        u = np.empty((k - k // 2,) + shape)
        if k % 2:
            u[0] = rng.random(shape)
        for j in range(k % 2, len(u)):
            if advance:
                rng.bit_generator.advance(size)
                u[j] = rng.random(shape)
            else:
                u[j] = rng.random((2,) + shape)[1]
        yield u


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
    draws: Iterator[np.ndarray],
    start: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``_step_blocks`` on Python scalars for one ``(n,)`` trajectory, whose
    start actions it draws.

    Each agent carries its flat kernel row ``r = p * A + a``, ``p = agent
    * S + s`` its flat policy row, and walks ``p =
    successors[r][bisect_right(thresholds[r], u)]`` (``only_rows[r]`` when
    no kernel row keeps a threshold), then ``r = p * A +
    bisect_right(policy[p], u')``. The agents' chains are independent, so a
    block is stepped agent by agent into one flat list of rows, which
    ``_row_decoding``'s tables decode into the kept steps' states and actions.
    """
    n, n_actions = len(states), m.n_actions
    pol = columns.T.tolist()
    thresholds, successors, only_rows = m.kernel_support_lists()
    state_of, action_of = _row_decoding(m.n, m.n_states, n_actions)
    last = (_agent_rows(m.n, m.n_states) + states).tolist()  # policy rows until step 0
    first = 0  # the block's first step
    for block in draws:
        lead = first == 0  # the first block: start-action uniforms and step 0
        taken = len(block) // 2 + lead  # the block's steps
        skip = min(taken, max(0, start - first))  # those before ``start``
        if only_rows is not None:  # no kernel uniform to invert: list the action ones
            u, stride, to_action = block[1 - lead :: 2].ravel().tolist(), n, 0
        else:
            u, stride, to_action = block.ravel().tolist(), 2 * n, n
        ahead = n if lead else 0  # the start-action uniforms, ahead of the steps'
        rows = []
        for j in range(n):
            r = last[j]
            if lead:
                r = r * n_actions + bisect_right(pol[r], u[j])
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
        if skip < taken:
            kept = np.array(rows, dtype=np.intp).reshape(n, taken)[:, skip:].T
            yield state_of.take(kept), action_of.take(kept)


def _live_count_steps(
    m: FactoredNmarlModel,
    columns: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray | None,
    draws: Iterator[np.ndarray],
    start: int | np.ndarray,
    last_steps: np.ndarray,
    rng: np.random.Generator,
    draw_rows: list[int],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``_step_blocks``' count form for ``(E, n)`` episodes, dropping the
    finished ones; each block comes with the indices of the episodes it covers.

    After each yielded block, an episode is finished when the block's last
    step is at or past its ``last_steps`` entry, or when it is at or past
    its ``start`` and every one of its agents sits on a parked row
    (``model.parked_rows``): it stays there and earns ``+0.0`` at every
    later step. A read of the parked rows costs about as much as a step, so
    they are read after step 0 and then after the first block that ends at
    or past ``t + 1 + t // 4``, ``t`` the last read (steps 0, 1, 2, 3, 4, 6,
    8, 11, 14, 18, ... at one step per block); agents stay parked, so a
    later read misses no episode. Once at least half of the stepped episodes
    are finished, only the others are carried, and every later block takes
    their columns of the uniforms; until then the finished ones are stepped
    and yielded with the others. Once none is left, ``rng`` skips the
    blocks of ``draw_rows`` that ``draws`` has not given (``_skip_uniforms``).
    """
    step = _count_stepper(m, columns)
    parked = m.parked_rows()
    parked = parked if parked.any() else None
    episodes = len(states)
    live = np.arange(episodes)  # the stepped episodes
    firsts = np.full(last_steps.shape, start)
    kept_from = int(firsts.min())  # the first step yielded
    pol_rows = _agent_rows(m.n, m.n_states) + states
    if actions is None:
        first = next(draws)
        actions = _count_at_or_below(columns, pol_rows, first[0])
        # an iterator over a list, and no name, so that the block is freed once stepped
        draws = itertools.chain(iter([first[1:]]), draws)
        del first
    states_block, actions_block = states[None], actions[None]
    t = 0  # the last step taken
    check = 0  # the first step after which the parked rows are read again
    # ``drawn`` blocks of ``draw_rows`` so far; None once every one is stepped
    for drawn, u in enumerate(itertools.chain(draws, [None]), 1):
        if t >= kept_from:  # the block ends at or past kept_from
            skip = kept_from + len(states_block) - 1 - t  # its steps before kept_from
            if skip > 0:
                states_block, actions_block = states_block[skip:], actions_block[skip:]
            yield states_block, actions_block, live
        if u is None or not len(u):  # no block left, or step 0 alone
            return
        done = last_steps <= t
        if parked is not None and t >= check:
            done |= parked.take(pol_rows).all(axis=-1) & (firsts <= t)
            check = t + 1 + t // 4
        if 2 * np.count_nonzero(done) >= len(live):
            keep = np.flatnonzero(~done)
            if not len(keep):
                _skip_uniforms(rng, draw_rows[drawn:], states.shape)
                return
            live, last_steps, firsts = live.take(keep), last_steps.take(keep), firsts.take(keep)
            pol_rows, actions = pol_rows.take(keep, axis=0), actions.take(keep, axis=0)
        if len(live) < episodes:
            u = u.take(live, axis=1)
        states_block, actions_block, pol_rows, actions = step(pol_rows, actions, u)
        t += len(states_block)


def _skip_uniforms(rng: np.random.Generator, draw_rows: list[int], shape: tuple) -> None:
    """Leave ``rng`` where ``rng.random((k,) + shape)`` for each ``k`` of
    ``draw_rows`` would leave it: ``PCG64`` (``np.random.default_rng``'s)
    turns one 64-bit output into one double, so it advances by the
    uniforms' count; other bit generators draw the blocks."""
    bit_gen = rng.bit_generator
    if type(bit_gen) is not np.random.PCG64:
        for k in draw_rows:
            rng.random((k,) + shape)
        return
    state = bit_gen.state
    bit_gen.advance(sum(draw_rows) * math.prod(shape))
    _put_back_half(bit_gen, state)


def _put_back_half(bit_gen: np.random.PCG64, state: dict) -> None:
    """Put back the buffered 32-bit half of ``state``, which ``advance`` drops."""
    if state["has_uint32"]:
        advanced = bit_gen.state
        advanced.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
        bit_gen.state = advanced


def _count_stepper(m: FactoredNmarlModel, columns: np.ndarray):
    """The count form's step through one block: ``step(pol_rows, actions,
    u)`` takes the entries' flat policy rows and actions before the block
    and its ``k`` steps' uniforms (``(2 * k, ...)``, or ``(k, ...)`` action
    rows when no kernel row keeps a threshold), and returns the block's
    states and actions ``(k, ...)``, then the policy rows and actions at its
    last step. Each step looks its next policy rows up in ``m.successor_rows``."""
    n_actions = m.n_actions
    kern_thresholds = m.kernel_support()[0]
    width = len(kern_thresholds) + 1
    next_rows = m.successor_rows().ravel()
    offsets = _agent_rows(m.n, m.n_states)

    def step(
        pol_rows: np.ndarray, actions: np.ndarray, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        block = u.reshape((-1, min(width, 2)) + actions.shape)  # (k, rows read per step, ...)
        rows_block = np.empty((len(block),) + actions.shape, dtype=np.intp)
        actions_block = np.empty_like(rows_block)
        for j, u_step in enumerate(block):
            rows = pol_rows * n_actions + actions  # kernel rows
            if width > 1:
                rows = rows * width + _count_at_or_below(kern_thresholds, rows, u_step[0])
            # rows are always in range; "clip" lets take write into ``out``
            # without the buffered copy of the default "raise"
            pol_rows = next_rows.take(rows, out=rows_block[j], mode="clip")
            actions = _count_at_or_below(columns, pol_rows, u_step[-1], actions_block[j])
        pol_rows = pol_rows.copy()  # rows_block turns into the states
        return np.subtract(rows_block, offsets, out=rows_block), actions_block, pol_rows, actions

    return step


def _count_at_or_below(
    thresholds: np.ndarray, rows: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per entry, how many of its row's ``thresholds`` ``(k, rows)`` are at
    or below ``u``: on a nondecreasing row, the index of the first column
    above ``u``, or ``k`` when none is. Written into ``out`` when given."""
    return np.add.reduce(thresholds.take(rows, axis=1) <= u, axis=0, out=out)


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
    m: FactoredNmarlModel, tables: np.ndarray, rng: np.random.Generator
) -> TwoHorizonRollout:
    """Sample one two-horizon episode under the policy ``tables``, in
    ``_step_blocks``' draw order: ``rollouts_two_horizon`` for one episode
    (the same draws, values and generator state) with integer horizons and
    no episode axis, without ``_episodes``' window bookkeeping, which made
    it 1.5-2 times slower. A ``t1 + t2`` above ``MAX_HORIZON`` raises
    ``HorizonOverflow`` before the start state is drawn; the visited steps
    are scored with one batched reward call.
    """
    t1 = sample_geometric(1.0 - m.gamma, rng)
    t2 = sample_geometric(1.0 - math.sqrt(m.gamma), rng)
    if t1 + t2 > MAX_HORIZON:
        raise HorizonOverflow(f"sampled horizon {t1 + t2} exceeds cap {MAX_HORIZON}")
    blocks = _step_blocks(m, tables, m.sample_starts(rng, 1)[0], rng, t1 + t2, start=t1)
    states, actions, trace = _score_trace(m, blocks)
    return TwoHorizonRollout(
        t1=t1, t2=t2, snapshot_state=states[0], snapshot_action=actions[0], reward_trace=trace
    )


def rollouts_two_horizon(
    m: FactoredNmarlModel,
    tables: np.ndarray,
    rng: np.random.Generator,
    episodes: int,
) -> TwoHorizonRollout:
    """Sample ``episodes`` two-horizon episodes side by side under the
    policy ``tables``, in ``_step_blocks``' draw order, each episode up to
    its own ``t1 + t2``.

    Fewer than one episode raises ``ConfigError`` before any draw; a
    longest ``t1 + t2`` above ``MAX_HORIZON`` raises ``HorizonOverflow``
    before the start states are drawn.
    """
    if episodes < 1:
        raise ConfigError(f"episodes must be at least 1, got {episodes}")
    t1 = sample_geometric(1.0 - m.gamma, rng, size=episodes)
    t2 = sample_geometric(1.0 - math.sqrt(m.gamma), rng, size=episodes)
    longest = int((t1 + t2).max())
    if longest > MAX_HORIZON:
        raise HorizonOverflow(f"sampled horizon {longest} exceeds cap {MAX_HORIZON}")
    return _episodes(m, tables, rng, m.sample_starts(rng, episodes), None, t1, t2)


def _episodes(
    m: FactoredNmarlModel,
    tables: np.ndarray,
    rng: np.random.Generator,
    starts: np.ndarray,
    start_actions: np.ndarray | None,
    t1: np.ndarray,
    t2: np.ndarray,
) -> TwoHorizonRollout:
    """``E`` episodes from the ``(E, n)`` ``starts``, each with its own
    ``t1`` and ``t2``, stepped together by ``_step_blocks`` from ``start =
    t1`` to ``last_steps = t1 + t2``.

    Of each yielded block, the entries inside their episode's window are
    scored with one reward call and written to the window's rows of the
    trace, and the entries at ``t1`` are the snapshots. An episode the count
    form drops as parked after its ``t1`` earns ``+0.0`` at every later
    step, which the trace's zeros hold.
    """
    last = t1 + t2
    ends = np.cumsum(t2 + 1)
    rows = ends - (t2 + 1) - t1  # each episode's trace row of step 0
    trace = np.zeros((int(ends[-1]), m.n))
    snapshot_state = np.empty(starts.shape, dtype=np.intp)
    snapshot_action = np.empty_like(snapshot_state)
    blocks = _step_blocks(m, tables, starts, rng, int(last.max()), start_actions, t1, last)
    t = int(t1.min())  # the block's first step
    for states, actions, live in blocks:
        steps = np.arange(t, t + len(states))[:, None]
        at, cols = np.nonzero((steps >= t1.take(live)) & (steps <= last.take(live)))
        if len(at):
            states, actions = states[at, cols], actions[at, cols]
            covered, at = live.take(cols), at + t  # the entries' episodes and steps
            trace[rows.take(covered) + at] = m.batch_rewards(states, actions)
            at_t1 = at == t1.take(covered)
            snapshot_state[covered[at_t1]] = states[at_t1]
            snapshot_action[covered[at_t1]] = actions[at_t1]
        t += len(steps)
    return TwoHorizonRollout(t1, t2, snapshot_state, snapshot_action, trace)


def q_estimates(roll: TwoHorizonRollout, m: FactoredNmarlModel, kappa_p: int) -> np.ndarray:
    """Every agent's return estimate ``(n,)``: the half-discounted reward sum
    over its ``kappa_p + kappa_r``-hop neighbors, divided by ``n``; ``(E,
    n)`` for a rollout with an episode axis.

    For one episode, with or without an episode axis, each agent's member
    rewards are added one member at a time, in member order, and its step
    sums are dotted with the weights in a dot of its own, so an estimate's
    bits do not depend on the rest of the network. For more, the step sums
    of all windows come from one product with the hop mask, and each
    window's weighted step sums are added by ``np.add.reduceat``; these may
    round differently from the one-episode sums.
    """
    trace = roll.reward_trace
    one = not isinstance(roll.t2, np.ndarray)
    if one or len(roll.t2) == 1:  # one window: the trace's t2 + 1 rows
        cols = _member_columns(m.graph, kappa_p + m.kappa_r)
        padded = np.concatenate([trace.T, np.zeros((1, len(trace)))])  # (n + 1, t2 + 1)
        step_sums = np.add.reduce(padded[cols], axis=0)  # (n, t2 + 1), member by member
        weights = half_discount_weights(m.gamma, len(trace))
        q_values = (step_sums[:, None, :] @ weights[:, None])[:, 0, 0] / m.n
        return q_values if one else q_values[None]
    lengths = roll.t2 + 1
    firsts = np.cumsum(lengths) - lengths  # each window's first row
    taus = np.arange(len(trace)) - np.repeat(firsts, lengths)
    weights = half_discount_weights(m.gamma, int(lengths.max())).take(taus)
    step_sums = trace @ netgraph.hop_mask(m.graph, kappa_p + m.kappa_r).T  # (rows, n)
    step_sums *= weights[:, None]
    return np.add.reduceat(step_sums, firsts) / m.n


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
    """Every agent's gradient estimate from one rollout, or from each
    episode of a rollout with an episode axis.

    Agent ``i`` scores the snapshot with its own estimate row (or the shared
    parameters when ``params`` is ``(n, d)``). Its row reads only that view,
    the snapshot entries within ``kappa_p`` hops and the reward columns
    within ``kappa_p + kappa_r`` hops. Every episode's norms are held to
    ``bound``; a NaN norm fails too.
    """
    if bound is None:
        bound = estimate_bound(m, pol)
    grads, q_values = _bounded_gradients(roll, m, pol, pol._checked(params), bound)
    norms = np.sqrt(np.einsum("...ij,...ij->...i", grads, grads))
    return GradientEstimate(grads=grads, q_values=q_values, norms=norms, bound=bound)


def _bounded_gradients(
    roll: TwoHorizonRollout, m: FactoredNmarlModel, pol: CoupledSoftmaxPolicy,
    params: np.ndarray, bound: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``gradient_estimate``'s gradients and return estimates on ``_checked``
    parameters. The bound check squares the norms by ``np.vecdot``, a ufunc,
    not by the record's ``einsum``; a NaN fails it, and below the cap no
    square overflows (the model refuses a reward bound whose cap would)."""
    q_values = q_estimates(roll, m, pol.spec.kappa_p)
    scores = pol._score_sums(roll.snapshot_state, roll.snapshot_action, params)
    grads = q_values[..., None] * scores / (1.0 - m.gamma)
    worst = math.sqrt(np.maximum.reduce(np.vecdot(grads, grads), axis=None, initial=0.0))
    if not worst <= bound * (1.0 + 1e-9):
        raise BoundViolated(
            f"gradient-estimate norm {worst:.6g} exceeds analytic cap {bound:.6g}"
        )
    return grads, q_values


def sample_q_conditional(
    m: FactoredNmarlModel,
    tables: np.ndarray,
    kappa_p: int,
    snapshot_state: Sequence[int],
    snapshot_action: Sequence[int],
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """``size`` conditional resamples ``(size, n)`` of every agent's return
    estimate from a fixed snapshot, under the policy ``tables``.

    Each draws a fresh ``t2`` and continues the trajectory from the given
    state-action pair; agent ``i``'s mean over many such draws is its exact
    neighbors-averaged action value at the snapshot. This is the two-horizon
    episode with ``t1 = 0``, the snapshot as its start states and start
    actions, drawn in ``_step_blocks``' order.

    Before any draw, a ``size`` below 1 raises ``ConfigError``, a snapshot
    that is not ``(n,)`` raises ``DimensionMismatch``, and one with a
    non-integer entry, a state outside ``0..S-1`` or an action outside
    ``0..A-1`` raises ``IndexOutOfRange``.
    """
    if size < 1:
        raise ConfigError(f"size must be at least 1, got {size}")
    snapshot = []
    for what, entries, k in [("state", snapshot_state, m.n_states),
                             ("action", snapshot_action, m.n_actions)]:
        arr = np.asarray(entries)
        if arr.shape != (m.n,):
            raise DimensionMismatch(f"snapshot {what}s have shape {arr.shape}, expected ({m.n},)")
        if not (np.issubdtype(arr.dtype, np.integer) and np.all((arr >= 0) & (arr < k))):
            raise IndexOutOfRange(f"snapshot {what}s {arr.tolist()} are not integers in 0..{k - 1}")
        snapshot.append(np.broadcast_to(arr.astype(np.intp), (size, m.n)))
    t2 = sample_geometric(1.0 - math.sqrt(m.gamma), rng, size=size)
    roll = _episodes(m, tables, rng, *snapshot, np.zeros(size, dtype=np.intp), t2)
    return q_estimates(roll, m, kappa_p)
