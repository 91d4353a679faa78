"""Factored networked MDP: one shared finite space, independent kernels, local rewards.

The model contract, which the rest of the package relies on:

* every agent has the same ``n_states`` states and ``n_actions`` actions,
  0-based indices into one shared ``(S, A)`` space, so the coupled softmax
  can mix ``theta_k[s_j, a]`` across agents;
* agent ``i``'s reward reads only its direct neighbors' state-action pairs,
  itself included (``kappa_r = 1``): its reward members are
  ``graph.neighbors[i]``.
* a start is a per-agent table ``rho`` ``(n, S)``: row ``i`` is agent
  ``i``'s start distribution, and the agents draw their start states
  independently (``point_starts`` builds the table of fixed states).

Transition kernels factor per agent, so the global transition probability
is the product of the local ones. A model has one reward callable, batched
over leading axes: integer state and action arrays ``(..., n)`` map to float
rewards ``(..., n)``, and column ``i`` reads only agent ``i``'s reward
members. Each column is therefore also a dense table over that restricted
domain (``FactoredNmarlModel.reward_tables``), and a reward given by such
tables is one flat lookup (``table_rewards``): every agent's table is
concatenated once, and a call computes each entry's key and reads it with
one ``take``. A table may hold only its members' state axes, as power
control's do, since its reward ignores the actions.

The constructor checks the model against this contract, so a model that
exists is valid: no sampler, oracle or trainer receives an unchecked one.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Sequence

import numpy as np

from . import netgraph
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySpace,
    IndexOutOfRange,
    InvalidProbability,
    KernelRowNotStochastic,
    SpaceTooLarge,
)

ROW_SUM_TOL = 1e-12
MAX_REWARD_DOMAIN = 2_000_000  # restricted reward domains beyond this are not tabulated

# Batched reward: integer (..., n) states and actions to float (..., n)
# rewards; column i reads only agent i's direct neighbors.
BatchRewards = Callable[[np.ndarray, np.ndarray], np.ndarray]


def tensor_product(tables: Sequence[np.ndarray], lead: int = 0) -> np.ndarray:
    """Tensor product of per-member tables that share their axis groups.

    Member ``p``'s table has ``lead`` shared leading axes (a stack of
    policies, say), then one axis per group (state, action, ...). The result
    keeps the leading axes in front, then has axes ``(group 0 of every
    member, group 1 of every member, ...)``, and multiplies the members in
    order, left to right.
    """
    k = len(tables)
    front = list(tables[0].shape[:lead])
    groups = tables[0].ndim - lead
    out = np.ones(front + [t.shape[lead + g] for g in range(groups) for t in tables])
    for p, t in enumerate(tables):
        shape = front + [1] * (k * groups)
        for g in range(groups):
            shape[lead + g * k + p] = t.shape[lead + g]
        out *= t.reshape(shape)
    return out


def embed(table: np.ndarray, inner: Sequence[int], outer: Sequence[int]) -> np.ndarray:
    """``table`` over ``inner`` as a view that broadcasts over ``outer``.

    ``table`` has ``inner``'s state axes, then its action axes; both member
    tuples are sorted and ``inner`` is a subset of ``outer``. The view has
    ``outer``'s axis layout, with size 1 on non-member axes.
    """
    k, m = len(outer), len(inner)
    shape = [1] * (2 * k)
    for q, j in enumerate(inner):
        p = outer.index(j)
        shape[p] = table.shape[q]
        shape[k + p] = table.shape[m + q]
    return table.reshape(shape)


def point_starts(states: Sequence[int], n_states: int) -> np.ndarray:
    """The start table ``(n, n_states)`` whose row ``i`` is the point mass on ``states[i]``.

    Raises:
        IndexOutOfRange: a state is a bool, not an integer, or outside ``0..n_states-1``.
    """
    states = list(states)
    if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) and 0 <= s < n_states
               for s in states):
        raise IndexOutOfRange(
            f"start states must be integers in 0..{n_states - 1}, got {states!r}"
        )
    return np.eye(n_states)[np.array(states, dtype=np.intp)]


class FactoredNmarlModel:
    """Model tuple: graph, shared spaces, kernels, neighborhood rewards, start, discount.

    Every agent shares one ``(n_states, n_actions)`` space, and agent ``i``'s
    reward reads only its direct neighbors (``kappa_r = 1``, a class
    constant): the contract of the module docstring. ``batch_rewards(states,
    actions)`` maps integer arrays of shape ``(..., n)`` to float rewards of
    shape ``(..., n)``. It is the model's only reward implementation; the
    samplers score whole arrays of steps or episodes with one call.

    The constructor runs ``validate``, which raises on an invalid model and
    sets ``reward_bound``; without declared ``reward_bounds`` it builds the
    reward tables to find the bound.

    Other derived forms are built lazily and cached. ``stacked_kernel_cum`` holds
    the kernel row cumsums, every row capped with a ``+inf`` last column.
    ``estimator._step_blocks`` steps with their compressed form,
    ``kernel_support``: only the columns where a row's cumsum rises and
    stays below 1, as arrays for the count form and, through
    ``kernel_support_lists``, as per-row Python tuples for the scalar walk
    (``_step_blocks``' docstring states the draw order and when each form
    is used). ``parked_rows`` marks the flat policy rows ``agent *
    S + s`` whose kernel row stays on ``s`` under every action and where
    every reward is ``+0.0``, so that ``trainer.evaluate_policy`` stops
    stepping an episode once all its agents sit on such rows. Another is one
    dense reward table per agent over its neighborhood's restricted domain
    (``reward_tables``). The reward tables feed the reward bound and every
    reward the exact oracle integrates; rewards do not depend on the policy,
    so the domain is enumerated once per model. For the same reason the
    exact oracle's joint transition table of an agent subset
    (``joint_kernel``), and the reward table of a restricted chain with its
    bound (``chain_reward``), are built once per model and key.

    Args:
        graph: communication network; also defines reward neighborhoods.
        n_states / n_actions: sizes of the shared state and action spaces.
        kernels: per-agent arrays ``P_i[s, a, s']`` with stochastic rows.
            Deterministic kernels are one-hot rows, not a separate code path.
        batch_rewards: the batched reward callable described above.
        rho: the start table ``(n, n_states)``; row ``i`` is agent ``i``'s start distribution.
        gamma: discount in (0, 1).
        reward_bounds: optional per-agent analytic caps on ``|r_i|``; when
            absent the bound is the largest ``|r_i|`` in the reward tables.
    """

    kappa_r = 1  # reward dependency radius: direct neighbors only
    reward_bound: float  # set by validate

    def __init__(
        self,
        graph: netgraph.AgentGraph,
        n_states: int,
        n_actions: int,
        kernels: Sequence[np.ndarray],
        batch_rewards: BatchRewards,
        rho: np.ndarray,
        gamma: float,
        reward_bounds: Sequence[float] | None = None,
    ) -> None:
        if not 0.0 < gamma < 1.0:
            raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
        self.graph = graph
        self.n = graph.n
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.kernels = [np.asarray(k, dtype=float) for k in kernels]
        self.rho = np.array(rho, dtype=float)
        self.rho.setflags(write=False)
        self.gamma = float(gamma)
        self.reward_bounds = list(reward_bounds) if reward_bounds is not None else None
        self.batch_rewards = batch_rewards
        self.reward_members: tuple[tuple[int, ...], ...] = graph.neighbors
        self._stacked_cum: np.ndarray | None = None
        self._kernel_support: tuple[np.ndarray, np.ndarray] | None = None
        self._support_lists: tuple | None = None
        self._parked_rows: np.ndarray | None = None
        self._reward_tables: tuple[np.ndarray, ...] | None = None
        self._joint_kernels: dict[tuple[int, ...], np.ndarray] = {}
        self._chain_rewards: dict[tuple, tuple[np.ndarray, float]] = {}
        self.validate()
        # a start of point masses draws nothing (``sample_starts``)
        self._start_row: np.ndarray | None = None
        if np.all(np.count_nonzero(self.rho, axis=1) == 1):
            self._start_row = self.rho.argmax(axis=1)[None]
            self._start_row.setflags(write=False)

    # ------------------------------------------------------------------
    # shape helpers

    @property
    def state_sizes(self) -> tuple[int, ...]:
        return (self.n_states,) * self.n

    @property
    def action_sizes(self) -> tuple[int, ...]:
        return (self.n_actions,) * self.n

    def stacked_kernel_cum(self) -> np.ndarray:
        """Kernel row cumsums stacked to ``(n, S, A, S)``, last column ``+inf``.

        A uniform inverts to the first state whose capped cumsum exceeds it:
        a float cumsum can end just below 1, and the cap sends a draw beyond
        it to the last state. ``kernel_support`` compresses these rows, and
        ``estimator._step_blocks`` steps with that compressed form only;
        besides ``kernel_support``, the benchmark's set-up and the tests'
        reference stepper read this one. Read-only.
        """
        if self._stacked_cum is None:
            cum = np.cumsum(np.stack(self.kernels), axis=-1)
            cum[..., -1] = np.inf
            cum.setflags(write=False)
            self._stacked_cum = cum
        return self._stacked_cum

    def kernel_support(self) -> tuple[np.ndarray, np.ndarray]:
        """The kernel rows compressed to where their cumsums rise below 1 (cached).

        Returns ``(thresholds, successors)`` over the ``n * S * A`` flat rows
        of ``stacked_kernel_cum``, row ``r = (agent * S + s) * A + a``. Row
        ``r`` keeps its columns ``j < S - 1`` whose float cumsum strictly
        rises (exceeds the column before it, or 0 for ``j = 0``) and stays
        below 1: ``thresholds[k, r]`` is the cumsum at the ``k``-th such
        column and ``successors[r, k]`` that column. ``successors[r, K_r]``,
        past row ``r``'s ``K_r`` kept columns, is its first column whose
        capped cumsum reaches 1 (``S - 1`` when only the cap does). Both are
        padded, with ``+inf`` and that last successor, to ``K - 1`` thresholds
        and ``K`` successors, ``K - 1`` the most any row keeps.

        The count of a row's thresholds at or below a uniform ``u`` in
        ``[0, 1)`` indexes its successor, which is the first column whose
        capped cumsum exceeds ``u``: the state the capped cumsum inverts
        ``u`` to. A dropped threshold is at least 1, so no such ``u``
        reaches it, and a row that reaches 1 at a column keeps no column
        after it. A one-hot kernel row keeps none, so on one-hot kernels
        ``K = 1`` and every successor is a plain lookup. Read-only.
        """
        if self._kernel_support is None:
            ns, rows_total = self.n_states, self.n * self.n_states * self.n_actions
            capped = self.stacked_kernel_cum().reshape(rows_total, ns)
            cum = capped[:, :-1]
            before = np.concatenate([np.zeros((rows_total, 1)), cum], axis=1)[:, :-1]
            kept = (cum > before) & (cum < 1.0)
            rows, cols = np.nonzero(kept)
            slots = (np.cumsum(kept, axis=1) - 1)[rows, cols]  # rank among the row's kept columns
            width = int(kept.sum(axis=1).max(initial=0))
            thresholds = np.full((width, rows_total), np.inf)
            thresholds[slots, rows] = cum[rows, cols]
            last = (capped >= 1.0).argmax(axis=1)  # the cap is +inf, so every row has one
            successors = np.repeat(last[:, None], width + 1, axis=1)
            successors[rows, slots] = cols
            thresholds.setflags(write=False)
            successors.setflags(write=False)
            self._kernel_support = thresholds, successors
        return self._kernel_support

    def kernel_support_lists(
        self,
    ) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...] | None]:
        """``kernel_support`` per flat row as Python scalars (cached).

        Returns ``(thresholds, successor_rows, only_rows)``: ``thresholds[r]``
        is row ``r``'s column of ``kernel_support()[0]`` (``+inf`` padding
        included) and ``successor_rows[r]`` its row of ``kernel_support()[1]``
        as flat policy rows ``agent * S + s'``, so that
        ``successor_rows[r][bisect_right(thresholds[r], u)]`` is the policy
        row of the state the array count picks. When no row keeps a
        threshold (``K = 1``, as on one-hot kernels), ``only_rows[r]`` is row
        ``r``'s one successor row, else ``only_rows`` is ``None``. Tuples, so
        read-only like the arrays.
        """
        if self._support_lists is None:
            thresholds, successors = self.kernel_support()
            agents = np.arange(len(successors)) // (self.n_states * self.n_actions)
            rows = successors + (agents * self.n_states)[:, None]
            self._support_lists = (
                tuple(map(tuple, thresholds.T.tolist())),
                tuple(map(tuple, rows.tolist())),
                tuple(rows[:, 0].tolist()) if len(thresholds) == 0 else None,
            )
        return self._support_lists

    def parked_rows(self) -> np.ndarray:
        """Which flat policy rows ``agent * S + s`` are parked, ``(n * S,)`` bool (cached).

        A row is parked when its kernel row is one-hot on ``s`` for every
        action, so that an agent there stays there. The mask is kept only
        when every agent's reward is exactly ``+0.0`` at every mix of parked
        member states and member actions: then an episode whose agents all
        sit on parked rows earns ``+0.0`` at every later step. One
        ``batch_rewards`` call checks that, over each agent's members' parked
        states and actions, with state and action 0 in the slots of
        non-members. When some agent has no parked row, when that call would
        exceed ``MAX_REWARD_DOMAIN`` points, or when one of its rewards is
        anything but ``+0.0`` (``-0.0`` and NaN included), no row is parked.
        Read-only.
        """
        if self._parked_rows is None:
            one_hot = np.stack(self.kernels) == np.eye(self.n_states)[:, None, :]  # (n, S, A, S)
            parked = one_hot.all(axis=(2, 3))
            if not self._parked_rewards_vanish(parked):
                parked[:] = False
            parked = parked.ravel()
            parked.setflags(write=False)
            self._parked_rows = parked
        return self._parked_rows

    def _parked_rewards_vanish(self, parked: np.ndarray) -> bool:
        places = [np.flatnonzero(row) for row in parked]  # each agent's parked states
        if not all(len(p) for p in places):
            return False
        grids = [[len(places[j]) for j in members] + [self.n_actions] * len(members)
                 for members in self.reward_members]
        sizes = [math.prod(shape) for shape in grids]
        total = sum(sizes)
        if total > MAX_REWARD_DOMAIN:
            return False
        states = np.zeros((total, self.n), dtype=np.intp)
        acts = np.zeros((total, self.n), dtype=np.intp)
        offset = 0
        for members, shape, size in zip(self.reward_members, grids, sizes):
            grid = np.indices(shape).reshape(len(shape), size)
            rows = slice(offset, offset + size)
            for p, j in enumerate(members):
                states[rows, j] = places[j][grid[p]]
                acts[rows, j] = grid[len(members) + p]
            offset += size
        with np.errstate(all="ignore"):
            rewards = np.asarray(self.batch_rewards(states, acts), dtype=float)
        got = rewards[np.arange(total), np.repeat(np.arange(self.n), sizes)]
        return bool(np.all((got == 0.0) & ~np.signbit(got)))

    def joint_kernel(self, members: tuple[int, ...]) -> np.ndarray:
        """The sorted ``members``' kernels as one joint table (cached per tuple).

        ``tensor_product`` of their kernels, flattened row-major to
        ``(S^k, A^k, S^k)``: member states, member actions, next member
        states, each group in ``members`` order. The cache keeps one table
        per member tuple asked for, so callers check its size first.
        Read-only.
        """
        table = self._joint_kernels.get(members)
        if table is None:
            k = len(members)
            table = tensor_product([self.kernels[j] for j in members]).reshape(
                self.n_states**k, self.n_actions**k, self.n_states**k
            )
            table.setflags(write=False)
            self._joint_kernels[members] = table
        return table

    def chain_reward(
        self, members: tuple[int, ...], agents: tuple[int, ...], scale: float
    ) -> tuple[np.ndarray, float]:
        """``sum_{j in agents} r_j / scale``, flat ``(S^k, A^k)`` over the sorted
        ``members`` that hold every agent's neighborhood, and its largest
        magnitude (cached per key). Read-only."""
        key = (members, agents, scale)
        if key not in self._chain_rewards:
            k = len(members)
            reward = np.zeros((self.n_states,) * k + (self.n_actions,) * k)
            for j in agents:
                reward += embed(self.reward_tables()[j], self.reward_members[j], members)
            reward = (reward / scale).reshape(self.n_states**k, self.n_actions**k)
            reward.setflags(write=False)
            self._chain_rewards[key] = (reward, float(np.max(np.abs(reward))))
        return self._chain_rewards[key]

    def reward_tables(self) -> tuple[np.ndarray, ...]:
        """Dense per-agent reward tables over the restricted domains (cached).

        Table ``i`` is indexed by the member states, then the member actions,
        members in sorted order: ``tabulate`` over ``(S, A)``, one
        ``batch_rewards`` call per agent.

        Raises:
            SpaceTooLarge: a restricted domain exceeds ``MAX_REWARD_DOMAIN`` points.
        """
        if self._reward_tables is None:
            self._reward_tables = tabulate(
                self.batch_rewards, self.reward_members, (self.n_states, self.n_actions)
            )
        return self._reward_tables

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> None:
        """Check structural invariants, then set ``reward_bound``.

        The constructor runs this; a later call returns at once.

        Raises:
            EmptySpace: the shared state or action space is empty.
            DimensionMismatch: a kernel or the start table has the wrong shape.
            InvalidProbability: a start row is not a finite distribution.
            KernelRowNotStochastic: some kernel row does not sum to one.
            ConfigError: a declared reward bound, or a tabulated reward, is
                not finite, or the bound is so large that a gradient-estimate
                norm could overflow when squared.
        """
        if hasattr(self, "reward_bound"):
            return
        ns, na = self.n_states, self.n_actions
        if ns < 1 or na < 1:
            raise EmptySpace(f"the shared space has {ns} states and {na} actions")
        if len(self.kernels) != self.n:
            raise DimensionMismatch("need one kernel per agent")
        for i, rows in enumerate(self.kernels):
            if rows.shape != (ns, na, ns):
                raise DimensionMismatch(
                    f"kernel {i} has shape {rows.shape}, expected {(ns, na, ns)}"
                )
            if not np.all(rows >= 0.0):  # NaN fails the comparison too
                raise KernelRowNotStochastic(f"kernel {i} has negative or NaN entries")
            worst = float(np.max(np.abs(rows.sum(axis=-1) - 1.0)))
            if not worst <= ROW_SUM_TOL:
                raise KernelRowNotStochastic(
                    f"kernel {i} rows deviate from 1 by up to {worst:.3e}"
                )
        if self.rho.shape != (self.n, ns):
            raise DimensionMismatch(
                f"the start table has shape {self.rho.shape}, expected {(self.n, ns)}"
            )
        for i, row in enumerate(self.rho):
            # NaN fails the comparison, and an infinite entry the sum
            if not (np.all(row >= 0.0) and abs(row.sum() - 1.0) <= ROW_SUM_TOL):
                raise InvalidProbability(
                    f"agent {i}'s start distribution must be finite, nonnegative and sum "
                    f"to 1, got {row.tolist()}"
                )
        zeros = np.zeros((1, self.n), dtype=np.intp)
        shape = np.shape(self.batch_rewards(zeros, zeros))
        if shape != (1, self.n):
            raise DimensionMismatch(
                f"rewards of a (1, {self.n}) batch have shape {shape}, expected (1, {self.n})"
            )
        bound = self._compute_reward_bound()
        # every gradient-estimate norm is at most ``estimate_bound`` at m_p =
        # m_pr = n, and training adds up rewards over the agents and squares
        # the norms; ``x * x``, since float ``**`` raises on overflow
        x = math.sqrt(2.0) * self.n * bound / ((1.0 - self.gamma) * (1.0 - math.sqrt(self.gamma)))
        if not math.isfinite(x * x):
            raise ConfigError(
                f"the reward bound {bound:.3g} is too large: the gradient-estimate cap "
                f"{x:.3g} for {self.n} agents at gamma {self.gamma} overflows when squared"
            )
        self.reward_bound = bound

    def _compute_reward_bound(self) -> float:
        # ``max`` drops a NaN that is not its first argument, so every value is
        # checked first: a bound that is not finite would reach the oracle's
        # horizon formula or train on non-finite rewards
        if self.reward_bounds is not None:
            bounds = [float(b) for b in self.reward_bounds]
            if not all(math.isfinite(b) for b in bounds):
                raise ConfigError(f"the declared reward bounds must be finite, got {bounds}")
            return max(0.0, *bounds)
        tables = self.reward_tables()
        for i, table in enumerate(tables):
            if not np.isfinite(table).all():
                raise ConfigError(
                    f"agent {i}'s reward is not finite at {int(np.sum(~np.isfinite(table)))} "
                    "points of its neighborhood"
                )
        return max(0.0, *(float(np.max(np.abs(t))) for t in tables))

    def sample_starts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` start states ``(size, n)``, agent ``i``'s drawn from ``rho[i]``.

        A table of point masses draws nothing; one state is then the same
        read-only ``(1, n)`` array on every call, more are a fresh copy. Any
        other table draws one ``rng.random((size, n))``, whose values and
        generator state match ``size`` draws of one state. A uniform picks the
        count of its row's cumsum entries at or below it, clipped to the last
        state, since a float cumsum can end just below 1.
        """
        if self._start_row is not None:
            return self._start_row if size == 1 else np.repeat(self._start_row, size, axis=0)
        draws = rng.random((size, self.n))
        counts = (np.cumsum(self.rho, axis=1) <= draws[..., None]).sum(axis=-1)
        return np.minimum(counts, self.n_states - 1)

    # ------------------------------------------------------------------
    # rewards

    def rewards(self, s: Sequence[int], a: Sequence[int]) -> np.ndarray:
        """``batch_rewards`` on sequences or arrays of shape ``(..., n)``."""
        return np.asarray(
            self.batch_rewards(np.asarray(s, dtype=np.intp), np.asarray(a, dtype=np.intp)),
            dtype=float,
        )


def tabulate(
    batch_rewards: BatchRewards, members: Sequence[Sequence[int]], sizes: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Agent ``i``'s column of ``batch_rewards`` at every point of its members' axes.

    ``sizes`` is ``(S,)``, for one state axis per member, or ``(S, A)``, for
    the member states' axes and then the member actions' axes; a state-only
    table is read at action 0. Table ``i`` is column ``i`` of one call on
    the grid of its members' points, with state and action 0 in the slots
    of non-members, which column ``i`` does not read. The calls run under
    ``np.errstate(all="ignore")``: a non-finite reward is the model's
    ``ConfigError``, not a numpy warning.

    Raises:
        SpaceTooLarge: a table has more than ``MAX_REWARD_DOMAIN`` points.
    """
    tables = []
    for i, nb in enumerate(members):
        k = len(nb)
        shape = tuple(size for size in sizes for _ in nb)
        count = math.prod(shape)
        if count > MAX_REWARD_DOMAIN:
            raise SpaceTooLarge(
                f"reward domain of agent {i} has {count} points, cap is "
                f"{MAX_REWARD_DOMAIN}; declare reward_bounds instead of enumerating"
            )
        grid = np.indices(shape).reshape(len(shape), count)
        states = np.zeros((count, len(members)), dtype=np.intp)
        acts = np.zeros_like(states)
        states[:, nb] = grid[:k].T
        if len(sizes) > 1:
            acts[:, nb] = grid[k:].T
        with np.errstate(all="ignore"):
            column = np.asarray(batch_rewards(states, acts), dtype=float)[:, i]
        tables.append(column.reshape(shape))
    return tuple(tables)


def table_rewards(
    tables: Sequence[np.ndarray], members: Sequence[Sequence[int]]
) -> BatchRewards:
    """Batched reward reading agent ``i``'s ``tables[i]`` at its ``members``'
    states, then actions.

    Table ``i`` has one axis per member state, in ``members[i]``'s order,
    then one axis per member action or none: a state-only table does not
    read the actions. Every state axis has one size, every action axis
    another. The tables are concatenated once, and a call is one lookup:
    the keys are the float product ``states @ W_s``, plus ``acts @ W_a``
    only when some table has action axes (column ``i`` of each holds table
    ``i``'s strides in its members' rows; exact below 2**53 entries), then
    one ``astype``, the agents' table offsets and one ``take``. An index
    outside its axis is not caught: its key reads another entry.

    Raises:
        DimensionMismatch: a table's axis count is neither its member count
            k nor 2k, or its state or action axes disagree in size.
    """
    tables = [np.asarray(t, dtype=float) for t in tables]
    n = len(tables)
    w_s, w_a = np.zeros((n, n)), np.zeros((n, n))
    state_sizes, action_sizes = set(), set()
    for i, (table, nb) in enumerate(zip(tables, members)):
        k = len(nb)
        if table.ndim not in (k, 2 * k):
            raise DimensionMismatch(
                f"agent {i}'s table has {table.ndim} axes, expected {k} or {2 * k} "
                f"for its {k} members"
            )
        state_sizes.update(table.shape[:k])
        action_sizes.update(table.shape[k:])
        strides = [math.prod(table.shape[q + 1:]) for q in range(table.ndim)]
        for p, j in enumerate(nb):
            w_s[j, i] += strides[p]
            if table.ndim > k:
                w_a[j, i] += strides[k + p]
    if len(state_sizes) > 1 or len(action_sizes) > 1:
        raise DimensionMismatch(
            f"the tables' state axes have sizes {sorted(state_sizes)} and their action "
            f"axes {sorted(action_sizes)}; each needs one size"
        )
    flat = np.concatenate([t.ravel() for t in tables])
    offsets = np.cumsum([0] + [t.size for t in tables[:-1]])
    reads_actions = bool(action_sizes)

    def batch(states: np.ndarray, acts: np.ndarray) -> np.ndarray:
        keys = states @ w_s
        if reads_actions:
            keys += acts @ w_a
        keys = keys.astype(np.intp)
        keys += offsets
        return flat.take(keys)

    return batch
