"""Factored networked MDP: one shared finite space, independent kernels, local rewards.

The model contract, which the rest of the package relies on:

* every agent has the same ``n_states`` states and ``n_actions`` actions,
  0-based indices into one shared ``(S, A)`` space, so the coupled softmax
  can mix ``theta_k[s_j, a]`` across agents;
* agent ``i``'s reward reads only its direct neighbors' state-action pairs,
  itself included (``kappa_r = 1``): its reward members are
  ``graph.neighbors[i]``.

Transition kernels factor per agent, so the global transition probability
is the product of the local ones. A model has one reward callable, batched
over leading axes: integer state and action arrays ``(..., n)`` map to float
rewards ``(..., n)``, and column ``i`` reads only agent ``i``'s reward
members. Each column is therefore also a dense table over that restricted
domain (``FactoredNmarlModel.reward_tables``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import netgraph
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySpace,
    IndexOutOfRange,
    KernelRowNotStochastic,
    SpaceTooLarge,
)

ROW_SUM_TOL = 1e-12
MAX_REWARD_DOMAIN = 2_000_000  # restricted reward domains beyond this are not tabulated

# Batched reward: integer (..., n) states and actions to float (..., n)
# rewards; column i reads only agent i's direct neighbors.
BatchRewards = Callable[[np.ndarray, np.ndarray], np.ndarray]


def tensor_product(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of per-member tables that share their axis groups.

    Member ``p``'s table has one axis per group (state, action, ...). The
    result has axes ``(group 0 of every member, group 1 of every member,
    ...)`` and multiplies the members in order, left to right.
    """
    k = len(tables)
    groups = tables[0].ndim
    out = np.ones([t.shape[g] for g in range(groups) for t in tables])
    for p, t in enumerate(tables):
        shape = [1] * (k * groups)
        for g in range(groups):
            shape[g * k + p] = t.shape[g]
        out *= t.reshape(shape)
    return out


@dataclass(frozen=True)
class InitialDistribution:
    """Start-state distribution: a fixed state or a per-agent product."""

    kind: str  # "fixed" | "product"
    state: tuple[int, ...] | None = None
    dists: tuple[np.ndarray, ...] | None = None

    @staticmethod
    def fixed(state: Sequence[int]) -> "InitialDistribution":
        if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in state):
            raise IndexOutOfRange(f"start states must be integers, got {list(state)!r}")
        return InitialDistribution(kind="fixed", state=tuple(int(s) for s in state))

    @staticmethod
    def product(dists: Sequence[np.ndarray]) -> "InitialDistribution":
        return InitialDistribution(
            kind="product", dists=tuple(np.asarray(d, dtype=float) for d in dists)
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` start states ``(size, n)``.

        The product draws ``rng.random((size, n))``, one uniform per agent in
        agent order per state, so its values and the generator state match
        ``size`` draws of one state each; the fixed state draws nothing. One
        fixed state is the same read-only ``(1, n)`` array on every call;
        more are a fresh copy.
        """
        if self.kind == "fixed":
            return self._fixed_row if size == 1 else np.repeat(self._fixed_row, size, axis=0)
        draws = rng.random((size, len(self.dists)))
        # A cumsum can end just below 1; clip a draw beyond it to the last state.
        columns = [
            np.minimum(np.searchsorted(np.cumsum(d), u, side="right"), len(d) - 1)
            for d, u in zip(self.dists, draws.T)
        ]
        return np.stack(columns, axis=-1)

    @cached_property
    def _fixed_row(self) -> np.ndarray:
        # built on first use, so that validate reports a bad state before any array
        row = np.array([self.state], dtype=np.intp)
        row.setflags(write=False)
        return row


class FactoredNmarlModel:
    """Model tuple: graph, shared spaces, kernels, neighborhood rewards, start, discount.

    Every agent shares one ``(n_states, n_actions)`` space, and agent ``i``'s
    reward reads only its direct neighbors (``kappa_r = 1``, a class
    constant): the contract of the module docstring. ``batch_rewards(states,
    actions)`` maps integer arrays of shape ``(..., n)`` to float rewards of
    shape ``(..., n)``. It is the model's only reward implementation; the
    samplers score whole arrays of steps or episodes with one call.

    Derived forms are built lazily and cached. ``stacked_kernel_cum`` holds
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
    (``joint_kernel``) is built once per model and member tuple.

    Args:
        graph: communication network; also defines reward neighborhoods.
        n_states / n_actions: sizes of the shared state and action spaces.
        kernels: per-agent arrays ``P_i[s, a, s']`` with stochastic rows.
            Deterministic kernels are one-hot rows, not a separate code path.
        batch_rewards: the batched reward callable described above.
        rho: initial state distribution (fixed or per-agent product).
        gamma: discount in (0, 1).
        reward_bounds: optional per-agent analytic caps on ``|r_i|``; when
            absent the bound is the largest ``|r_i|`` in the reward tables.
    """

    kappa_r = 1  # reward dependency radius: direct neighbors only

    def __init__(
        self,
        graph: netgraph.AgentGraph,
        n_states: int,
        n_actions: int,
        kernels: Sequence[np.ndarray],
        batch_rewards: BatchRewards,
        rho: InitialDistribution,
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
        self.rho = rho
        self.gamma = float(gamma)
        self.reward_bounds = list(reward_bounds) if reward_bounds is not None else None
        self.batch_rewards = batch_rewards
        self.reward_members: tuple[tuple[int, ...], ...] = graph.neighbors
        self._stacked_cum: np.ndarray | None = None
        self._kernel_support: tuple[np.ndarray, np.ndarray] | None = None
        self._support_lists: tuple | None = None
        self._parked_rows: np.ndarray | None = None
        self._reward_tables: tuple[np.ndarray, ...] | None = None
        self._reward_bound: float | None = None
        self._joint_kernels: dict[tuple[int, ...], np.ndarray] = {}

    # ------------------------------------------------------------------
    # shape helpers

    @property
    def state_sizes(self) -> tuple[int, ...]:
        return (self.n_states,) * self.n

    @property
    def action_sizes(self) -> tuple[int, ...]:
        return (self.n_actions,) * self.n

    @property
    def reward_bound(self) -> float:
        self.validate()
        return self._reward_bound

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

    def reward_tables(self) -> tuple[np.ndarray, ...]:
        """Dense per-agent reward tables over the restricted domains (cached).

        Table ``i`` is indexed by the member states, then the member actions,
        members in sorted order. It is column ``i`` of one ``batch_rewards``
        call on every member point, with state and action 0 in the slots of
        non-members, which column ``i`` does not read.

        Raises:
            SpaceTooLarge: a restricted domain exceeds ``MAX_REWARD_DOMAIN`` points.
        """
        if self._reward_tables is None:
            tables = []
            for i, members in enumerate(self.reward_members):
                k = len(members)
                shape = (self.n_states,) * k + (self.n_actions,) * k
                size = math.prod(shape)
                if size > MAX_REWARD_DOMAIN:
                    raise SpaceTooLarge(
                        f"reward domain of agent {i} has {size} points, cap is "
                        f"{MAX_REWARD_DOMAIN}; declare reward_bounds instead of enumerating"
                    )
                grid = np.indices(shape).reshape(2 * k, size)
                states = np.zeros((size, self.n), dtype=np.intp)
                acts = np.zeros((size, self.n), dtype=np.intp)
                states[:, members] = grid[:k].T
                acts[:, members] = grid[k:].T
                # a non-finite reward is validate's error, not a numpy warning
                with np.errstate(all="ignore"):
                    column = np.asarray(self.batch_rewards(states, acts), dtype=float)[:, i]
                tables.append(column.reshape(shape))
            self._reward_tables = tuple(tables)
        return self._reward_tables

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> None:
        """Check structural invariants, then compute and cache the reward bound.

        Raises:
            EmptySpace: the shared state or action space is empty.
            DimensionMismatch: a kernel shape, the fixed start's length or the
                product start's distributions disagree with the spaces.
            IndexOutOfRange: a fixed start state lies outside ``0..S-1``.
            KernelRowNotStochastic: some kernel row does not sum to one.
            ConfigError: a declared reward bound, or a tabulated reward, is
                not finite, or the bound is so large that a gradient-estimate
                norm could overflow when squared.
        """
        if self._reward_bound is not None:
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
            if np.any(rows < 0.0):
                raise KernelRowNotStochastic(f"kernel {i} has negative entries")
            sums = rows.sum(axis=-1)
            if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
                worst = float(np.max(np.abs(sums - 1.0)))
                raise KernelRowNotStochastic(
                    f"kernel {i} rows deviate from 1 by up to {worst:.3e}"
                )
        if self.rho.kind == "fixed":
            start = self.rho.state
            if len(start) != self.n:
                raise DimensionMismatch(
                    f"the fixed start has {len(start)} states, expected {self.n}"
                )
            if not all(0 <= s < ns for s in start):
                raise IndexOutOfRange(
                    f"the fixed start {list(start)} has a state outside 0..{ns - 1}"
                )
        elif len(self.rho.dists) != self.n or any(len(d) != ns for d in self.rho.dists):
            raise DimensionMismatch(
                f"the product start needs {self.n} distributions over {ns} states"
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
        self._reward_bound = bound

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

    # ------------------------------------------------------------------
    # rewards

    def rewards(self, s: Sequence[int], a: Sequence[int]) -> np.ndarray:
        """``batch_rewards`` on sequences or arrays of shape ``(..., n)``."""
        return np.asarray(
            self.batch_rewards(np.asarray(s, dtype=np.intp), np.asarray(a, dtype=np.intp)),
            dtype=float,
        )


def table_rewards(
    tables: Sequence[np.ndarray], members: Sequence[Sequence[int]]
) -> BatchRewards:
    """Batched reward reading agent ``i``'s ``tables[i]`` at its ``members``'
    states, then actions."""

    def batch(states: np.ndarray, acts: np.ndarray) -> np.ndarray:
        out = np.empty(states.shape, dtype=float)
        for i, (table, nb) in enumerate(zip(tables, members)):
            key = tuple(states[..., j] for j in nb) + tuple(acts[..., j] for j in nb)
            out[..., i] = table[key]
        return out

    return batch
