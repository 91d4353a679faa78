"""Factored networked MDP: per-agent finite spaces, independent kernels, local rewards.

States and actions are handled as 0-based indices internally; label lists
translate at the boundary. Transition kernels factor per agent, so the
global transition probability is the product of the local ones. A model has
one reward callable, batched over leading axes: integer state and action
arrays ``(..., n)`` map to float rewards ``(..., n)``, and column ``i`` reads
only agent ``i``'s ``kappa_r``-hop members. Each column is therefore also a
dense table over that restricted domain (``FactoredNmarlModel.reward_tables``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import netgraph
from .errors import (
    DimensionMismatch,
    EmptySpace,
    KernelRowNotStochastic,
    SpaceTooLarge,
)

ROW_SUM_TOL = 1e-12
MAX_REWARD_DOMAIN = 2_000_000  # restricted reward domains beyond this are not tabulated

# Batched reward: integer (..., n) states and actions to float (..., n)
# rewards; column i reads only agent i's kappa_r-hop members.
BatchRewards = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InitialDistribution:
    """Start-state distribution: a fixed state or a per-agent product."""

    kind: str  # "fixed" | "product"
    state: tuple[int, ...] | None = None
    dists: tuple[np.ndarray, ...] | None = None

    @staticmethod
    def fixed(state: Sequence[int]) -> "InitialDistribution":
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
        ``size`` draws of one state each; the fixed state draws nothing.
        """
        if self.kind == "fixed":
            return np.tile(np.asarray(self.state, dtype=np.intp), (size, 1))
        draws = rng.random((size, len(self.dists)))
        # A cumsum can end just below 1; clip a draw beyond it to the last state.
        columns = [
            np.minimum(np.searchsorted(np.cumsum(d), u, side="right"), len(d) - 1)
            for d, u in zip(self.dists, draws.T)
        ]
        return np.stack(columns, axis=-1)


@dataclass
class ModelDiagnostics:
    reward_bound: float
    state_sizes: tuple[int, ...]
    action_sizes: tuple[int, ...]
    n_joint_states: int


class FactoredNmarlModel:
    """Model tuple: graph, spaces, kernels, neighborhood rewards, start, discount.

    The reward contract: ``batch_rewards(states, actions)`` maps integer
    arrays of shape ``(..., n)`` to float rewards of shape ``(..., n)``, and
    column ``i`` reads only the entries of agent ``i``'s ``kappa_r``-hop
    members. It is the model's only reward implementation; the samplers
    score whole arrays of steps or episodes with one call.

    Two derived arrays are built lazily and cached: the kernel row cumsums
    that ``estimator.simulate`` steps with (``stacked_kernel_cum``, with a
    ``+inf`` last column so that every uniform inverts to a state;
    ``simulate``'s docstring states the draw order), and one dense reward
    table per agent over its ``kappa_r``-hop restricted domain
    (``reward_tables``). The reward tables feed the reward bound and every
    reward the exact oracle integrates; rewards do not depend on the policy,
    so the domain is enumerated once per model.

    Args:
        graph: communication network; also defines reward neighborhoods.
        state_labels / action_labels: per-agent label lists.
        kernels: per-agent arrays ``P_i[s, a, s']`` with stochastic rows.
            Deterministic kernels are one-hot rows, not a separate code path.
        batch_rewards: the batched reward callable described above.
        rho: initial state distribution (fixed or per-agent product).
        gamma: discount in (0, 1).
        kappa_r: reward dependency radius, at least 1.
        reward_bounds: optional per-agent analytic caps on ``|r_i|``; when
            absent the bound is the largest ``|r_i|`` in the reward tables.
    """

    def __init__(
        self,
        graph: netgraph.AgentGraph,
        state_labels: Sequence[Sequence],
        action_labels: Sequence[Sequence],
        kernels: Sequence[np.ndarray],
        batch_rewards: BatchRewards,
        rho: InitialDistribution,
        gamma: float,
        kappa_r: int = 1,
        reward_bounds: Sequence[float] | None = None,
    ) -> None:
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
        if kappa_r < 1:
            raise ValueError(f"kappa_r must be at least 1, got {kappa_r}")
        self.graph = graph
        self.n = graph.n
        self.state_labels = [list(s) for s in state_labels]
        self.action_labels = [list(a) for a in action_labels]
        self.kernels = [np.asarray(k, dtype=float) for k in kernels]
        self.rho = rho
        self.gamma = float(gamma)
        self.kappa_r = int(kappa_r)
        self.reward_bounds = list(reward_bounds) if reward_bounds is not None else None
        self.batch_rewards = batch_rewards
        self.reward_members: tuple[tuple[int, ...], ...] = tuple(
            netgraph.khop(graph, i, kappa_r).members for i in range(self.n)
        )
        self._stacked_cum: np.ndarray | None = None
        self._reward_tables: tuple[np.ndarray, ...] | None = None
        self._diagnostics: ModelDiagnostics | None = None

    # ------------------------------------------------------------------
    # shape helpers

    @property
    def state_sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.state_labels)

    @property
    def action_sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.action_labels)

    @property
    def homogeneous(self) -> bool:
        return len(set(self.state_sizes)) == 1 and len(set(self.action_sizes)) == 1

    @property
    def reward_bound(self) -> float:
        return self.validate().reward_bound

    def stacked_kernel_cum(self) -> np.ndarray:
        """Kernel row cumsums stacked to ``(n, S, A, S)``, last column ``+inf``.

        The capped form ``estimator.simulate`` inverts its uniforms with: a
        float cumsum can end just below 1, and the cap sends a draw beyond it
        to the last state. Homogeneous models only; read-only.
        """
        if self._stacked_cum is None:
            if not self.homogeneous:
                raise DimensionMismatch("stacked kernels require homogeneous spaces")
            cum = np.cumsum(np.stack(self.kernels), axis=-1)
            cum[..., -1] = np.inf
            cum.setflags(write=False)
            self._stacked_cum = cum
        return self._stacked_cum

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
                s_shape = tuple(self.state_sizes[j] for j in members)
                a_shape = tuple(self.action_sizes[j] for j in members)
                size = math.prod(s_shape + a_shape)
                if size > MAX_REWARD_DOMAIN:
                    raise SpaceTooLarge(
                        f"reward domain of agent {i} has {size} points, cap is "
                        f"{MAX_REWARD_DOMAIN}; declare reward_bounds instead of enumerating"
                    )
                grid = np.indices(s_shape + a_shape).reshape(2 * len(members), size)
                states = np.zeros((size, self.n), dtype=np.intp)
                acts = np.zeros((size, self.n), dtype=np.intp)
                states[:, members] = grid[: len(members)].T
                acts[:, members] = grid[len(members) :].T
                column = np.asarray(self.batch_rewards(states, acts), dtype=float)[:, i]
                tables.append(column.reshape(s_shape + a_shape))
            self._reward_tables = tuple(tables)
        return self._reward_tables

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> ModelDiagnostics:
        """Check structural invariants and return diagnostics (cached).

        Raises:
            EmptySpace: some agent has no states or no actions.
            DimensionMismatch: a kernel shape disagrees with the spaces.
            KernelRowNotStochastic: some kernel row does not sum to one.
        """
        if self._diagnostics is not None:
            return self._diagnostics
        if len(self.state_labels) != self.n or len(self.action_labels) != self.n:
            raise DimensionMismatch("need one state and action space per agent")
        if len(self.kernels) != self.n:
            raise DimensionMismatch("need one kernel per agent")
        for i, (ns, na) in enumerate(zip(self.state_sizes, self.action_sizes)):
            if ns == 0 or na == 0:
                raise EmptySpace(f"agent {i} has an empty state or action space")
            if self.kernels[i].shape != (ns, na, ns):
                raise DimensionMismatch(
                    f"kernel {i} has shape {self.kernels[i].shape}, "
                    f"expected {(ns, na, ns)}"
                )
            rows = self.kernels[i]
            if np.any(rows < 0.0):
                raise KernelRowNotStochastic(f"kernel {i} has negative entries")
            sums = rows.sum(axis=-1)
            if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
                worst = float(np.max(np.abs(sums - 1.0)))
                raise KernelRowNotStochastic(
                    f"kernel {i} rows deviate from 1 by up to {worst:.3e}"
                )
        zeros = np.zeros((1, self.n), dtype=np.intp)
        shape = np.shape(self.batch_rewards(zeros, zeros))
        if shape != (1, self.n):
            raise DimensionMismatch(
                f"rewards of a (1, {self.n}) batch have shape {shape}, expected (1, {self.n})"
            )
        self._diagnostics = ModelDiagnostics(
            reward_bound=self._compute_reward_bound(),
            state_sizes=self.state_sizes,
            action_sizes=self.action_sizes,
            n_joint_states=int(np.prod([float(s) for s in self.state_sizes])),
        )
        return self._diagnostics

    def _compute_reward_bound(self) -> float:
        if self.reward_bounds is not None:
            return max(0.0, *(float(b) for b in self.reward_bounds))
        return max(0.0, *(float(np.max(np.abs(t))) for t in self.reward_tables()))

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
