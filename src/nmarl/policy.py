"""Tabular coupled softmax policies with k-hop parameter mixing.

Each agent's logits at its own state mix its parameter table with those of
its ``kappa_p``-hop neighbors:

    z_j(a) = c_self * theta_j[s_j, a] + c_nbr * sum_{k in coupled(j)} theta_k[s_j, a]

with ``c_self = self_weight``, ``c_nbr = neighbor_weight_total /
|coupled(j)|`` and ``coupled(j)`` the other agents within ``kappa_p`` hops
(a row of :func:`nmarl.netgraph.hop_mask`). When the coupling set is empty
(radius 0, or a single agent) the policy degenerates to a plain softmax of
the agent's own table, ``c_self = 1``. Parameters use the flat index
``idx(s, a) = s * A + a`` into the one ``(S, A)`` space every agent shares
(the contract of :mod:`nmarl.model`).

Score functions (gradients of ``log pi_j`` with respect to another agent's
parameter vector) have the closed form

    score[s, a] = c * 1{s == s_j} * (1{a == a_j} - pi_j(a | s_j))

where ``c`` is the mixing coefficient tying the two agents, and are zero
whenever the agents are more than ``kappa_p`` hops apart. ``score_sums``
adds them up for every agent at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import netgraph
from .errors import ConfigError, DimensionMismatch


@dataclass(frozen=True)
class MixingSpec:
    """Mixing weights and coupling radius of the softmax policy family."""

    self_weight: float = 0.9
    neighbor_weight_total: float = 0.1
    kappa_p: int = 1

    def __post_init__(self) -> None:
        if self.self_weight < 0 or self.neighbor_weight_total < 0:
            raise ConfigError("mixing weights must be nonnegative")
        if self.kappa_p < 0:
            raise ConfigError(f"kappa_p must be nonnegative, got {self.kappa_p}")


class CoupledSoftmaxPolicy:
    """Policy family bound to one graph, one shared index space, one mixing spec."""

    def __init__(
        self,
        graph: netgraph.AgentGraph,
        n_states: int,
        n_actions: int,
        spec: MixingSpec,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.d = self.n_states * self.n_actions
        self.spec = spec
        # coupling[j, k] is the weight of agent k's table inside agent j's
        # logits: zero beyond kappa_p hops, and weight 1 on itself for an
        # agent with no other agent in reach (a plain softmax).
        eye = np.eye(self.n)
        others = netgraph.hop_mask(graph, spec.kappa_p) - eye
        reach = others.sum(axis=1, keepdims=True)
        self.coupling = np.where(
            reach > 0,
            spec.self_weight * eye
            + spec.neighbor_weight_total * others / np.maximum(reach, 1.0),
            eye,
        )
        # Constants of score_sums: agent j's state-s row of a flat (n * S, A)
        # table is _agent_rows[j] + s; one-hot rows of actions and of states;
        # _shares[i, j] = coupling[j, i], agent i's share of agent j's score.
        self._agent_rows = np.arange(self.n) * self.n_states
        self._action_eye = np.eye(self.n_actions)
        self._state_eye = np.eye(self.n_states)
        self._shares = np.ascontiguousarray(self.coupling.T)[:, :, None]

    # ------------------------------------------------------------------
    # parameter handling

    def zero_params(self) -> np.ndarray:
        return np.zeros((self.n, self.d))

    # ------------------------------------------------------------------
    # distributions

    def prob_tables(self, params) -> np.ndarray:
        """Per-agent policy tables ``(n, S, A)``.

        ``params`` may be an ``(n, d)`` array (every agent evaluated at the
        same joint parameter, e.g. the true one) or an ``(n, n, d)`` stack of
        per-agent estimate rows (agent ``i`` evaluated at ``params[i]``).
        """
        arr = np.asarray(params, dtype=float)
        if arr.shape == (self.n, self.d):
            mixed = self.coupling @ arr
        elif arr.shape == (self.n, self.n, self.d):
            mixed = np.einsum("ik,ikd->id", self.coupling, arr)
        else:
            raise DimensionMismatch(f"unsupported parameter stack shape {arr.shape}")
        if not np.isfinite(mixed).all():
            raise ValueError("non-finite logits in parameter stack")
        return _softmax_rows(mixed.reshape(self.n, self.n_states, self.n_actions))

    # ------------------------------------------------------------------
    # scores

    def score_sum(
        self,
        i: int,
        snapshot_states: Sequence[int],
        snapshot_actions: Sequence[int],
        params,
    ) -> np.ndarray:
        """Sum of scores of all policies within ``kappa_p`` hops of agent ``i``.

        Row ``i`` of ``score_sums`` with every agent scoring with ``params``,
        the evaluating agent's own view (its estimate row, or the true
        stack); policies of neighbors ``j`` are themselves mixtures, so the
        row must cover agents up to ``2 * kappa_p`` hops away, which a full
        ``(n, d)`` row always does.
        """
        arr = np.asarray(params, dtype=float)
        if arr.shape != (self.n, self.d):
            raise DimensionMismatch(
                f"parameter stack has shape {arr.shape}, expected {(self.n, self.d)}"
            )
        return self.score_sums(snapshot_states, snapshot_actions, arr)[i]

    def score_sums(
        self,
        snapshot_states: Sequence[int],
        snapshot_actions: Sequence[int],
        params: np.ndarray,
    ) -> np.ndarray:
        """Every agent's score sum ``(n, d)`` at one joint snapshot.

        Row ``i`` sums ``coupling[j, i] * score_j`` over the agents ``j``, that
        is over the ``kappa_p``-hop neighbors of ``i``. ``params`` is ``(n, d)``
        (every agent scores with the same parameters) or an ``(n, n, d)`` stack
        (agent ``i`` scores with its row ``params[i]``). Row ``i`` reads only
        its parameter view and the snapshot entries of its neighbors.
        """
        n, n_states, n_actions = self.n, self.n_states, self.n_actions
        arr = np.asarray(params, dtype=float)
        if arr.shape not in ((n, self.d), (n, n, self.d)):
            raise DimensionMismatch(f"unsupported parameter stack shape {arr.shape}")
        states = np.asarray(snapshot_states, dtype=np.intp)
        actions = np.asarray(snapshot_actions, dtype=np.intp)
        # logits[v, j]: agent j's logits at its snapshot state under view v
        mixed = (self.coupling @ arr).reshape(-1, n * n_states, n_actions)
        logits = mixed.take(self._agent_rows + states, axis=1)
        # scorer i's share of agent j's score e_{a_j} - pi_j, which lands in
        # the rows of state s_j
        weighted = self._shares * (self._action_eye[actions] - _softmax_rows(logits))
        return (self._state_eye[states].T @ weighted).reshape(n, self.d)

    def score_bound(self) -> float:
        """Uniform bound on every single score norm for this policy class."""
        return math.sqrt(2.0) * float(self.coupling.max())


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    # overflow guard for |logits| up to ~700; the ufunc reductions skip the
    # wrappers of ``max`` and ``sum``, with the same bits
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)
