"""Exact dynamic-programming evaluators for desk-scale instances.

Everything here enumerates product spaces and iterates truncated Bellman
recursions, entirely independent of the sampling estimator it certifies.
Horizons are truncated at ``T = ceil(ln(eps * (1 - gamma) / R) / ln gamma)``
so the absolute error is bounded by ``eps``; no sampling occurs anywhere.

Per-agent action distributions factor over agents (each policy table reads
only the agent's own state), and so do the transition kernels. A chain
restricted to an agent subset is therefore a tensor product: its joint
policy is ``prod_j pi_j[s_j, a_j]`` and its transition table
``prod_j K_j[s_j, a_j, s'_j]``, both built by broadcasting the members'
tables in sorted member order. Joint tensors keep one axis per member and
group (all member states, then all member actions, then all next states),
so flattening them row-major gives the ``EnumeratedSpace`` order. A chain's
reward is the broadcast sum of the chosen agents' cached reward tables
(``FactoredNmarlModel.reward_tables``) divided by a scale. The restriction is
exact as long as the subset covers the reward dependencies being evaluated,
so it is an optimization, never an approximation.

The gradient forms weight every joint pair by ``d(s) pi(a|s) Q(s, a)``,
marginalize that weight onto each scored agent's own ``(s_j, a_j)`` and
contract it with the closed-form score. No Python loop here runs over joint
states or joint actions: loops run over agents and over the value-iteration
horizon. Every size guard fires before the tensor it protects is allocated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import netgraph
from .errors import SpaceTooLarge
from .model import FactoredNmarlModel
from .policy import CoupledSoftmaxPolicy

MAX_JOINT_STATES = 100_000
MAX_TABLE_ENTRIES = 50_000_000  # dense DP arrays beyond this are refused


@dataclass(frozen=True)
class EnumeratedSpace:
    """A small product space, flattened in row-major order.

    ``points`` lists every tuple; it is built on first access only.
    """

    sizes: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.sizes)

    @cached_property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.product(*(range(s) for s in self.sizes)))

    def index(self, point: Sequence[int]) -> int:
        idx = 0
        for size, coord in zip(self.sizes, point):
            idx = idx * size + coord
        return idx


def enumerate_space(sizes: Sequence[int], cap: int = MAX_JOINT_STATES) -> EnumeratedSpace:
    total = math.prod(sizes)
    if total > cap:
        raise SpaceTooLarge(f"product space has {total} points, cap is {cap}")
    return EnumeratedSpace(sizes=tuple(sizes))


def _check_entries(entries: int, what: str) -> None:
    if entries > MAX_TABLE_ENTRIES:
        raise SpaceTooLarge(f"{what} needs {entries} entries, cap is {MAX_TABLE_ENTRIES}")


@dataclass
class RestrictedChain:
    """Markov chain over an agent subset, with a scalar per-step reward.

    ``trans[s, a, s']`` and ``policy[s, a]`` are joint tables over the
    subset's product spaces; ``reward[s, a]`` is whatever quantity the DP
    integrates (one agent's reward, a neighborhood average, ...).
    """

    members: tuple[int, ...]
    state_space: EnumeratedSpace
    action_space: EnumeratedSpace
    trans: np.ndarray
    policy: np.ndarray
    reward: np.ndarray


def _outer(tables: Sequence[np.ndarray]) -> np.ndarray:
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


def _embed(table: np.ndarray, inner: Sequence[int], outer: Sequence[int]) -> np.ndarray:
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


def build_restricted_chain(
    m: FactoredNmarlModel,
    members: Sequence[int],
    prob_tables: Sequence[np.ndarray],
    reward_agents: Sequence[int],
    scale: float = 1.0,
) -> RestrictedChain:
    """Assemble the joint tables of the chain restricted to ``members``.

    The chain's reward is ``sum_{j in reward_agents} r_j / scale``; every
    reward agent's neighborhood must lie inside ``members``.
    """
    members = tuple(sorted(members))
    sspace = enumerate_space((m.n_states,) * len(members))
    aspace = enumerate_space((m.n_actions,) * len(members))
    ns, na = sspace.size, aspace.size
    _check_entries(ns * na * ns, "restricted chain transition table")

    policy = _outer([prob_tables[j] for j in members])
    trans = _outer([m.kernels[j] for j in members])
    reward_tables = m.reward_tables()
    reward = np.zeros(policy.shape)
    for j in reward_agents:
        reward += _embed(reward_tables[j], m.reward_members[j], members)
    reward /= scale
    return RestrictedChain(
        members=members,
        state_space=sspace,
        action_space=aspace,
        trans=trans.reshape(ns, na, ns),
        policy=policy.reshape(ns, na),
        reward=reward.reshape(ns, na),
    )


def truncation_horizon(gamma: float, eps: float, reward_bound: float) -> int:
    """Smallest horizon with discounted tail below ``eps``."""
    if reward_bound <= 0.0:
        return 1
    return max(1, math.ceil(math.log(eps * (1.0 - gamma) / reward_bound) / math.log(gamma)))


def chain_q_table(chain: RestrictedChain, gamma: float, eps: float) -> np.ndarray:
    """Action-value table of the chain's reward, truncated at accuracy ``eps``.

    Iterates ``v <- r_pi + gamma P_pi v`` on the state space for ``T - 1``
    steps, then forms ``q = r + gamma T v`` once: the ``T``-step truncation.
    """
    bound = float(np.max(np.abs(chain.reward)))
    horizon = truncation_horizon(gamma, eps, bound)
    r_pi = (chain.policy * chain.reward).sum(axis=1)
    p_pi = np.einsum("sa,sat->st", chain.policy, chain.trans)
    v = np.zeros(len(r_pi))
    for _ in range(horizon - 1):
        v = r_pi + gamma * (p_pi @ v)
    return chain.reward + gamma * (chain.trans @ v)


def _q_tensor(chain: RestrictedChain, q: np.ndarray) -> np.ndarray:
    """A chain's flat ``(s, a)`` table with one axis per member and group."""
    return q.reshape(chain.state_space.sizes + chain.action_space.sizes)


# ----------------------------------------------------------------------
# full-joint quantities


def _full_chain(
    m: FactoredNmarlModel, prob_tables: Sequence[np.ndarray]
) -> RestrictedChain:
    everyone = range(m.n)
    return build_restricted_chain(m, everyone, prob_tables, everyone, scale=m.n)


def _initial_vector(m: FactoredNmarlModel, space: EnumeratedSpace) -> np.ndarray:
    if m.rho.kind == "product":
        return _outer(m.rho.dists).ravel()
    rho = np.zeros(space.size)
    rho[space.index(m.rho.state)] = 1.0
    return rho


def exact_objective(
    m: FactoredNmarlModel,
    prob_tables: Sequence[np.ndarray],
    eps: float = 1e-9,
) -> float:
    """Discounted average cumulative reward of the joint policy, within ``eps``."""
    chain = _full_chain(m, prob_tables)
    q = chain_q_table(chain, m.gamma, eps)
    v = (chain.policy * q).sum(axis=1)
    rho = _initial_vector(m, chain.state_space)
    return float(rho @ v)


def q_at(chain: RestrictedChain, q: np.ndarray, s: Sequence[int], a: Sequence[int]) -> float:
    """Entry of a chain's Q table at member-ordered ``(s, a)``."""
    return float(q[chain.state_space.index(tuple(s)), chain.action_space.index(tuple(a))])


def global_q_table(
    m: FactoredNmarlModel, prob_tables: Sequence[np.ndarray], eps: float = 1e-9
) -> tuple[RestrictedChain, np.ndarray]:
    """The full joint chain and the Q table of its per-step average reward."""
    chain = _full_chain(m, prob_tables)
    return chain, chain_q_table(chain, m.gamma, eps)


def local_q_table(
    m: FactoredNmarlModel, prob_tables: Sequence[np.ndarray], i: int, eps: float = 1e-9
) -> tuple[RestrictedChain, np.ndarray]:
    """Agent ``i``'s reward-neighborhood chain and the Q table of its own reward."""
    chain = build_restricted_chain(m, m.reward_members[i], prob_tables, (i,))
    return chain, chain_q_table(chain, m.gamma, eps)


def neighbors_averaged_chain(
    m: FactoredNmarlModel,
    prob_tables: Sequence[np.ndarray],
    i: int,
    kappa_p: int,
) -> RestrictedChain:
    """Chain whose reward is the ``1/N``-scaled sum of the rewards of all
    agents within ``kappa_p + kappa_r`` hops of ``i``, defined over the
    ``kappa_p + 2 * kappa_r``-hop state-action restriction."""
    inner = netgraph.khop(m.graph, i, kappa_p + m.kappa_r)
    outer = netgraph.khop(m.graph, i, kappa_p + 2 * m.kappa_r)
    return build_restricted_chain(m, outer, prob_tables, inner, scale=m.n)


def neighbors_averaged_q(
    m: FactoredNmarlModel,
    prob_tables: Sequence[np.ndarray],
    i: int,
    s_nb: Sequence[int],
    a_nb: Sequence[int],
    kappa_p: int,
    eps: float = 1e-9,
) -> float:
    """Value of the neighborhood-averaged reward stream at one restriction point."""
    chain = neighbors_averaged_chain(m, prob_tables, i, kappa_p)
    return q_at(chain, chain_q_table(chain, m.gamma, eps), s_nb, a_nb)


# ----------------------------------------------------------------------
# visitation and gradients


def discounted_visitation(
    m: FactoredNmarlModel,
    prob_tables: Sequence[np.ndarray],
    eps: float = 1e-9,
) -> tuple[np.ndarray, EnumeratedSpace]:
    """``(1 - gamma)``-normalized discounted state occupancy over the joint space.

    The joint state kernel under the policy is the tensor product of the
    per-agent ones, ``P_j[s_j, s'_j] = sum_a pi_j(a | s_j) K_j[s_j, a, s'_j]``.
    """
    space = enumerate_space(m.state_sizes)
    _check_entries(space.size * space.size, "joint state kernel")
    per_agent = [
        np.einsum("sa,sat->st", pi_j, m.kernels[j]) for j, pi_j in enumerate(prob_tables)
    ]
    tp = _outer(per_agent).reshape(space.size, space.size)
    dist = _initial_vector(m, space)
    horizon = truncation_horizon(m.gamma, eps, 1.0)
    tab = np.zeros_like(dist)
    weight = 1.0
    for _ in range(horizon + 1):
        tab += weight * dist
        dist = dist @ tp
        weight *= m.gamma
    return (1.0 - m.gamma) * tab, space


def _gradient_inputs(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    i: int,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dynamics tables, the tables agent ``i`` scores with, and the visitation.

    ``params`` with shape ``(n, d)`` means consistent true parameters; an
    ``(n, n, d)`` stack means each agent executes its own estimate row while
    agent ``i`` scores with row ``i``. The joint weight tensor's size is
    checked before anything joint is built.
    """
    _check_entries(
        math.prod(m.state_sizes) * math.prod(m.action_sizes), "joint weight tensor"
    )
    arr = np.asarray(params, dtype=float)
    tables = pol.prob_tables(arr)
    score_tables = tables if arr.ndim == 2 else pol.prob_tables(arr[i])
    visitation, _ = discounted_visitation(m, tables, eps)
    return tables, score_tables, visitation


def _score_gradient(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    i: int,
    tables: np.ndarray,
    score_tables: np.ndarray,
    visitation: np.ndarray,
    value: np.ndarray,
) -> np.ndarray:
    """``sum_{s, a} d(s) pi(a|s) value(s, a) score_sum_i(s, a) / (1 - gamma)``.

    ``value`` broadcasts over the joint ``(states..., actions...)`` axes.
    The score of agent ``j``'s policy reads only ``(s_j, a_j)``: it is
    ``c * (1{a = a_j} - pi_j(a | s_j))`` on the parameter block of ``s_j``,
    with ``c = coupling[j, i]``. So the weight ``d pi value`` is marginalized
    onto each scored agent's ``(s_j, a_j)`` and contracted with that form.
    """
    n = m.n
    pi = _outer(tables)
    weight = visitation.reshape(m.state_sizes + (1,) * n) * pi * value
    grad = np.zeros((pol.n_states, pol.n_actions))
    for j in netgraph.khop(m.graph, i, pol.spec.kappa_p):
        marginal = weight.sum(axis=tuple(ax for ax in range(2 * n) if ax not in (j, n + j)))
        grad += pol.coupling[j, i] * (
            marginal - score_tables[j] * marginal.sum(axis=1, keepdims=True)
        )
    return grad.ravel() / (1.0 - m.gamma)


def gradient_via_local_q(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    i: int,
    full_sum: bool = False,
    eps: float = 1e-9,
) -> np.ndarray:
    """Policy gradient for agent ``i`` as a visitation-weighted sum of local
    action values times the neighborhood score sum.

    The local-value sum runs over agents within ``kappa_p + kappa_r`` hops;
    ``full_sum=True`` sums over every agent instead (the two agree for
    consistent parameters because out-of-range score terms integrate to
    zero).
    """
    tables, score_tables, visitation = _gradient_inputs(m, pol, params, i, eps)
    targets = (
        tuple(range(m.n))
        if full_sum
        else netgraph.khop(m.graph, i, pol.spec.kappa_p + m.kappa_r)
    )
    everyone = tuple(range(m.n))
    qsum = 0.0
    for l in targets:
        chain = build_restricted_chain(m, m.reward_members[l], tables, (l,))
        q = chain_q_table(chain, m.gamma, eps)
        qsum = qsum + _embed(_q_tensor(chain, q), chain.members, everyone)
    return _score_gradient(m, pol, i, tables, score_tables, visitation, qsum / m.n)


def gradient_via_averaged_q(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    i: int,
    eps: float = 1e-9,
) -> np.ndarray:
    """Policy gradient for agent ``i`` using the neighbors-averaged action value."""
    tables, score_tables, visitation = _gradient_inputs(m, pol, params, i, eps)
    chain = neighbors_averaged_chain(m, tables, i, pol.spec.kappa_p)
    q = chain_q_table(chain, m.gamma, eps)
    value = _embed(_q_tensor(chain, q), chain.members, tuple(range(m.n)))
    return _score_gradient(m, pol, i, tables, score_tables, visitation, value)


def central_difference(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x = np.array(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        orig = x[k]
        x[k] = orig + h
        f_plus = fn(x)
        x[k] = orig - h
        f_minus = fn(x)
        x[k] = orig
        grad[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


def finite_difference_gradient(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    theta: np.ndarray,
    i: int,
    h: float = 1e-5,
    eps: float = 1e-9,
) -> np.ndarray:
    """Central differences of the exact objective along agent ``i``'s coordinates."""
    work = np.array(theta, dtype=float)

    def objective_of_row(row: np.ndarray) -> float:
        work[i] = row
        return exact_objective(m, pol.prob_tables(work), eps)

    return central_difference(objective_of_row, np.array(theta[i], dtype=float), h)
