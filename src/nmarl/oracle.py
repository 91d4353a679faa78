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
tables in sorted member order. Neither the transition table nor a chain's
reward table and its bound depends on the policy, so the model builds each
once per key (``FactoredNmarlModel.joint_kernel`` and ``chain_reward``).
Joint tensors keep one axis per member and group (all member states, then all
member actions, then all next states), so flattening them row-major gives the
``EnumeratedSpace`` order.
A chain's reward is the broadcast sum of the chosen agents' cached reward
tables (``FactoredNmarlModel.reward_tables``) divided by a scale. The
restriction is exact as long as the subset covers the reward dependencies
being evaluated, so it is an optimization, never an approximation.

The gradient forms weight every joint pair by ``d(s) pi(a|s) Q(s, a)``,
marginalize that weight onto each scored agent's own ``(s_j, a_j)`` and
contract it with the closed-form score. No Python loop here runs over joint
states or joint actions: loops run over agents and, for the truncated value
and occupancy series, either over the bits of the horizon or over the
horizon itself. A chain of at most ``DOUBLING_STATES`` states sums its series
``sum_{k < N} M^k x`` by binary doubling (``sum_series``): about
``2 log2 N`` small matrix products instead of ``N`` mat-vecs, each of which
costs microseconds of call overhead on these small chains. That sums the
terms in another order, so results differ from the term-by-term loop in the
last digits (far inside ``eps``). Larger chains, where a dense matrix
product costs more than the horizon's mat-vecs, keep the term-by-term loop.
Every size guard fires before the tensor it protects is allocated.

``build_restricted_chain``, ``chain_q_table``, ``sum_series`` and
``exact_objective`` take a stack of policies on leading axes, and
``finite_difference_gradient`` evaluates its ``2d`` objectives as one stack.
That stack runs in chunks of ``STACK_BYTES``: larger chunks raise the peak RSS
and then take minor page faults on every call (measured beside the constant).
The gradient forms take one agent or a sequence of agents, and build the
executed tables, the visitation and each local Q table once per call.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import netgraph
from .errors import DimensionMismatch, IndexOutOfRange, SpaceTooLarge
from .model import FactoredNmarlModel, embed, tensor_product
from .policy import CoupledSoftmaxPolicy, _softmax_rows

MAX_JOINT_STATES = 100_000
MAX_TABLE_ENTRIES = 50_000_000  # dense DP arrays beyond this are refused
# Chains of at most this many states sum their truncated series by doubling.
# With one BLAS thread and ~220 terms (gamma 0.9, eps 1e-9), doubling takes
# 0.05 / 0.12 / 0.8 ms at 8 / 64 / 128 states against the loop's 0.8 / 0.9 /
# 1.3 ms; the two meet between 144 and 152 states, and at 256 states the
# loop is twice as fast (3.3 against 6.7 ms; 2-vCPU x86 machine).
DOUBLING_STATES = 144
# Bytes of DP tables (``pi`` and ``P_pi``, ``S * (A + S)`` entries a policy)
# one chunk of an objective stack may hold: 4 policies of the 64-state
# power-control chain. One BLAS thread, 2-vCPU x86 machine: that finite
# difference's 24 objectives take 1.96 / 1.24 / 1.14 ms in chunks of 1 / 4 /
# 8. At 4 the benchmark's peak RSS stays at the unstacked oracle's 42.6 MB; at
# 8 it rises by 0.4 MB; at 12 each call takes 550-700 minor page faults.
STACK_BYTES = 3 * 2**16


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
        """The row-major index of ``point``; ``IndexOutOfRange`` unless it has
        one integer coordinate per axis, each inside its axis."""
        try:
            return int(np.ravel_multi_index(tuple(point), self.sizes))
        except (TypeError, ValueError) as exc:
            raise IndexOutOfRange(f"point {tuple(point)} is outside sizes {self.sizes}") from exc


def enumerate_space(sizes: Sequence[int]) -> EnumeratedSpace:
    total = math.prod(sizes)
    if total > MAX_JOINT_STATES:
        raise SpaceTooLarge(f"product space has {total} points, cap is {MAX_JOINT_STATES}")
    return EnumeratedSpace(sizes=tuple(sizes))


def _check_entries(entries: int, what: str) -> None:
    if entries > MAX_TABLE_ENTRIES:
        raise SpaceTooLarge(f"{what} needs {entries} entries, cap is {MAX_TABLE_ENTRIES}")


@dataclass
class RestrictedChain:
    """Markov chain over an agent subset, with a scalar per-step reward.

    ``trans[s, a, s']`` and ``policy[..., s, a]`` (leading axes: a policy
    stack) are joint tables over the subset's product spaces; ``reward[s, a]``
    is whatever quantity the DP integrates (one agent's reward, a neighborhood
    average, ...), ``reward_bound`` its largest magnitude.
    """

    members: tuple[int, ...]
    state_space: EnumeratedSpace
    action_space: EnumeratedSpace
    trans: np.ndarray
    policy: np.ndarray
    reward: np.ndarray
    reward_bound: float


def build_restricted_chain(
    m: FactoredNmarlModel,
    members: Sequence[int],
    prob_tables: np.ndarray,
    reward_agents: Sequence[int],
    scale: float = 1.0,
) -> RestrictedChain:
    """Assemble the joint tables of the chain restricted to ``members``.

    ``prob_tables`` is one policy ``(n, S, A)`` or a stack ``(..., n, S,
    A)``, whose leading axes the chain's policy keeps. The chain's reward is
    ``sum_{j in reward_agents} r_j / scale``; every reward agent's
    neighborhood must lie inside ``members``.
    """
    members = tuple(sorted(members))
    sspace = enumerate_space((m.n_states,) * len(members))
    aspace = enumerate_space((m.n_actions,) * len(members))
    ns, na = sspace.size, aspace.size
    _check_entries(ns * na * ns, "restricted chain transition table")
    stack = np.asarray(prob_tables, dtype=float)
    lead = stack.shape[:-3]
    _check_entries(math.prod(lead) * ns * (na + ns), "restricted chain policy stack")
    policy = tensor_product([stack[..., j, :, :] for j in members], len(lead))
    reward, bound = m.chain_reward(members, tuple(reward_agents), scale)
    return RestrictedChain(
        members, sspace, aspace, m.joint_kernel(members), policy.reshape(lead + (ns, na)),
        reward, bound,
    )


def truncation_horizon(gamma: float, eps: float, reward_bound: float) -> int:
    """Smallest horizon with discounted tail below ``eps``."""
    if reward_bound <= 0.0:
        return 1
    return max(1, math.ceil(math.log(eps * (1.0 - gamma) / reward_bound) / math.log(gamma)))


def sum_series(mat: np.ndarray, x: np.ndarray, terms: int) -> np.ndarray:
    """``sum_{k < terms} mat^k @ x`` over any leading axes of ``mat (..., N,
    N)`` and ``x (..., N)``: by binary doubling when ``N`` is at most
    ``DOUBLING_STATES``, else term by term as ``acc <- x + mat @ acc``.

    Doubling walks the bits of ``terms`` from the lowest, holding ``power =
    mat^(2^j)`` and ``block = sum_{k < 2^j} mat^k @ x``. With ``acc`` the sum
    of the first ``c = terms mod 2^j`` terms, a set bit ``j`` extends it to
    ``c + 2^j`` terms as ``block + power @ acc``. That is about
    ``2 log2(terms)`` square matrix products instead of ``terms`` mat-vecs;
    ``terms = 0`` gives zeros. The terms are summed in another order than a
    term-by-term loop, so the result differs from the loop's in the last
    digits. A stack's entries take the matrix-vector products of lone calls.
    """
    block = x[..., None]
    acc, power = np.zeros_like(block), mat
    if x.shape[-1] > DOUBLING_STATES:
        for _ in range(terms):
            acc = block + mat @ acc
        return acc[..., 0]
    while terms:
        if terms & 1:
            acc = block + power @ acc
        terms >>= 1
        if terms:
            block = block + power @ block
            power = power @ power
    return acc[..., 0]


def _state_values(chain: RestrictedChain, gamma: float, terms: int) -> np.ndarray:
    """``sum_{k < terms} (gamma P_pi)^k r_pi`` ``(..., S)`` per policy of the
    chain's stack; ``P_pi`` is one batched product over the states."""
    r_pi = (chain.policy * chain.reward).sum(axis=-1)
    p_pi = (chain.policy[..., None, :] @ chain.trans)[..., 0, :]
    return sum_series(gamma * p_pi, r_pi, terms)


def chain_q_table(chain: RestrictedChain, gamma: float, eps: float) -> np.ndarray:
    """Action-value table ``(..., S, A)`` of the chain's reward, truncated at
    accuracy ``eps``, for each policy of the chain's stack.

    Forms ``v`` over ``T - 1`` terms (``_state_values``), then ``q = r +
    gamma T v`` once: the ``T``-step truncation.
    """
    v = _state_values(chain, gamma, truncation_horizon(gamma, eps, chain.reward_bound) - 1)
    flat = chain.trans.reshape(-1, chain.trans.shape[-1])  # (S * A, S)
    return chain.reward + gamma * (flat @ v[..., None]).reshape(chain.policy.shape)


def _joint_q(m: FactoredNmarlModel, chain: RestrictedChain, eps: float) -> np.ndarray:
    """A chain's Q table as a view over every agent's joint axes (``embed``)."""
    q = chain_q_table(chain, m.gamma, eps)
    q = q.reshape(chain.state_space.sizes + chain.action_space.sizes)
    return embed(q, chain.members, tuple(range(m.n)))


# ----------------------------------------------------------------------
# full-joint quantities


def _full_chain(m: FactoredNmarlModel, prob_tables: np.ndarray) -> RestrictedChain:
    everyone = range(m.n)
    return build_restricted_chain(m, everyone, prob_tables, everyone, scale=m.n)


def exact_objective(
    m: FactoredNmarlModel,
    prob_tables: np.ndarray,
    eps: float = 1e-9,
) -> float | np.ndarray:
    """Discounted average cumulative reward of the joint policy, within ``eps``:
    ``rho v`` with ``v`` over the ``T`` terms of the truncation.

    One policy ``(n, S, A)`` gives a float, a stack ``(B, n, S, A)`` its
    ``(B,)`` values, in equal chunks of at most ``STACK_BYTES`` each.
    """
    ns, na = m.n_states**m.n, m.n_actions**m.n
    _check_entries(ns * na * ns, "restricted chain transition table")  # before any read
    stack = np.asarray(prob_tables, dtype=float)
    one = stack.ndim == 3
    stack = stack[None] if one else stack
    most = max(1, STACK_BYTES // (8 * ns * (na + ns)))
    rho = tensor_product(list(m.rho)).ravel()
    values = []
    for part in np.array_split(stack, max(1, -(-len(stack) // most))):  # fewest equal chunks
        chain = _full_chain(m, part)
        v = _state_values(chain, m.gamma, truncation_horizon(m.gamma, eps, chain.reward_bound))
        values.append((v[:, None, :] @ rho)[:, 0])
    out = np.concatenate(values)
    return float(out[0]) if one else out


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
    The occupancy is ``sum_{k <= T} gamma^k rho P^k`` at the unit reward
    bound's horizon ``T``, summed by ``sum_series`` over ``gamma P^T``.
    """
    space = enumerate_space(m.state_sizes)
    _check_entries(space.size * space.size, "joint state kernel")
    per_agent = [
        np.einsum("sa,sat->st", pi_j, m.kernels[j]) for j, pi_j in enumerate(prob_tables)
    ]
    tp = tensor_product(per_agent).reshape(space.size, space.size)
    horizon = truncation_horizon(m.gamma, eps, 1.0)
    tab = sum_series(m.gamma * tp.T, tensor_product(list(m.rho)).ravel(), horizon + 1)
    return (1.0 - m.gamma) * tab, space


def _gradient_rows(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    i: int | Sequence[int],
    eps: float,
    value_of: Callable[[np.ndarray, int], np.ndarray],
) -> np.ndarray:
    """``_score_gradient`` ``(d,)`` of agent ``i``, or ``(k, d)`` of each of a
    sequence, with value ``value_of(tables, agent)``; the executed tables and
    the occupancy ``d(s) pi(a|s)`` are built once, after the size guard.

    ``params`` with shape ``(n, d)`` means consistent true parameters; an
    ``(n, n, d)`` stack means each agent executes its own estimate row while
    agent ``i`` scores with row ``i``.
    """
    _check_entries(math.prod(m.state_sizes) * math.prod(m.action_sizes), "joint weight tensor")
    one = isinstance(i, numbers.Integral)
    arr = np.asarray(params, dtype=float)
    tables = pol.prob_tables(arr)
    visitation, _ = discounted_visitation(m, tables, eps)
    occupancy = visitation.reshape(m.state_sizes + (1,) * m.n) * tensor_product(tables)
    rows = []
    for a in (i,) if one else i:
        scored = tables if arr.ndim == 2 else pol.prob_tables(arr[a])
        rows.append(_score_gradient(m, pol, a, scored, occupancy, value_of(tables, a)))
    return rows[0] if one else np.array(rows).reshape(len(rows), pol.d)


def _score_gradient(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    i: int,
    score_tables: np.ndarray,
    occupancy: np.ndarray,
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
    weight = occupancy * value
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
    i: int | Sequence[int],
    eps: float = 1e-9,
) -> np.ndarray:
    """Policy gradient for agent ``i`` as a visitation-weighted sum of local
    action values times the neighborhood score sum; ``(d,)`` for an int
    ``i``, ``(k, d)`` for a sequence of ``k`` agents.

    The local-value sum runs over agents within ``kappa_p + kappa_r`` hops:
    for consistent parameters the farther agents' terms integrate to zero.
    Each target's local Q table is built once for the whole set.
    """
    local: dict[int, np.ndarray] = {}

    def value_of(tables: np.ndarray, a: int) -> np.ndarray:
        qsum = 0.0
        for l in netgraph.khop(m.graph, a, pol.spec.kappa_p + m.kappa_r):
            if l not in local:
                chain = build_restricted_chain(m, m.reward_members[l], tables, (l,))
                local[l] = _joint_q(m, chain, eps)
            qsum = qsum + local[l]
        return qsum / m.n

    return _gradient_rows(m, pol, params, i, eps, value_of)


def gradient_via_averaged_q(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    i: int | Sequence[int],
    eps: float = 1e-9,
) -> np.ndarray:
    """Policy gradient for agent ``i`` using the neighbors-averaged action
    value; ``(d,)`` for an int ``i``, ``(k, d)`` for a sequence of ``k``
    agents."""
    def value_of(tables: np.ndarray, a: int) -> np.ndarray:
        return _joint_q(m, neighbors_averaged_chain(m, tables, a, pol.spec.kappa_p), eps)

    return _gradient_rows(m, pol, params, i, eps, value_of)


def central_difference(fn: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    ``fn`` maps a ``(2k, k)`` stack of points to their ``(2k,)`` values, and
    is called once: ``x + h e_j`` for every coordinate ``j``, then every
    ``x - h e_j``.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=float).ravel()
    steps = np.diag(np.full(x.size, h))
    values = np.asarray(fn(np.concatenate([x + steps, x - steps])))
    return (values[: x.size] - values[x.size :]) / (2.0 * h)


def finite_difference_gradient(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    theta: np.ndarray,
    i: int,
    h: float = 1e-5,
    eps: float = 1e-9,
) -> np.ndarray:
    """Central differences of the exact objective along agent ``i``'s
    coordinates, every perturbed objective in one stacked call.

    The ``2d`` perturbed policies come from one mixing product and one
    softmax over the stack, with the bits of ``pol.prob_tables`` on each.
    """
    theta = np.array(theta, dtype=float)
    if theta.shape != (pol.n, pol.d):
        raise DimensionMismatch(f"parameters have shape {theta.shape}, expected {(pol.n, pol.d)}")

    def objective_of_rows(rows: np.ndarray) -> np.ndarray:
        work = np.repeat(theta[None], len(rows), axis=0)
        work[:, i] = rows
        mixed = pol.coupling @ work
        if not np.isfinite(mixed).all():
            raise ValueError("non-finite logits in parameter stack")
        tables = _softmax_rows(mixed.reshape(len(rows), pol.n, pol.n_states, pol.n_actions))
        return exact_objective(m, tables, eps)

    return central_difference(objective_of_rows, theta[i], h)
