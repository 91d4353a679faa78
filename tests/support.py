"""Shared instance builders and reference implementations for the test suite."""

from __future__ import annotations

import inspect
import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from nmarl import netgraph
from nmarl.envs import build_path_env
from nmarl.errors import DimensionMismatch, SpaceTooLarge
from nmarl.estimator import _step_blocks, half_discount_weights, sample_geometric
from nmarl.model import FactoredNmarlModel, point_starts, table_rewards
from nmarl.oracle import (
    MAX_TABLE_ENTRIES,
    RestrictedChain,
    central_difference,
    enumerate_space,
    exact_objective,
    truncation_horizon,
)


def line_graph(n: int) -> netgraph.AgentGraph:
    return netgraph.build_graph(n, [(k, k + 1) for k in range(1, n)])


def bfs_distances(g: netgraph.AgentGraph, source: int) -> dict[int, int]:
    """Independent BFS reference for every neighborhood read from ``hop_mask``."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        for u in g.neighbors[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    return dist


@st.composite
def connected_graphs(draw, min_agents: int = 2):
    n = draw(st.integers(min_value=min_agents, max_value=8))
    # random spanning tree keeps it connected, then optional extra edges
    edges = set()
    for v in range(2, n + 1):
        u = draw(st.integers(min_value=1, max_value=v - 1))
        edges.add((u, v))
    extras = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6))
    for a, b in extras:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return netgraph.build_graph(n, sorted(edges))


def shaped_graph(kind: str, n: int) -> netgraph.AgentGraph:
    """A ``"ring"`` (three agents or more, else a line), ``"star"`` or line graph."""
    if kind == "ring" and n >= 3:
        return netgraph.ring_graph(n)
    if kind == "star":
        return netgraph.build_graph(n, [(1, k) for k in range(2, n + 1)])
    return line_graph(n)


def random_stochastic_kernel(
    rng: np.random.Generator, n_states: int, n_actions: int
) -> np.ndarray:
    k = rng.random((n_states, n_actions, n_states)) + 0.1
    return k / k.sum(axis=-1, keepdims=True)


def random_table_model(
    g: netgraph.AgentGraph,
    rng: np.random.Generator,
    n_states: int = 2,
    n_actions: int = 2,
    gamma: float = 0.9,
    fixed_start: bool = False,
    reward_scale: float = 1.0,
    one_hot: bool = False,
) -> FactoredNmarlModel:
    """Random kernels (deterministic ones, whose rows keep no threshold, with
    ``one_hot``) plus dense random reward tables over the restrictions."""
    n = g.n
    if one_hot:
        kernels = [np.eye(n_states)[rng.integers(n_states, size=(n_states, n_actions))]
                   for _ in range(n)]
    else:
        kernels = [random_stochastic_kernel(rng, n_states, n_actions) for _ in range(n)]
    tables = []
    memberships = []
    for i in range(n):
        members = g.neighbors[i]
        shape = (n_states,) * len(members) + (n_actions,) * len(members)
        tables.append(rng.uniform(-reward_scale, reward_scale, size=shape))
        memberships.append(list(members))
    if fixed_start:
        rho = point_starts([0] * n, n_states)
    else:
        dists = []
        for _ in range(n):
            p = rng.random(n_states) + 0.2
            dists.append(p / p.sum())
        rho = np.array(dists)
    return FactoredNmarlModel(
        graph=g,
        n_states=n_states,
        n_actions=n_actions,
        kernels=kernels,
        batch_rewards=table_rewards(tables, memberships),
        rho=rho,
        gamma=gamma,
    )


def constant_reward_model(
    g: netgraph.AgentGraph,
    c: float,
    n_states: int = 2,
    n_actions: int = 2,
    gamma: float = 0.9,
    rng: np.random.Generator | None = None,
) -> FactoredNmarlModel:
    rng = rng or np.random.default_rng(0)
    n = g.n
    kernels = [random_stochastic_kernel(rng, n_states, n_actions) for _ in range(n)]
    return FactoredNmarlModel(
        graph=g,
        n_states=n_states,
        n_actions=n_actions,
        kernels=kernels,
        batch_rewards=lambda s, a: np.full(s.shape, float(c)),
        rho=point_starts([0] * n, n_states),
        gamma=gamma,
    )


def zero_reward_model(g: netgraph.AgentGraph, **kw) -> FactoredNmarlModel:
    return constant_reward_model(g, 0.0, **kw)


def flat_steps(m, tables, states, rng, steps):
    """``estimator._step_blocks``' steps ``0..steps`` of one ``(n,)``
    trajectory whose start actions are drawn (the scalar walk), one
    ``(states, actions)`` pair per step."""
    for states_block, actions_block in _step_blocks(m, tables, states, rng, steps):
        yield from zip(states_block, actions_block)


def episode_steps(m, tables, states, rng, steps, actions=None):
    """``estimator._step_blocks``' steps ``0..steps`` of the ``(E, n)`` episodes
    ``states``, each run to ``last_steps = steps``: one ``(states, actions)``
    pair per step. Every block must cover every episode, as it does on a model
    without parked rows (``FactoredNmarlModel.parked_rows``)."""
    every, last_steps = np.arange(len(states)), np.full(len(states), steps)
    blocks = _step_blocks(m, tables, states, rng, steps, actions, last_steps=last_steps)
    for states_block, actions_block, live in blocks:
        np.testing.assert_array_equal(live, every)
        yield from zip(states_block, actions_block)


def next_states(
    m: FactoredNmarlModel, states, actions, rng: np.random.Generator
) -> np.ndarray:
    """Each row's next states: one ``_step_blocks`` step from ``(rows, n)``
    states and actions, stepped as episodes (the actions after it come from
    uniform tables)."""
    uniform = np.full((m.n, m.n_states, m.n_actions), 1.0 / m.n_actions)
    _, (nxt, _) = episode_steps(m, uniform, np.asarray(states), rng, 1, np.asarray(actions))
    return nxt


def ref_simulate(m, tables, states, rng, steps, actions=None):
    """The chain stepper ``_step_blocks`` replaced, kept as its reference: one
    ``rng.random`` call per step, and every uniform inverted by the ``argmax``
    of ``u < cum`` over its full cumsum row, last column ``+inf``."""
    n, n_states, n_actions = tables.shape
    pol_cum = np.cumsum(tables, axis=-1)
    pol_cum[..., -1] = np.inf
    pol_rows = pol_cum.reshape(n * n_states, n_actions)
    kern_rows = m.stacked_kernel_cum().reshape(n * n_states * n_actions, n_states)
    agent_rows = np.arange(n) * n_states
    for t in range(steps + 1):
        if t > 0:
            u_next, u_act = rng.random((2,) + states.shape)
            cum = kern_rows.take(rows * n_actions + actions, axis=0)
            states = (u_next[..., None] < cum).argmax(axis=-1)
        elif actions is None:
            u_act = rng.random(states.shape)
        rows = agent_rows + states
        if t > 0 or actions is None:
            actions = (u_act[..., None] < pol_rows.take(rows, axis=0)).argmax(axis=-1)
        yield states, actions


def ref_score_trace(m, steps):
    """States, actions and rewards ``(steps, n)`` of a list of ``(states,
    actions)`` steps."""
    states = np.stack([s for s, _ in steps])
    actions = np.stack([a for _, a in steps])
    return states, actions, np.asarray(m.batch_rewards(states, actions), dtype=float)


def ref_rollout_two_horizon(m, tables, rng):
    """``t1``, ``t2``, snapshot states and actions and the reward trace of
    one two-horizon episode, drawn in ``rollout_two_horizon``'s order and
    stepped by ``ref_simulate``."""
    t1 = sample_geometric(1.0 - m.gamma, rng)
    t2 = sample_geometric(1.0 - math.sqrt(m.gamma), rng)
    steps = list(ref_simulate(m, tables, m.sample_starts(rng, 1)[0], rng, t1 + t2))
    states, actions, trace = ref_score_trace(m, steps[t1:])
    return t1, t2, states[0], actions[0], trace


def ref_rollouts_two_horizon(m, tables, rng, episodes):
    """``t1`` and ``t2`` ``(E,)`` and the states, actions and rewards
    ``(steps, E, n)`` of ``episodes`` episodes drawn in
    ``rollouts_two_horizon``'s order and stepped by ``ref_simulate`` to the
    longest ``t1 + t2``."""
    t1 = sample_geometric(1.0 - m.gamma, rng, size=episodes)
    t2 = sample_geometric(1.0 - math.sqrt(m.gamma), rng, size=episodes)
    starts = m.sample_starts(rng, episodes)
    steps = list(ref_simulate(m, tables, starts, rng, int((t1 + t2).max())))
    return (t1, t2, *ref_score_trace(m, steps))


def ref_conditional_trace(m, tables, snapshot_state, snapshot_action, rng):
    """``t2`` and the reward trace of one conditional resample from a fixed
    snapshot, drawn in ``sample_q_conditional``'s order by ``ref_simulate``."""
    t2 = sample_geometric(1.0 - math.sqrt(m.gamma), rng)
    start = np.array(snapshot_state, dtype=np.intp)
    start_actions = np.array(snapshot_action, dtype=np.intp)
    steps = list(ref_simulate(m, tables, start, rng, t2, start_actions))
    return t2, ref_score_trace(m, steps)[2]


def ref_evaluate(m, pol, params, episodes, rng, method="geometric", horizon_eps=1e-4):
    """``evaluate_policy`` as it was before it scored whole drawn blocks, kept
    as its reference: one ``batch_rewards`` call per ``(episodes, n)`` step
    of ``ref_simulate``, reduced over the agents with ``mean``."""
    tables = pol.prob_tables(params)
    if method == "geometric":
        horizons = sample_geometric(1.0 - m.gamma, rng, size=episodes)
        max_t = int(horizons.max())
        discounts = None
    else:
        max_t = truncation_horizon(m.gamma, horizon_eps, max(m.reward_bound, 1e-12))
        discounts = m.gamma ** np.arange(max_t + 1)
    steps = ref_simulate(m, tables, m.sample_starts(rng, episodes), rng, max_t)
    totals = np.zeros(episodes)
    for t, (states, acts) in enumerate(steps):
        rbar = np.asarray(m.batch_rewards(states, acts), dtype=float).mean(axis=-1)
        totals += ((t <= horizons) if discounts is None else discounts[t]) * rbar
    j = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    return j, se


class EdgeRng:
    """A generator whose uniforms land on ``edges`` half the time.

    Each uniform ``x`` of the wrapped generator below 1/2 is replaced by an
    entry of ``edges`` picked by its value, the others pass unchanged: the
    map acts value by value, so two consumers that draw the same stream in
    different call shapes see the same uniforms. ``bit_generator`` is the
    wrapped one's, and ``geometric`` draws from it unchanged.
    """

    def __init__(self, seed: int, edges) -> None:
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.edges = np.asarray(edges, dtype=float)

    def geometric(self, p, size=None):
        return self.rng.geometric(p, size=size)

    def random(self, shape):
        x = self.rng.random(shape)
        pick = np.minimum((x * 2 * len(self.edges)).astype(np.intp), len(self.edges) - 1)
        return np.where(x < 0.5, self.edges[pick], x)


def rollout_json(roll) -> dict:
    """A ``TwoHorizonRollout`` as plain JSON values."""
    return {
        "t1": roll.t1,
        "t2": roll.t2,
        "snapshot_state": roll.snapshot_state.tolist(),
        "snapshot_action": roll.snapshot_action.tolist(),
        "reward_trace": roll.reward_trace.tolist(),
    }


def mixed_logit_vector(pol, j: int, params) -> np.ndarray:
    """Agent ``j``'s flat ``d``-vector of mixed logits under ``(n, d)`` ``params``."""
    arr = np.asarray(params, dtype=float)
    if arr.shape != (pol.n, pol.d):
        raise DimensionMismatch(f"parameter stack has shape {arr.shape}")
    z = pol.coupling[j] @ arr
    if not np.all(np.isfinite(z)):
        raise ValueError(f"non-finite logits for agent {j}")
    return z


def action_probs(pol, i: int, s_i: int, params) -> np.ndarray:
    """Agent ``i``'s softmax action distribution at its state ``s_i``, one
    agent at a time: the reference of a ``prob_tables`` row."""
    row = mixed_logit_vector(pol, i, params)[s_i * pol.n_actions : (s_i + 1) * pol.n_actions]
    e = np.exp(row - row.max())
    return e / e.sum()


def score(pol, i: int, j: int, s_j: int, a_j: int, params) -> np.ndarray:
    """Gradient of ``log pi_j(a_j | s_j)`` with respect to ``theta_i`` in
    closed form, ``coupling[j, i] * (e_{a_j} - pi_j(. | s_j))`` in the entries
    of state ``s_j``: the reference of one term of a ``score_sums`` row."""
    out = np.zeros(pol.d)
    c = float(pol.coupling[j, i])
    if c == 0.0:
        return out
    base = s_j * pol.n_actions
    out[base : base + pol.n_actions] = -c * action_probs(pol, j, s_j, params)
    out[base + a_j] += c
    return out


def ref_gradient_estimate(roll, m, pol, params) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and return estimates ``(n, d)``, ``(n,)`` one agent at a time.

    Agent ``i`` sums the rewards of its ``kappa_p + kappa_r``-hop members per
    step, weights the step sums by ``gamma^(tau/2)`` and divides by ``n``; it
    scores the snapshot of each ``kappa_p``-hop member with its own parameter
    view through the closed-form ``score``.
    """
    arr = np.asarray(params, dtype=float)
    kappa_p = pol.spec.kappa_p
    weights = half_discount_weights(m.gamma, roll.t2 + 1)
    grads = np.empty((m.n, pol.d))
    q_values = np.empty(m.n)
    for i in range(m.n):
        view = arr if arr.ndim == 2 else arr[i]
        members = netgraph.khop(m.graph, i, kappa_p + m.kappa_r)
        q = float(weights @ roll.reward_trace[:, list(members)].sum(axis=1)) / m.n
        total = np.zeros(pol.d)
        for j in netgraph.khop(m.graph, i, kappa_p):
            total += score(pol, i, j, roll.snapshot_state[j], roll.snapshot_action[j], view)
        grads[i] = q * total / (1.0 - m.gamma)
        q_values[i] = q
    return grads, q_values


def ref_inject(st, w, j: int, delta) -> None:
    """Push-sum injection of one target column: add ``n * delta`` at owner
    ``j``, then mix column ``j`` (``inject_all`` sweeps every column)."""
    column = st.breve[:, j, :].copy()
    column[j] += st.n * np.asarray(delta, dtype=float)
    st.breve[:, j, :] = w @ column


def ref_move(loc, act, successors):
    """The path-planning movement rule: 0 stays put, 1/2 follow the
    upper/lower edge, and an action beyond the out-degree stays put (a
    location the successor map leaves out has none)."""
    succ = successors.get(loc, ())
    return loc if act == 0 or act > len(succ) else succ[act - 1]


def ref_path_reward(graph, i, s, a, **env) -> float:
    """Agent ``i``'s reward at joint ``(s, a)`` in ``build_path_env(graph, **env)``,
    from the movement rule.

    Zero at the destination when ``terminal_zero_reward`` is set; else the
    time cost, plus, for a mover, a share per neighbor that moves along the
    same edge, counted one neighbor at a time.
    """
    defaults = inspect.signature(build_path_env).parameters.items()
    env = {**{k: p.default for k, p in defaults}, **env}
    locations, successors = env["locations"], env["successors"]
    here = locations[s[i]]
    there = ref_move(here, a[i], successors)
    if env["terminal_zero_reward"] and here == env["destination"]:
        return 0.0
    if there == here:
        return -env["r_eps"]
    shared = 0
    for j in graph.neighbors[i]:
        loc = locations[s[j]]
        if j != i and loc == here and ref_move(loc, a[j], successors) == there:
            shared += 1
    return -env["r_eps"] - env["collision_weight"] * shared / graph.n


def ref_table_rewards(tables, members):
    """The per-agent fancy-index loop ``model.table_rewards`` replaced, kept
    as its reference; a state-only table is read at the states alone."""

    def batch(states, acts):
        out = np.empty(states.shape, dtype=float)
        for i, (table, nb) in enumerate(zip(tables, members)):
            key = tuple(states[..., j] for j in nb)
            if np.ndim(table) > len(nb):
                key += tuple(acts[..., j] for j in nb)
            out[..., i] = table[key]
        return out

    return batch


def ref_power_rewards(graph, gains, noise, price):
    """The batched power-control closed form that the build-time tables
    replaced, kept as their reference: it runs on every call."""
    gains, noise, price = (np.asarray(x, dtype=float) for x in (gains, noise, price))
    n = graph.n
    cross = gains * (netgraph.hop_mask(graph, 1) - np.eye(n))
    own = np.diag(gains)

    def batch(states, acts):
        del acts
        p = states.astype(float)
        return np.log(1.0 + p * own / (p @ cross.T + noise)) - price * p

    return batch


def ref_power_reward(m, gains, noise, price, i, s, a) -> float:
    """Agent ``i``'s power-control reward at joint ``(s, a)``, term by term.

    Log-throughput under the interference of ``i``'s reward neighbors,
    summed in member order, less the price of its own power.
    """
    del a
    members = m.reward_members[i]
    interference = sum(s[j] * gains[i][j] for j in members if j != i)
    return math.log(1.0 + s[i] * gains[i][i] / (interference + noise[i])) - price[i] * s[i]


# ----------------------------------------------------------------------
# Reference oracle: the literal per-(s, a) loops the vectorized oracle
# replaced. Slow, and kept only to test the oracle against.


class Untouchable:
    """Stands in for tables that a size guard must not read or build."""

    def _fail(self, *_):
        raise AssertionError("table read before the size guard fired")

    __getitem__ = __iter__ = __call__ = _fail


def ref_build_restricted_chain(m, members, prob_tables, reward_fn) -> RestrictedChain:
    """Chain tables filled point by point; ``reward_fn`` takes member-ordered tuples."""
    members = tuple(sorted(members))
    sspace = enumerate_space([m.state_sizes[j] for j in members])
    aspace = enumerate_space([m.action_sizes[j] for j in members])
    ns, na = len(sspace.points), len(aspace.points)
    if ns * na * ns > MAX_TABLE_ENTRIES or ns * na > MAX_TABLE_ENTRIES:
        raise SpaceTooLarge(f"restricted chain needs {ns}x{na}x{ns} transition entries")

    trans = np.ones((ns, na, ns))
    policy_tab = np.ones((ns, na))
    reward = np.empty((ns, na))
    for si, s in enumerate(sspace.points):
        for ai, a in enumerate(aspace.points):
            reward[si, ai] = reward_fn(s, a)
            row = np.ones(1)
            pol = 1.0
            for pos, j in enumerate(members):
                pol *= prob_tables[j][s[pos], a[pos]]
                row = np.multiply.outer(row, m.kernels[j][s[pos], a[pos]]).ravel()
            policy_tab[si, ai] = pol
            trans[si, ai] = row
    bound = float(np.max(np.abs(reward)))
    return RestrictedChain(members, sspace, aspace, trans, policy_tab, reward, bound)


def ref_chain_q_table(chain, gamma, eps) -> np.ndarray:
    horizon = truncation_horizon(gamma, eps, float(np.max(np.abs(chain.reward))))
    v = np.zeros(len(chain.state_space.points))
    q = np.zeros_like(chain.reward)
    for _ in range(horizon):
        q = chain.reward + gamma * chain.trans @ v
        v = (chain.policy * q).sum(axis=1)
    return q


def _padded(m, members, s, a):
    """Joint point with ``s`` / ``a`` at ``members`` and 0 elsewhere."""
    s_full = np.zeros(m.n, dtype=np.intp)
    a_full = np.zeros(m.n, dtype=np.intp)
    s_full[list(members)] = s
    a_full[list(members)] = a
    return s_full, a_full


def ref_local_reward_fn(m, l):
    members = m.reward_members[l]
    return lambda s, a: float(m.rewards(*_padded(m, members, s, a))[l])


def ref_mean_reward_fn(m):
    return lambda s, a: float(np.mean(m.rewards(s, a)))


def ref_averaged_reward_fn(m, inner, outer):
    """The ``1/N``-scaled reward sum of ``inner`` read off an ``outer`` restriction."""
    def fn(s, a):
        r = m.rewards(*_padded(m, outer, s, a))
        total = 0.0
        for j in inner:
            total += float(r[j])
        return total / m.n

    return fn


def ref_rho_prob(rho, state) -> float:
    """Start probability of one joint state under the start table, agent by agent."""
    p = 1.0
    for d, s in zip(rho, state):
        p *= float(d[s])
    return p


def ref_initial_vector(m, space) -> np.ndarray:
    return np.array([ref_rho_prob(m.rho, s) for s in space.points])


def ref_discounted_visitation(m, prob_tables, eps=1e-9):
    chain = ref_build_restricted_chain(m, range(m.n), prob_tables, ref_mean_reward_fn(m))
    tp = np.einsum("sa,sat->st", chain.policy, chain.trans)
    dist = ref_initial_vector(m, chain.state_space)
    tab = np.zeros_like(dist)
    weight = 1.0
    for _ in range(truncation_horizon(m.gamma, eps, 1.0) + 1):
        tab += weight * dist
        dist = dist @ tp
        weight *= m.gamma
    return (1.0 - m.gamma) * tab, chain.state_space


def ref_exact_objective(m, prob_tables, eps=1e-9) -> float:
    chain = ref_build_restricted_chain(m, range(m.n), prob_tables, ref_mean_reward_fn(m))
    q = ref_chain_q_table(chain, m.gamma, eps)
    return float(ref_initial_vector(m, chain.state_space) @ (chain.policy * q).sum(axis=1))


def _ref_score_weighted_sum(m, pol, params, i, tables, value_of, eps):
    """``sum_{s, a} d(s) pi(a|s) value_of(s, a) score_sum_i(s, a) / (1 - gamma)``."""
    arr = np.asarray(params, dtype=float)
    score_row = arr if arr.ndim == 2 else arr[i]
    visitation, space = ref_discounted_visitation(m, tables, eps)
    aspace = enumerate_space(m.action_sizes)
    grad = np.zeros(pol.d)
    for s_idx, s in enumerate(space.points):
        ds = visitation[s_idx]
        if ds == 0.0:
            continue
        for a in aspace.points:
            pi = 1.0
            for j in range(m.n):
                pi *= tables[j][s[j], a[j]]
            if pi == 0.0:
                continue
            grad += ds * pi * value_of(s, a) * pol.score_sum(i, s, a, score_row)
    return grad / (1.0 - m.gamma)


def _ref_lookup(chain, qtab, s, a) -> float:
    sel = chain.members
    return qtab[
        chain.state_space.index(tuple(s[j] for j in sel)),
        chain.action_space.index(tuple(a[j] for j in sel)),
    ]


def ref_gradient_via_local_q(m, pol, params, i, full_sum=False, eps=1e-9) -> np.ndarray:
    tables = pol.prob_tables(np.asarray(params, dtype=float))
    targets = (
        tuple(range(m.n))
        if full_sum
        else netgraph.khop(m.graph, i, pol.spec.kappa_p + m.kappa_r)
    )
    q_tabs = []
    for l in targets:
        chain = ref_build_restricted_chain(
            m, m.reward_members[l], tables, ref_local_reward_fn(m, l)
        )
        q_tabs.append((chain, ref_chain_q_table(chain, m.gamma, eps)))

    def value_of(s, a):
        qsum = 0.0
        for chain, qtab in q_tabs:
            qsum += _ref_lookup(chain, qtab, s, a)
        return qsum / m.n

    return _ref_score_weighted_sum(m, pol, params, i, tables, value_of, eps)


def ref_gradient_via_averaged_q(m, pol, params, i, eps=1e-9) -> np.ndarray:
    tables = pol.prob_tables(np.asarray(params, dtype=float))
    inner = netgraph.khop(m.graph, i, pol.spec.kappa_p + m.kappa_r)
    outer = netgraph.khop(m.graph, i, pol.spec.kappa_p + 2 * m.kappa_r)
    chain = ref_build_restricted_chain(
        m, outer, tables, ref_averaged_reward_fn(m, inner, outer)
    )
    qtab = ref_chain_q_table(chain, m.gamma, eps)
    return _ref_score_weighted_sum(
        m, pol, params, i, tables, lambda s, a: _ref_lookup(chain, qtab, s, a), eps
    )


def ref_finite_difference_gradient(m, pol, theta, i, h=1e-5, eps=1e-9) -> np.ndarray:
    """Central differences with one ``prob_tables`` call per perturbed
    parameter set, stacked into one ``exact_objective`` call."""
    theta = np.array(theta, dtype=float)

    def objective_of_rows(rows):
        work = np.repeat(theta[None], len(rows), axis=0)
        work[:, i] = rows
        return exact_objective(m, np.array([pol.prob_tables(w) for w in work]), eps)

    return central_difference(objective_of_rows, theta[i], h)
