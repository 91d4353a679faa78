"""Concrete environments: layered-DAG robot path planning and wireless power control.

Each environment is one builder, and its signature is the environment's
config schema: the parameters other than ``comm`` are the ``env.overrides``
keys (``config.BUILDERS``), and ``comm`` defaults to a ring over the agents.
Both builders produce :class:`FactoredNmarlModel` instances with
deterministic (one-hot) kernels. Each reward family is one batched callable
that keeps the model's contract: integer state and action arrays ``(..., n)``
map to float rewards ``(..., n)``, and column ``i`` reads only agent ``i``'s
direct neighbors.

The path-planning reward is one lookup per entry in a table built once per
model. Row ``s * A + a`` holds ``base - mover * (w * c / n)`` for every
shared-edge count ``c`` from 0 to the largest degree, computed in that
operation order: ``base`` is the time cost (0 at the destination when
``terminal_zero_reward`` is set), ``mover`` is 1 when the pair leaves its
state (0 at such a destination) and ``w`` is ``collision_weight``. An
entry's key is the row of the first action from its state to the same next
state, so equal keys mean the same edge. Each unordered neighbor edge
compares its ends' keys once, and an incidence matmul adds the match to
both ends' counts ``c``; a stayer's row is ``base`` whatever its count.

The power-control reward reads power levels only, so it is one state-only
table per agent over its members' levels, read by ``model.table_rewards``.
``build_power_env`` fills the tables from the closed form once: a call
looks the rewards up, and the formula does not run per call.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import netgraph
from .errors import ConfigError, NonPositiveNoise, UnknownLocation
from .model import BatchRewards, FactoredNmarlModel, point_starts, table_rewards, tabulate

PATH_LOCATIONS = (
    "b1", "b2", "b3", "b4", "b5",
    "c1", "c2", "c3", "c4",
    "d1", "d2", "d3",
    "e",
)
# Layered DAG over the 13 locations: each node fans out to the two
# like-indexed nodes of the next layer, clipped at the layer boundaries (so
# the outermost nodes have one successor), the lower-index one first (the
# "upper" edge). Every location reaches the destination ``e``.
PATH_SUCCESSORS: Mapping[str, tuple[str, ...]] = MappingProxyType({
    "b1": ("c1",), "b2": ("c1", "c2"), "b3": ("c2", "c3"), "b4": ("c3", "c4"), "b5": ("c4",),
    "c1": ("d1",), "c2": ("d1", "d2"), "c3": ("d2", "d3"), "c4": ("d3",),
    "d1": ("e",), "d2": ("e",), "d3": ("e",), "e": (),
})


def _path_moves(
    locations: Sequence[str], successors: Mapping[str, Sequence[str]], destination: str
) -> np.ndarray:
    """Next-location table ``(L, 3)`` of an acyclic location graph.

    Movement rule: action 0 stays put, 1/2 follow the upper/lower edge, and
    any action beyond the out-degree stays put; a location the successor map
    leaves out has no successors. Refuses repeated locations, names that are
    not locations, entries that are not lists of at most two names, cycles,
    and locations that cannot reach the destination.
    """
    if not isinstance(successors, Mapping):
        raise ConfigError(f"successors must be an object, got {successors!r}")
    index = {loc: k for k, loc in enumerate(locations)}
    if len(index) < len(locations):
        repeated = sorted({loc for loc in locations if locations.count(loc) > 1})
        raise ConfigError(f"locations must be distinct (repeated: {repeated})")
    if destination not in index:
        raise UnknownLocation(f"destination {destination!r} not a location")
    for loc, succ in successors.items():
        if loc not in index:
            raise UnknownLocation(f"successor map names unknown location {loc!r}")
        if not isinstance(succ, (list, tuple)) or not all(isinstance(s, str) for s in succ):
            raise ConfigError(
                f"successors of {loc!r} must be a list of location names, got {succ!r}"
            )
        if len(succ) > 2:
            raise ConfigError(f"location {loc!r} has out-degree {len(succ)} > 2")
        for s in succ:
            if s not in index:
                raise UnknownLocation(f"{loc!r} points at unknown location {s!r}")
    # acyclicity + destination reachability by depth-first walk; every
    # successor is walked, the destination's too, so that no cycle hides
    # behind a successor that already reaches the destination
    reaches: dict[str, bool] = {}
    on_path: set[str] = set()

    def visit(loc: str) -> bool:
        if loc in reaches:
            return reaches[loc]
        if loc in on_path:
            raise ConfigError(f"path structure has a cycle through {loc!r}")
        on_path.add(loc)
        found = [visit(s) for s in successors.get(loc, ())]
        on_path.discard(loc)
        reaches[loc] = loc == destination or any(found)
        return reaches[loc]

    for loc in locations:
        if not visit(loc):
            raise ConfigError(f"location {loc!r} cannot reach the destination")
    moves = np.repeat(np.arange(len(locations), dtype=np.intp)[:, None], 3, axis=1)
    for loc, succ in successors.items():
        moves[index[loc], 1 : len(succ) + 1] = [index[s] for s in succ]
    return moves


def _path_planning_rewards(
    next_table: np.ndarray,
    dest: int,
    graph: netgraph.AgentGraph,
    r_eps: float,
    collision_weight: float,
    terminal_zero_reward: bool,
) -> tuple[BatchRewards, list[float]]:
    """Batched collision reward and its per-agent cap."""
    n, (n_loc, n_act) = graph.n, next_table.shape
    # Staying costs the flat time penalty; moving additionally costs a share
    # per neighbor that traverses the same (from, to) edge this step. Per
    # flat pair s * A + a: the base reward and whether the agent moves (0 or
    # 1, so base - mover * share is exact either way).
    stay = next_table == np.arange(n_loc)[:, None]
    base = np.full((n_loc, n_act), -r_eps)
    mover = (~stay).astype(float)
    if terminal_zero_reward:
        base[dest] = mover[dest] = 0.0
    # Unordered neighbor edges and an incidence matrix that adds each
    # edge's match to both its ends: one comparison per edge, one matmul.
    edge_i, edge_j = np.nonzero(np.triu(netgraph.hop_mask(graph, 1), 1))
    incidence = np.zeros((len(edge_i), n))
    incidence[np.arange(len(edge_i)), edge_i] = 1.0
    incidence[np.arange(len(edge_j)), edge_j] = 1.0
    # Row s * A + a of the table, from key (s * A + a) * width on, holds the
    # reward at every shared-edge count, in the operation order of the
    # formula. An entry overflows only under a cap that is not finite, which
    # the FactoredNmarlModel constructor refuses.
    counts = np.arange(float(netgraph.max_neighborhood_size(graph, 1)))  # 0..max degree
    width = len(counts)
    with np.errstate(over="ignore", invalid="ignore"):
        share = collision_weight * counts / n
        table = (base.reshape(-1, 1) - mover.reshape(-1, 1) * share).ravel()
    # A flat pair's key is that of the first action from its state to the
    # same next state, so two agents share an edge when their keys are equal.
    # A stayer's row ignores its count (its mover entry is 0), and a mover's
    # key never equals a stayer's.
    first = (next_table[:, :, None] == next_table[:, None, :]).argmax(axis=-1)
    key = ((np.arange(n_loc)[:, None] * n_act + first) * width).ravel()

    def batch(states: np.ndarray, acts: np.ndarray) -> np.ndarray:
        keys = key.take(states * n_act + acts)
        shared = (keys[..., edge_i] == keys[..., edge_j]).astype(float) @ incidence
        keys += shared.astype(np.intp)
        return table.take(keys)

    # Formula cap: time cost plus the share w * c / n at c = n, every agent
    # colliding.
    cap = r_eps + collision_weight * n / n
    return batch, [cap] * n


def build_path_env(
    comm: netgraph.AgentGraph | None = None,
    starts: Sequence[str] = ("b1", "b2", "b3", "b4", "b5") * 2,
    gamma: float = 0.9,
    r_eps: float = 0.5,
    collision_weight: float = 0.5,
    terminal_zero_reward: bool = False,
    locations: Sequence[str] = PATH_LOCATIONS,
    successors: Mapping[str, Sequence[str]] = PATH_SUCCESSORS,
    destination: str = "e",
) -> FactoredNmarlModel:
    """Path-planning model: one robot per start location on the acyclic
    location graph (by default ten on the layered DAG, started pairwise on
    its first layer), deterministic kernels from the movement rule
    (``_path_moves``), direct-neighbor collision rewards, fixed starts.

    ``comm`` defaults to a ring over the robots. ``r_eps`` is the per-step
    time cost, ``collision_weight`` the penalty weight, and
    ``terminal_zero_reward`` makes every reward at the destination zero.
    """
    if not isinstance(starts, list | tuple):
        raise ConfigError(f"starts must be a list, got {starts!r}")
    comm = comm or netgraph.ring_graph(len(starts))
    moves = _path_moves(locations, successors, destination)
    if len(starts) != comm.n:
        raise ConfigError(f"{comm.n} agents need {comm.n} start locations, got {len(starts)}")
    for i, loc in enumerate(starts):
        if not isinstance(loc, str):
            raise ConfigError(f"starts: agent {i}'s start must be a location name, got {loc!r}")
        if loc not in locations:
            raise UnknownLocation(f"unknown location {loc!r}")
    if r_eps <= 0:
        raise ConfigError("the per-step time cost must be positive")
    if collision_weight < 0:
        # the declared reward cap (time cost plus full penalty) needs it
        raise ConfigError(f"collision_weight must be nonnegative, got {collision_weight}")
    batch, bounds = _path_planning_rewards(
        moves, locations.index(destination), comm, r_eps, collision_weight, terminal_zero_reward
    )
    return FactoredNmarlModel(
        graph=comm,
        n_states=len(locations),
        n_actions=3,
        kernels=[np.eye(len(locations))[moves]] * comm.n,
        batch_rewards=batch,
        rho=point_starts([locations.index(loc) for loc in starts], len(locations)),
        gamma=gamma,
        reward_bounds=bounds,
    )


# ----------------------------------------------------------------------
# power control

_POWER_ACTIONS = (0, -1, 1)


def _power_control_rewards(
    graph: netgraph.AgentGraph, levels: int, gains: np.ndarray, noise: np.ndarray, price: np.ndarray
) -> BatchRewards:
    if not all(np.all(np.isfinite(x)) for x in (gains, noise, price)):
        raise ConfigError("channel gains, noise powers and prices must be finite")
    if np.any(noise <= 0.0):
        raise NonPositiveNoise("noise powers must be strictly positive")
    if np.any(gains < 0.0):
        raise ConfigError("channel gains must be nonnegative")
    n = graph.n
    if gains.shape != (n, n) or noise.shape != (n,) or price.shape != (n,):
        raise ConfigError(
            f"{n} agents need {n}x{n} gains and {n} noise powers and prices"
        )
    # Agent i hears the power of its direct neighbors only.
    cross = gains * (netgraph.hop_mask(graph, 1) - np.eye(n))
    own = np.diag(gains)

    def closed_form(states: np.ndarray, acts: np.ndarray) -> np.ndarray:
        del acts  # the reward reads power levels only
        p = states.astype(float)
        return np.log(1.0 + p * own / (p @ cross.T + noise)) - price * p

    tables = tabulate(closed_form, graph.neighbors, (levels,))
    return table_rewards(tables, graph.neighbors)


def build_power_env(
    levels: int,
    gains: Sequence[Sequence[float]],
    noise: Sequence[float],
    price: Sequence[float],
    comm: netgraph.AgentGraph | None = None,
    gamma: float = 0.9,
    start: Sequence[int] | None = None,
) -> FactoredNmarlModel:
    """Power-control model: states are discrete power levels ``0..levels-1``,
    actions hold/decrease/increase clipped at the grid edges, rewards trade
    log-throughput under neighbor interference against a power price.

    Agent ``i``'s reward ``log(1 + p_i g_ii / (sum_j p_j g_ij + noise_i)) -
    price_i p_i``, ``j`` over its other direct neighbors, is filled here
    into its state-only table by one closed-form call on the grid of its
    members' levels (``model.tabulate``, which ignores numpy's warnings, so
    an overflowing entry reaches the model's ``ConfigError``). ``comm``
    defaults to a ring over ``len(gains)`` agents, and every agent starts at
    level 0 unless ``start`` says otherwise.
    """
    if levels < 2:
        raise ConfigError(f"need at least 2 power levels, got {levels}")
    comm = comm or netgraph.ring_graph(len(gains))
    kernel = np.zeros((levels, 3, levels))
    for s in range(levels):
        for a, delta in enumerate(_POWER_ACTIONS):
            kernel[s, a, min(max(s + delta, 0), levels - 1)] = 1.0
    batch = _power_control_rewards(
        comm,
        levels,
        np.asarray(gains, dtype=float),
        np.asarray(noise, dtype=float),
        np.asarray(price, dtype=float),
    )
    return FactoredNmarlModel(
        graph=comm,
        n_states=levels,
        n_actions=len(_POWER_ACTIONS),
        kernels=[kernel] * comm.n,
        batch_rewards=batch,
        rho=point_starts([0] * comm.n if start is None else start, levels),
        gamma=gamma,
    )
