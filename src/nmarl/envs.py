"""Concrete environments: layered-DAG robot path planning and wireless power control.

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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import netgraph
from .errors import ConfigError, NonPositiveNoise, UnknownLocation
from .model import BatchRewards, FactoredNmarlModel, InitialDistribution, table_rewards, tabulate

PATH_LOCATIONS = (
    "b1", "b2", "b3", "b4", "b5",
    "c1", "c2", "c3", "c4",
    "d1", "d2", "d3",
    "e",
)


def _default_successors() -> dict[str, tuple[str, ...]]:
    """Layered DAG over the 13 locations.

    Each source node fans out to the two like-indexed nodes of the next
    layer, clipped at the layer boundaries (so the outermost nodes have a
    single successor); the lower-index successor is the "upper" edge. Every
    location reaches the destination ``e``, which has no outgoing edges.
    """
    succ: dict[str, tuple[str, ...]] = {}
    for k in range(1, 6):
        lo, hi = max(1, k - 1), min(4, k)
        succ[f"b{k}"] = tuple(dict.fromkeys((f"c{lo}", f"c{hi}")))
    for k in range(1, 5):
        lo, hi = max(1, k - 1), min(3, k)
        succ[f"c{k}"] = tuple(dict.fromkeys((f"d{lo}", f"d{hi}")))
    for k in range(1, 4):
        succ[f"d{k}"] = ("e",)
    succ["e"] = ()
    return succ


@dataclass(frozen=True)
class PathStructure:
    """Acyclic location graph with per-node (upper, lower) edge ordering."""

    locations: tuple[str, ...] = PATH_LOCATIONS
    successors: Mapping[str, tuple[str, ...]] = field(default_factory=_default_successors)
    destination: str = "e"

    def __post_init__(self) -> None:
        if not isinstance(self.successors, Mapping):
            raise ConfigError(f"successors must be an object, got {self.successors!r}")
        index = {loc: k for k, loc in enumerate(self.locations)}
        if len(index) < len(self.locations):
            repeated = sorted({loc for loc in self.locations if self.locations.count(loc) > 1})
            raise ConfigError(f"locations must be distinct (repeated: {repeated})")
        if self.destination not in index:
            raise UnknownLocation(f"destination {self.destination!r} not a location")
        for loc, succ in self.successors.items():
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
            found = [visit(s) for s in self.successors.get(loc, ())]
            on_path.discard(loc)
            reaches[loc] = loc == self.destination or any(found)
            return reaches[loc]

        for loc in self.locations:
            if not visit(loc):
                raise ConfigError(f"location {loc!r} cannot reach the destination")

    def index(self, loc: str) -> int:
        try:
            return self.locations.index(loc)
        except ValueError:
            raise UnknownLocation(f"unknown location {loc!r}") from None


def path_transition(loc: str, act: int, ps: PathStructure) -> str:
    """Movement rule: 0 stays put, 1/2 follow the upper/lower edge, and any
    action beyond the out-degree stays put."""
    if loc not in ps.locations:
        raise UnknownLocation(f"unknown location {loc!r}")
    succ = ps.successors.get(loc, ())  # a location the map leaves out has none
    if act == 0 or act > len(succ):
        return loc
    return succ[act - 1]


@dataclass(frozen=True)
class PathPlanningSpec:
    """Ten robots on the layered DAG, started pairwise on the first layer."""

    n: int = 10
    starts: tuple[str, ...] = ("b1", "b2", "b3", "b4", "b5") * 2
    gamma: float = 0.9
    r_eps: float = 0.5
    collision_weight: float = 0.5
    terminal_zero_reward: bool = False

    def __post_init__(self) -> None:
        if len(self.starts) != self.n:
            raise ConfigError(
                f"{self.n} agents need {self.n} start locations, got {len(self.starts)}"
            )
        for i, loc in enumerate(self.starts):
            if not isinstance(loc, str):
                raise ConfigError(f"starts: agent {i}'s start must be a location name, got {loc!r}")
        if self.r_eps <= 0:
            raise ConfigError("the per-step time cost must be positive")
        if self.collision_weight < 0:
            # the declared reward cap (time cost plus full penalty) needs it
            raise ConfigError(
                f"collision_weight must be nonnegative, got {self.collision_weight}"
            )


def _path_next_table(ps: PathStructure) -> np.ndarray:
    table = np.empty((len(ps.locations), 3), dtype=np.intp)
    for s, loc in enumerate(ps.locations):
        for a in range(3):
            table[s, a] = ps.index(path_transition(loc, a, ps))
    return table


def _path_planning_rewards(
    spec: PathPlanningSpec, ps: PathStructure, next_table: np.ndarray, graph: netgraph.AgentGraph
) -> tuple[BatchRewards, list[float]]:
    """Batched collision reward and its per-agent cap."""
    n_loc, n_act = next_table.shape
    # Staying costs the flat time penalty; moving additionally costs a share
    # per neighbor that traverses the same (from, to) edge this step. Per
    # flat pair s * A + a: the base reward and whether the agent moves (0 or
    # 1, so base - mover * share is exact either way).
    stay = next_table == np.arange(n_loc)[:, None]
    base = np.full((n_loc, n_act), -spec.r_eps)
    mover = (~stay).astype(float)
    if spec.terminal_zero_reward:
        dest = ps.index(ps.destination)
        base[dest] = mover[dest] = 0.0
    # Unordered neighbor edges and an incidence matrix that adds each
    # edge's match to both its ends: one comparison per edge, one matmul.
    edge_i, edge_j = np.nonzero(np.triu(netgraph.hop_mask(graph, 1), 1))
    incidence = np.zeros((len(edge_i), graph.n))
    incidence[np.arange(len(edge_i)), edge_i] = 1.0
    incidence[np.arange(len(edge_j)), edge_j] = 1.0
    # Row s * A + a of the table, from key (s * A + a) * width on, holds the
    # reward at every shared-edge count, in the operation order of the
    # formula. An entry overflows only under a cap that is not finite, which
    # the FactoredNmarlModel constructor refuses.
    counts = np.arange(float(netgraph.max_neighborhood_size(graph, 1)))  # 0..max degree
    width = len(counts)
    with np.errstate(over="ignore", invalid="ignore"):
        share = spec.collision_weight * counts / spec.n
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

    # Formula cap: time cost plus the penalty with every agent colliding.
    cap = spec.r_eps + spec.collision_weight * graph.n / spec.n
    return batch, [cap] * graph.n


def build_path_env(
    spec: PathPlanningSpec | None = None,
    ps: PathStructure | None = None,
    comm: netgraph.AgentGraph | None = None,
) -> FactoredNmarlModel:
    """Path-planning model: 13 states, 3 actions, deterministic kernels,
    direct-neighbor collision rewards, fixed starts."""
    spec = spec or PathPlanningSpec()
    ps = ps or PathStructure()
    comm = comm or netgraph.ring_graph(spec.n)
    if comm.n != spec.n:
        raise ConfigError(f"communication graph has {comm.n} agents, spec has {spec.n}")
    next_table = _path_next_table(ps)
    n_loc = len(ps.locations)
    kernel = np.zeros((n_loc, 3, n_loc))
    for s in range(n_loc):
        for a in range(3):
            kernel[s, a, next_table[s, a]] = 1.0
    batch, bounds = _path_planning_rewards(spec, ps, next_table, comm)
    return FactoredNmarlModel(
        graph=comm,
        n_states=n_loc,
        n_actions=3,
        kernels=[kernel] * spec.n,
        batch_rewards=batch,
        rho=InitialDistribution.fixed([ps.index(loc) for loc in spec.starts]),
        gamma=spec.gamma,
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
    n: int,
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
    an overflowing entry reaches the model's ``ConfigError``).
    """
    if levels < 2:
        raise ConfigError(f"need at least 2 power levels, got {levels}")
    comm = comm or netgraph.ring_graph(n)
    if comm.n != n:
        raise ConfigError(f"communication graph has {comm.n} agents, expected {n}")
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
    start = list(start) if start is not None else [0] * n
    return FactoredNmarlModel(
        graph=comm,
        n_states=levels,
        n_actions=len(_POWER_ACTIONS),
        kernels=[kernel] * n,
        batch_rewards=batch,
        rho=InitialDistribution.fixed(start),
        gamma=gamma,
    )
