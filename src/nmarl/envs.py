"""Concrete environments: layered-DAG robot path planning and wireless power control.

Both builders produce :class:`FactoredNmarlModel` instances with
deterministic (one-hot) kernels. Each reward family is one batched callable
that keeps the model's contract: integer state and action arrays ``(..., n)``
map to float rewards ``(..., n)``, and column ``i`` reads only agent ``i``'s
direct neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import netgraph
from .errors import ConfigError, NonPositiveNoise, UnknownLocation
from .model import BatchRewards, FactoredNmarlModel, InitialDistribution

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
        # acyclicity + destination reachability by depth-first walk
        reaches: dict[str, bool] = {self.destination: True}
        state: dict[str, int] = {}

        def visit(loc: str) -> bool:
            if loc in reaches:
                return reaches[loc]
            if state.get(loc) == 1:
                raise ConfigError(f"path structure has a cycle through {loc!r}")
            state[loc] = 1
            ok = any(visit(s) for s in self.successors.get(loc, ()))
            state[loc] = 2
            reaches[loc] = ok
            return ok

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
    if loc not in ps.successors:
        raise UnknownLocation(f"unknown location {loc!r}")
    succ = ps.successors[loc]
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
        if self.r_eps <= 0:
            raise ConfigError("the per-step time cost must be positive")


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
    dest = ps.index(ps.destination)

    # Staying costs the flat time penalty; moving additionally costs a share
    # per neighbor that traverses the same (from, to) edge this step. Ordered
    # neighbor pairs and an incidence matrix turn the per-agent shared-edge
    # count into one comparison plus one matmul.
    pair_i, pair_j = np.nonzero(netgraph.hop_mask(graph, 1) - np.eye(graph.n))
    incidence = np.zeros((len(pair_i), graph.n))
    incidence[np.arange(len(pair_i)), pair_i] = 1.0

    def batch(states: np.ndarray, acts: np.ndarray) -> np.ndarray:
        nxt = next_table[states, acts]
        stay = nxt == states
        code = states * len(ps.locations) + nxt
        # Stationary agents take the flat-cost branch, so their spurious
        # code matches never surface; a mover can't match a stayer's code.
        matches = (code[..., pair_i] == code[..., pair_j]).astype(float)
        counts = matches @ incidence
        r = np.where(
            stay,
            -spec.r_eps,
            -spec.r_eps - spec.collision_weight * counts / spec.n,
        )
        if spec.terminal_zero_reward:
            r = np.where(states == dest, 0.0, r)
        return r

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
    graph: netgraph.AgentGraph, gains: np.ndarray, noise: np.ndarray, price: np.ndarray
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

    def batch(states: np.ndarray, acts: np.ndarray) -> np.ndarray:
        del acts  # the reward reads power levels only
        p = states.astype(float)
        return np.log(1.0 + p * own / (p @ cross.T + noise)) - price * p

    return batch


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
    log-throughput under neighbor interference against a power price."""
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
