"""Agent communication graph, column-stochastic mixing weights, k-hop queries.

Agent ids are 1-based in configs and edge lists (the constructor is the
parsing boundary) and 0-based everywhere else in the API. Graphs are
undirected, connected, and carry an implicit self-loop on every agent, so
each agent belongs to its own direct neighborhood. The implicit self-loop
gives the mixing matrix a positive diagonal, which keeps push-sum mixing
aperiodic.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraph, IndexOutOfRange


@dataclass(frozen=True)
class AgentGraph:
    """Undirected connected network over ``n`` agents.

    ``edges`` holds deduplicated 0-based pairs ``(i, j)`` with ``i < j``;
    ``neighbors[i]`` is the sorted direct neighborhood of agent ``i``
    including ``i`` itself.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...] = field(compare=False)


@dataclass(frozen=True)
class HopNeighborhood:
    """All agents within graph distance ``radius`` of ``center``."""

    center: int
    radius: int
    members: tuple[int, ...]


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> AgentGraph:
    """Validate and build an :class:`AgentGraph` from 1-based edge pairs.

    Duplicate edges are tolerated silently (set semantics); explicit
    self-loop pairs are rejected because self-loops are implicit.

    Raises:
        IndexOutOfRange: ``n`` or an endpoint is not an integer (bools are
            not), an endpoint is outside ``1..n`` or a pair is ``(i, i)``.
        DisconnectedGraph: the resulting graph is not connected.
    """
    if not _is_id(n) or n < 1:
        raise IndexOutOfRange(f"agent count must be a positive integer, got {n!r}")
    pairs: set[tuple[int, int]] = set()
    for pair in edges:
        if len(pair) != 2 or not all(map(_is_id, pair)):
            raise IndexOutOfRange(f"edge {pair!r} is not a pair of integer agent ids")
        i, j = int(pair[0]), int(pair[1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside 1..{n}")
        if i == j:
            raise IndexOutOfRange(f"explicit self-loop ({i}, {i}) not allowed")
        a, b = i - 1, j - 1
        pairs.add((min(a, b), max(a, b)))

    adjacency: list[set[int]] = [{i} for i in range(n)]
    for a, b in pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)

    seen = {0}
    frontier = deque([0])
    while frontier:
        v = frontier.popleft()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    if len(seen) < n:
        missing = sorted(set(range(n)) - seen)
        raise DisconnectedGraph(
            f"agents {[m + 1 for m in missing]} unreachable from agent 1"
        )

    return AgentGraph(
        n=n,
        edges=tuple(sorted(pairs)),
        neighbors=tuple(tuple(sorted(adjacency[i])) for i in range(n)),
    )


def _is_id(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def ring_graph(n: int) -> AgentGraph:
    """Cycle over agents ``1..n`` (no edges for one); the default 10-agent topology."""
    return build_graph(n, [(k, k % n + 1) for k in range(1, n + 1) if n > 1])


def weight_matrix(g: AgentGraph) -> np.ndarray:
    """Column-stochastic mixing matrix ``w[i, j] = 1/|N_j|`` for ``i`` in ``N_j``.

    Out-neighborhoods equal direct neighborhoods on this undirected graph,
    self included, so the diagonal is positive, which push-sum mixing
    relies on for aperiodicity.
    """
    w = np.zeros((g.n, g.n))
    for j in range(g.n):
        share = 1.0 / len(g.neighbors[j])
        for i in g.neighbors[j]:
            w[i, j] = share
    return w


@lru_cache(maxsize=4096)
def khop(g: AgentGraph, i: int, kappa: int) -> HopNeighborhood:
    """Breadth-first closure of radius ``kappa`` around agent ``i`` (0-based).

    ``kappa = 0`` yields exactly ``{i}``; any radius at or beyond the
    diameter yields all agents.
    """
    if not 0 <= i < g.n:
        raise IndexOutOfRange(f"agent {i} outside 0..{g.n - 1}")
    if kappa < 0:
        raise IndexOutOfRange(f"radius must be nonnegative, got {kappa}")
    dist = {i: 0}
    frontier = deque([i])
    while frontier:
        v = frontier.popleft()
        if dist[v] == kappa:
            continue
        for u in g.neighbors[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    return HopNeighborhood(center=i, radius=kappa, members=tuple(sorted(dist)))


@lru_cache(maxsize=256)
def hop_mask(g: AgentGraph, kappa: int) -> np.ndarray:
    """Read-only ``(n, n)`` 0/1 float array: row ``i`` marks ``khop(g, i, kappa)``.

    Cached per graph and radius: the estimator reads every agent's
    neighborhood from it once, not through one ``khop`` lookup per sample.
    """
    mask = np.zeros((g.n, g.n))
    for i in range(g.n):
        mask[i, list(khop(g, i, kappa).members)] = 1.0
    mask.setflags(write=False)
    return mask


def max_neighborhood_size(g: AgentGraph, kappa: int) -> int:
    """Largest ``kappa``-hop neighborhood size over all agents."""
    return int(hop_mask(g, kappa).sum(axis=1).max())
