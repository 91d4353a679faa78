"""Agent communication graph, column-stochastic mixing weights, k-hop queries.

Agent ids are 1-based in configs and edge lists (the constructor is the
parsing boundary) and 0-based everywhere else in the API. Graphs are
undirected, connected, and carry an implicit self-loop on every agent, so
each agent belongs to its own direct neighborhood. The implicit self-loop
gives the mixing matrix a positive diagonal, which keeps push-sum mixing
aperiodic.

:func:`hop_mask` is the one k-hop relation: the policy's coupling, the return
estimate's reach, :func:`khop`, :func:`weight_matrix` and the environments'
neighbor pairs all read it.
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
    direct = hop_mask(g, 1)
    return direct / direct.sum(axis=0)


def khop(g: AgentGraph, i: int, kappa: int) -> tuple[int, ...]:
    """Sorted agents within graph distance ``kappa`` of agent ``i`` (0-based).

    ``kappa = 0`` yields exactly ``(i,)``; any radius at or beyond the
    diameter yields all agents.
    """
    if not 0 <= i < g.n:
        raise IndexOutOfRange(f"agent {i} outside 0..{g.n - 1}")
    return tuple(np.flatnonzero(hop_mask(g, kappa)[i]).tolist())


@lru_cache(maxsize=256)
def hop_mask(g: AgentGraph, kappa: int) -> np.ndarray:
    """Read-only ``(n, n)`` 0/1 float array, 1 where agents are at most ``kappa`` hops apart.

    The identity times ``min(kappa, n - 1)`` direct-neighbor matrices, clipped
    at 1 after each product, which keeps every product exact. Cached per
    graph and radius.
    """
    if kappa < 0:
        raise IndexOutOfRange(f"radius must be nonnegative, got {kappa}")
    direct = np.zeros((g.n, g.n))
    for i, hood in enumerate(g.neighbors):
        direct[i, hood] = 1.0
    mask = np.eye(g.n)
    for _ in range(min(kappa, g.n - 1)):
        mask = np.minimum(mask @ direct, 1.0)
    mask.setflags(write=False)
    return mask


def max_neighborhood_size(g: AgentGraph, kappa: int) -> int:
    """Largest ``kappa``-hop neighborhood size over all agents."""
    return int(hop_mask(g, kappa).sum(axis=1).max())
