"""Deterministic random-regular-graph construction.

QAOA-MaxCut benchmarks in the paper are defined on random *d*-regular graphs
(degree 4 and 8).  This module provides a self-contained pairing-model
generator so the benchmark suite depends on no external graph library.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple

from repro.exceptions import BenchmarkError

__all__ = [
    "random_regular_graph",
    "ring_graph",
    "complete_graph_edges",
    "is_regular",
    "edge_count_for_regular",
]

Edge = Tuple[int, int]


def edge_count_for_regular(num_nodes: int, degree: int) -> int:
    """Number of edges of a *d*-regular graph on ``num_nodes`` nodes."""
    if (num_nodes * degree) % 2 != 0:
        raise BenchmarkError(
            f"no {degree}-regular graph exists on {num_nodes} nodes (odd product)"
        )
    return num_nodes * degree // 2


def _attempt_pairing(num_nodes: int, degree: int, rng: random.Random) -> List[Edge]:
    """One attempt of the Steger–Wormald incremental pairing model.

    Stubs are paired one edge at a time, always choosing among *suitable*
    pairs (no self-loop, no multi-edge).  Raises ``ValueError`` when no
    suitable pair remains before all stubs are used, in which case the caller
    retries with fresh randomness.  This converges quickly even for the
    degree-8 graphs of the paper's benchmarks, unlike naive stub shuffling.
    """
    remaining = {node: degree for node in range(num_nodes)}
    edges: Set[Edge] = set()
    target_edges = num_nodes * degree // 2
    while len(edges) < target_edges:
        open_nodes = [node for node, count in remaining.items() if count > 0]
        # Sample stubs proportionally to the remaining stub count.
        stub_pool = [node for node in open_nodes for _ in range(remaining[node])]
        suitable_found = False
        for _ in range(10 * len(stub_pool) + 10):
            a = rng.choice(stub_pool)
            b = rng.choice(stub_pool)
            if a == b:
                continue
            edge = (min(a, b), max(a, b))
            if edge in edges:
                continue
            edges.add(edge)
            remaining[a] -= 1
            remaining[b] -= 1
            suitable_found = True
            break
        if not suitable_found:
            raise ValueError("no suitable pair remains; restart")
    return sorted(edges)


def random_regular_graph(num_nodes: int, degree: int, seed: int = 0,
                         max_attempts: int = 2000) -> List[Edge]:
    """Generate a random ``degree``-regular simple graph on ``num_nodes`` nodes.

    Uses the configuration model with rejection of self-loops and
    multi-edges, which produces (asymptotically) uniform regular graphs for
    the small degrees used by the benchmarks.  The result is a sorted edge
    list with ``num_nodes * degree / 2`` edges.

    Parameters
    ----------
    num_nodes:
        Number of vertices (qubits).
    degree:
        Desired vertex degree; must satisfy ``degree < num_nodes`` and
        ``num_nodes * degree`` even.
    seed:
        Seed for the internal PRNG, making generation deterministic.
    max_attempts:
        Maximum number of rejected pairings before giving up.
    """
    if degree >= num_nodes:
        raise BenchmarkError(
            f"degree {degree} must be smaller than the number of nodes {num_nodes}"
        )
    if degree < 1:
        raise BenchmarkError("degree must be at least 1")
    expected_edges = edge_count_for_regular(num_nodes, degree)
    rng = random.Random(seed)
    for _ in range(max_attempts):
        try:
            edges = _attempt_pairing(num_nodes, degree, rng)
        except ValueError:
            continue
        if len(edges) == expected_edges:
            return edges
    raise BenchmarkError(
        f"failed to build a {degree}-regular graph on {num_nodes} nodes after "
        f"{max_attempts} attempts"
    )


def ring_graph(num_nodes: int) -> List[Edge]:
    """Edge list of the 1D ring (cycle) graph, used by tests."""
    if num_nodes < 3:
        raise BenchmarkError("a ring needs at least 3 nodes")
    return [(i, (i + 1) % num_nodes) for i in range(num_nodes)]


def complete_graph_edges(num_nodes: int) -> List[Edge]:
    """Edge list of the complete graph K_n (all-to-all interactions)."""
    return [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]


def is_regular(edges: Sequence[Edge], num_nodes: int, degree: int) -> bool:
    """Check that an edge list describes a simple ``degree``-regular graph.

    Self-loops, repeated edges and edges naming a node outside
    ``range(num_nodes)`` all make the graph irregular.
    """
    degrees = [0] * num_nodes
    seen: Set[Edge] = set()
    for a, b in edges:
        if a == b or not (0 <= a < num_nodes and 0 <= b < num_nodes):
            return False
        edge = (a, b) if a < b else (b, a)
        if edge in seen:
            return False
        seen.add(edge)
        degrees[a] += 1
        degrees[b] += 1
    return all(d == degree for d in degrees)
