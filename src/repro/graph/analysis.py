"""Graph statistics used for dataset validation and exploration.

The Table II stand-ins claim to preserve the structural character of the
SNAP originals; this module provides the statistics those claims are
checked with (degree inequality, clustering, components).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph


def degree_gini(graph: Graph) -> float:
    """Gini coefficient of the degree distribution (0 = regular graph,
    -> 1 for extreme hub dominance). Social graphs typically land ~0.5."""
    d = np.sort(graph.degrees.astype(np.float64))
    n = d.size
    if n == 0 or d.sum() == 0:
        return 0.0
    cum = np.cumsum(d)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def clustering_coefficient(graph: Graph, sample: int | None = 2000,
                           rng: np.random.Generator | None = None) -> float:
    """Average local clustering coefficient.

    Exact for graphs with <= ``sample`` vertices; otherwise estimated on a
    uniform vertex sample (the per-vertex computation is O(d^2 log d)).
    """
    n = graph.n_vertices
    if sample is not None and n > sample:
        rng = rng or np.random.default_rng(0)
        vertices = rng.choice(n, size=sample, replace=False)
    else:
        vertices = np.arange(n)
    total = 0.0
    counted = 0
    for v in vertices:
        nbrs = graph.neighbors(int(v))
        d = nbrs.size
        if d < 2:
            continue
        # Count edges among neighbors via vectorized membership.
        pairs_a = np.repeat(nbrs, d)
        pairs_b = np.tile(nbrs, d)
        keep = pairs_a < pairs_b
        links = graph.has_edges(np.column_stack([pairs_a[keep], pairs_b[keep]]))
        total += 2.0 * links.sum() / (d * (d - 1))
        counted += 1
    return total / counted if counted else 0.0


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per vertex (0-based, in discovery order).

    Iterative BFS over the CSR adjacency; O(N + E).
    """
    n = graph.n_vertices
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            v = stack.pop()
            for u in graph.neighbors(v):
                u = int(u)
                if labels[u] == -1:
                    labels[u] = current
                    stack.append(u)
        current += 1
    return labels
