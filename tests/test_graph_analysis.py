"""Graph-analysis statistics tests (validated against networkx)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.analysis import (
    clustering_coefficient,
    connected_components,
    degree_gini,
)
from repro.graph.graph import Graph


def to_networkx(graph: Graph):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n_vertices))
    g.add_edges_from(map(tuple, graph.edges))
    return g


class TestDegreeStats:
    def test_gini_zero_for_regular_graph(self):
        # 6-cycle: every vertex degree 2.
        edges = np.array([[i, (i + 1) % 6] for i in range(6)])
        assert degree_gini(Graph(6, edges)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_high_for_star(self):
        edges = np.array([[0, i] for i in range(1, 30)])
        assert degree_gini(Graph(30, edges)) > 0.4

    def test_gini_empty_graph(self):
        assert degree_gini(Graph(3, np.zeros((0, 2), dtype=np.int64))) == 0.0


class TestClustering:
    def test_triangle_is_one(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]))
        assert clustering_coefficient(g) == pytest.approx(1.0)

    def test_star_is_zero(self):
        g = Graph(5, np.array([[0, i] for i in range(1, 5)]))
        assert clustering_coefficient(g) == pytest.approx(0.0)

    def test_matches_networkx(self, planted):
        import networkx as nx

        graph, _ = planted
        ours = clustering_coefficient(graph, sample=None)
        # Our convention: average over vertices with degree >= 2.
        per_node = nx.clustering(to_networkx(graph))
        eligible = [c for v, c in per_node.items() if graph.degree(v) >= 2]
        assert ours == pytest.approx(np.mean(eligible), rel=1e-9)

    def test_sampled_close_to_exact(self, planted):
        graph, _ = planted
        exact = clustering_coefficient(graph, sample=None)
        sampled = clustering_coefficient(graph, sample=100, rng=np.random.default_rng(0))
        assert sampled == pytest.approx(exact, abs=0.1)


class TestComponents:
    def test_two_triangles_bridged(self, tiny_graph):
        labels = connected_components(tiny_graph)
        assert np.unique(labels).size == 1  # the bridge joins them

    def test_disconnected(self):
        g = Graph(6, np.array([[0, 1], [2, 3]]))
        labels = connected_components(g)
        # {0,1}, {2,3}, and two isolated singletons {4}, {5}.
        assert np.unique(labels).size == 4

    def test_matches_networkx(self, ammsb_graph):
        import networkx as nx

        graph, _ = ammsb_graph
        labels = connected_components(graph)
        ours = np.unique(labels).size
        theirs = nx.number_connected_components(to_networkx(graph))
        assert ours == theirs


class TestSummary:
    def test_standins_have_social_graph_character(self):
        """The stand-ins must show hub-dominated degrees and non-trivial
        clustering — the structural features of the SNAP originals."""
        from repro.graph.datasets import load_dataset

        graph, _, _ = load_dataset("com-LiveJournal", scale=5e-4)
        _, sizes = np.unique(connected_components(graph), return_counts=True)
        assert degree_gini(graph) > 0.25
        assert clustering_coefficient(graph) > 0.05
        assert sizes.max() / graph.n_vertices > 0.5
