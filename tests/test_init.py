"""Graph-aware initializer tests (spectral cold start, informed extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AMMSBConfig
from repro.core.init import (
    extend_state_informed,
    init_state_spectral,
    spectral_memberships,
)
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import init_state
from repro.graph.graph import Graph
from repro.graph.split import split_heldout


class TestSpectralInit:
    def test_memberships_on_simplex(self, planted, rng):
        graph, _ = planted
        pi = spectral_memberships(graph, 4, rng=rng)
        assert pi.shape == (graph.n_vertices, 4)
        assert (pi >= 0).all()
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_for_fixed_seed(self, planted):
        graph, _ = planted
        a = spectral_memberships(graph, 4, rng=np.random.default_rng(5))
        b = spectral_memberships(graph, 4, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_separates_planted_communities(self, planted, rng):
        """Vertices sharing a planted community must look more alike
        than cross-community pairs."""
        graph, truth = planted
        pi = spectral_memberships(graph, 4, rng=rng)
        labels = np.argmax(truth.pi, axis=1)
        same = labels[:, None] == labels[None, :]
        sim = pi @ pi.T
        off = ~np.eye(len(labels), dtype=bool)
        assert sim[same & off].mean() > 1.5 * sim[~same].mean()

    def test_degenerate_graphs_rejected(self, tiny_graph, rng):
        with pytest.raises(ValueError):
            spectral_memberships(tiny_graph, 0, rng=rng)
        with pytest.raises(ValueError):
            spectral_memberships(tiny_graph, 6, rng=rng)  # n <= k
        empty = Graph(8, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            spectral_memberships(empty, 2, rng=rng)

    def test_state_valid_and_better_than_random(self, planted, config, rng):
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        est = PerplexityEstimator(
            split.heldout_pairs, split.heldout_labels, config.delta
        )
        spectral = init_state_spectral(split.train, config, rng=rng)
        spectral.validate()
        random_st = init_state(
            split.train.n_vertices, config, np.random.default_rng(2)
        )
        assert (
            est.single_sample_value(spectral.pi, spectral.beta)
            < est.single_sample_value(random_st.pi, random_st.beta)
        )


class TestExtendStateInformed:
    def _grown(self, tiny_graph):
        """tiny_graph plus two vertices: 6 linked to {2, 3}, 7 isolated-ish."""
        edges = np.concatenate([tiny_graph.edges, [[2, 6], [3, 6], [6, 7]]])
        return Graph(8, edges)

    def test_old_rows_copied_exactly(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        grown = extend_state_informed(state, self._grown(tiny_graph), config)
        grown.validate()
        np.testing.assert_array_equal(grown.pi[:6], state.pi)
        np.testing.assert_array_equal(grown.phi_sum[:6], state.phi_sum)
        np.testing.assert_array_equal(grown.theta, state.theta)

    def test_new_rows_average_their_neighbors(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        grown = extend_state_informed(
            state, self._grown(tiny_graph), config
        )
        k = config.n_communities
        mean = state.pi[[2, 3]].astype(np.float64).mean(axis=0)
        expected = mean + config.effective_alpha / k
        np.testing.assert_allclose(
            grown.pi[6], expected / expected.sum(), rtol=1e-6
        )
        # Vertex 7's only neighbor is 6 (an earlier new row): chained
        # informed init, not the uniform fallback.
        assert grown.pi[7].argmax() == grown.pi[6].argmax()

    def test_isolated_new_vertex_gets_uniform_row(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        grown_graph = Graph(
            8, np.concatenate([tiny_graph.edges, [[6, 7]]])
        )
        grown = extend_state_informed(state, grown_graph, config)
        np.testing.assert_allclose(
            grown.pi[6], np.full(config.n_communities, 0.25), rtol=1e-6
        )

    def test_same_size_returns_a_copy(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        same = extend_state_informed(state, tiny_graph, config)
        assert same is not state
        np.testing.assert_array_equal(same.pi, state.pi)

    def test_shrinking_rejected(self, tiny_graph, config, rng):
        state = init_state(10, config, rng)
        with pytest.raises(ValueError, match="covers"):
            extend_state_informed(state, tiny_graph, config)

    def test_community_mismatch_rejected(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        other = AMMSBConfig(n_communities=7, seed=0)
        with pytest.raises(ValueError, match="mismatch"):
            extend_state_informed(state, self._grown(tiny_graph), other)
