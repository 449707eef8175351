"""Mini-batch strategy tests, including estimator unbiasedness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AMMSBConfig
from repro.core.minibatch import PHI_NOISE, MinibatchSampler, Stratum, block_rng, seat
from repro.graph.graph import edge_keys
from repro.graph.split import split_heldout
from tests.oracles import has_edge


class TestStratum:
    def test_validation(self):
        pairs = np.array([[0, 1]])
        labels = np.array([True])
        with pytest.raises(ValueError):
            Stratum(pairs=pairs, labels=np.array([True, False]), scale=1.0)
        with pytest.raises(ValueError):
            Stratum(pairs=pairs, labels=labels, scale=0.0)
        with pytest.raises(ValueError):
            Stratum(pairs=np.array([0, 1]), labels=labels, scale=1.0)


class TestStratifiedSampling:
    def test_labels_match_graph(self, planted, config, rng):
        graph, _ = planted
        ms = MinibatchSampler(graph, config)
        for _ in range(10):
            mb = ms.sample(rng)
            for s in mb.strata:
                np.testing.assert_array_equal(graph.has_edges(s.pairs), s.labels)

    def test_vertices_are_union_of_strata(self, planted, config, rng):
        graph, _ = planted
        ms = MinibatchSampler(graph, config)
        mb = ms.sample(rng)
        expect = np.unique(np.concatenate([s.pairs.reshape(-1) for s in mb.strata]))
        np.testing.assert_array_equal(mb.vertices, expect)

    def test_strata_are_pure(self, planted, config, rng):
        """Each stratum is all-links or all-nonlinks."""
        graph, _ = planted
        ms = MinibatchSampler(graph, config)
        for _ in range(5):
            mb = ms.sample(rng)
            for s in mb.strata:
                assert s.labels.all() or not s.labels.any()

    def test_heldout_pairs_never_sampled(self, planted, config):
        graph, _ = planted
        split = split_heldout(graph, 0.05, np.random.default_rng(1))
        hk = np.sort(edge_keys(split.heldout_pairs, graph.n_vertices))
        ms = MinibatchSampler(split.train, config, heldout_keys=hk)
        rng = np.random.default_rng(2)
        for _ in range(20):
            mb = ms.sample(rng)
            pairs, _, _ = mb.all_pairs()
            keys = edge_keys(pairs, graph.n_vertices)
            assert not np.isin(keys, hk).any()

    def test_unbiased_link_and_nonlink_sums(self, tiny_graph):
        """The h-scaled stratified estimator recovers, in expectation, the
        sum of an arbitrary symmetric pair function over links and over
        non-links separately (derivation in the module docstring)."""
        g = tiny_graph
        n = g.n_vertices
        vals = np.arange(n)[:, None] * 0.7 + np.arange(n)[None, :] * 0.7 + 1.0
        cfg = AMMSBConfig(n_communities=2, mini_batch_vertices=4)
        ms = MinibatchSampler(g, cfg)
        rng = np.random.default_rng(0)
        for want_links in (True, False):
            target = 0.0
            for a in range(n):
                for b in range(a + 1, n):
                    if has_edge(g, a, b) == want_links:
                        target += vals[a, b]
            est, T = 0.0, 30_000
            for _ in range(T):
                mb = ms.sample(rng)
                for s in mb.strata:
                    sel = s.labels == want_links
                    est += s.scale * vals[s.pairs[sel, 0], s.pairs[sel, 1]].sum()
            assert est / T == pytest.approx(target, rel=0.05)

    def test_all_pairs_concatenation(self, planted, config, rng):
        graph, _ = planted
        ms = MinibatchSampler(graph, config)
        mb = ms.sample(rng)
        pairs, labels, scales = mb.all_pairs()
        assert len(pairs) == mb.n_edges == len(labels) == len(scales)
        assert (scales > 0).all()


class TestRandomPairSampling:
    def test_single_stratum_with_global_scale(self, planted, rng):
        graph, _ = planted
        cfg = AMMSBConfig(n_communities=4, mini_batch_vertices=40, strategy="random-pair")
        ms = MinibatchSampler(graph, cfg)
        mb = ms.sample(rng)
        assert len(mb.strata) == 1
        s = mb.strata[0]
        n = graph.n_vertices
        assert s.scale == pytest.approx(n * (n - 1) / 2.0 / len(s.pairs))

    def test_unbiased_total_sum(self, tiny_graph):
        g = tiny_graph
        n = g.n_vertices
        vals = np.abs(np.sin(np.arange(n)[:, None] + 2.0 * np.arange(n)[None, :])) + 0.5
        vals = (vals + vals.T) / 2
        target = sum(vals[a, b] for a in range(n) for b in range(a + 1, n))
        cfg = AMMSBConfig(n_communities=2, mini_batch_vertices=6, strategy="random-pair")
        ms = MinibatchSampler(g, cfg)
        rng = np.random.default_rng(1)
        est, T = 0.0, 20_000
        for _ in range(T):
            mb = ms.sample(rng)
            s = mb.strata[0]
            est += s.scale * vals[s.pairs[:, 0], s.pairs[:, 1]].sum()
        assert est / T == pytest.approx(target, rel=0.05)


class TestNeighborSampling:
    def test_shapes_and_mask(self, planted, config, rng):
        graph, _ = planted
        ms = MinibatchSampler(graph, config)
        vs = np.array([0, 5, 9])
        ns = ms.sample_neighbors(vs, rng)
        n = config.neighbor_sample_size
        assert ns.neighbors.shape == (3, n)
        assert ns.labels.shape == (3, n)
        assert ns.mask.shape == (3, n)
        assert (ns.counts >= 1).all()

    def test_self_pairs_masked(self, planted, config, rng):
        graph, _ = planted
        ms = MinibatchSampler(graph, config)
        vs = np.arange(20)
        ns = ms.sample_neighbors(vs, rng)
        self_hits = ns.neighbors == vs[:, None]
        assert not (self_hits & ns.mask).any()

    def test_labels_subset_of_mask(self, planted, config, rng):
        graph, _ = planted
        ms = MinibatchSampler(graph, config)
        ns = ms.sample_neighbors(np.arange(15), rng)
        assert not (ns.labels & ~ns.mask).any()

    def test_labels_match_graph_where_masked_in(self, planted, config, rng):
        graph, _ = planted
        ms = MinibatchSampler(graph, config)
        vs = np.arange(10)
        ns = ms.sample_neighbors(vs, rng)
        for i, v in enumerate(vs):
            for j in range(ns.neighbors.shape[1]):
                if ns.mask[i, j]:
                    assert ns.labels[i, j] == has_edge(graph, int(v), int(ns.neighbors[i, j]))

    def test_heldout_masked_out(self, planted, config):
        graph, _ = planted
        split = split_heldout(graph, 0.05, np.random.default_rng(1))
        hk = np.sort(edge_keys(split.heldout_pairs, graph.n_vertices))
        ms = MinibatchSampler(split.train, config, heldout_keys=hk)
        rng = np.random.default_rng(4)
        vs = np.unique(split.heldout_pairs[:, 0])[:20]
        for _ in range(10):
            ns = ms.sample_neighbors(vs, rng)
            flat = np.column_stack(
                [np.repeat(vs, ns.neighbors.shape[1]), ns.neighbors.reshape(-1)]
            )
            ok = flat[:, 0] != flat[:, 1]
            keys = edge_keys(flat[ok], graph.n_vertices)
            held = np.isin(keys, hk)
            assert not (held & ns.mask.reshape(-1)[ok]).any()


def _iteration_first(key, stream, block, iteration):
    """The layout ``block_rng`` must not have: counter ``[t, b, 0, 0]``."""
    return np.random.Generator(np.random.Philox(
        key=np.array([key, stream], dtype=np.uint64),
        counter=np.array([iteration, block, 0, 0], dtype=np.uint64),
    ))


class TestBlockStreams:
    @staticmethod
    def shared_windows(layout) -> int:
        """8-output windows that the first 64 raw outputs of adjacent
        (iteration, block) cells have in common."""
        shared = 0
        for t, b in [(0, 0), (5, 3), (1000, 63)]:
            cells = [(t, b), (t, b + 1), (t + 1, b), (t + 1, b + 1)]
            windows = []
            for tt, bb in cells:
                raw = layout(42, PHI_NOISE, bb, tt).bit_generator.random_raw(64)
                windows.append({tuple(raw[i : i + 8]) for i in range(64 - 8 + 1)})
            shared += sum(
                len(windows[i] & windows[j]) for i in range(4) for j in range(i + 1, 4)
            )
        return shared

    def test_adjacent_cells_share_no_window(self):
        assert self.shared_windows(block_rng) == 0

    def test_the_check_catches_an_iteration_first_counter(self):
        """Philox steps the first counter word: with the iteration there,
        block b of iteration t+1 is block b of iteration t four outputs on."""
        assert self.shared_windows(_iteration_first) > 0

    def test_a_pure_function_of_its_arguments(self):
        a = block_rng(7, PHI_NOISE, 3, 11).standard_normal(5)
        np.testing.assert_array_equal(a, block_rng(7, PHI_NOISE, 3, 11).standard_normal(5))
        for other in ((8, PHI_NOISE, 3, 11), (7, PHI_NOISE + 1, 3, 11), (7, PHI_NOISE, 4, 11),
                      (7, PHI_NOISE, 3, 12)):
            assert not np.array_equal(a, block_rng(*other).standard_normal(5))

    def test_a_seated_generator_is_a_fresh_one(self):
        """Re-seating (what a run of blocks does) starts where a new
        ``block_rng`` starts, even after draws that left a buffered half."""
        used = block_rng(1, PHI_NOISE, 0, 0)
        used.integers(0, 2**32, dtype=np.uint32)  # leaves a buffered uint32
        used.standard_normal(3)
        seated = seat(used, 2**63 + 5, PHI_NOISE, 9, 4)
        fresh = block_rng(2**63 + 5, PHI_NOISE, 9, 4)
        for draw in (
            lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
            lambda g: g.standard_normal(16),
            lambda g: g.bit_generator.random_raw(8),
        ):
            np.testing.assert_array_equal(draw(seated), draw(fresh))

    def test_every_bit_of_a_64_bit_key_counts(self):
        """A list holding a key >= 2**63 would go through float64 and lose
        its low bits; the helper builds the uint64 key itself."""
        key = 2**64 - 3
        assert block_rng(key, 0, 0).bit_generator.state["state"]["key"][0] == key
        low = block_rng(key, 0, 0).bit_generator.random_raw(4)
        assert not np.array_equal(low, block_rng(key - 1, 0, 0).bit_generator.random_raw(4))
