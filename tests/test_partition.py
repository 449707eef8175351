"""dist.partition tests: shards, charged adjacency slices, held-out partitions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.minibatch import PAIR_BLOCK, ROW_BLOCK, MinibatchSampler, n_blocks, pair_bounds
from repro.dist.partition import partition_heldout, partition_minibatch, slice_bytes


def cut_slice_bytes(graph, vertices) -> int:
    """Bytes of the slice ``Graph.adjacency_slice`` cuts, with its vertex ids."""
    indptr, indices = graph.adjacency_slice(vertices)
    return int(np.asarray(vertices, dtype=np.int64).nbytes + indptr.nbytes + indices.nbytes)


class TestAdjacencySlice:
    """A worker answers ``y_ab`` from the graph's rows of its vertices; the
    slice the paper ships is charged, not cut."""

    def test_rows_match_graph(self, tiny_graph):
        vs = np.array([2, 0, 5])
        indptr, indices = tiny_graph.adjacency_slice(vs)
        for i, v in enumerate(vs):
            np.testing.assert_array_equal(
                indices[indptr[i] : indptr[i + 1]], tiny_graph.neighbors(int(v))
            )
        assert indices.size == sum(tiny_graph.degree(int(v)) for v in vs)

    def test_links_against_matches_graph(self, tiny_graph, rng):
        vs = np.array([0, 2, 4])
        neighbors = rng.integers(0, 6, size=(3, 8))
        got = tiny_graph.links_from(vs, neighbors)
        for i, v in enumerate(vs):
            for j in range(8):
                assert got[i, j] == tiny_graph.has_edge(int(v), int(neighbors[i, j]))

    def test_links_against_shape_check(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.links_from(np.array([0]), np.zeros((2, 3), dtype=np.int64))

    def test_payload_bytes_positive(self, tiny_graph):
        vs = np.array([0, 1])
        assert slice_bytes(tiny_graph.degrees, vs) == cut_slice_bytes(tiny_graph, vs) > 0


class TestPairBounds:
    @pytest.mark.parametrize("n_pairs", [0, 1, 250, 511, 512, 513, 530, 1024, 1025, 1500, 4097])
    def test_as_many_blocks_as_fixed_cuts_of_sizes_within_one(self, n_pairs):
        """The cut makes no more kernel calls than fixed 512-pair blocks
        would, and evens them: ~530 pairs are 265 + 265, not 512 + 18."""
        bounds = pair_bounds(n_pairs)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n_pairs
        assert sizes.size == n_blocks(n_pairs, PAIR_BLOCK)
        if n_pairs:
            assert sizes.max() - sizes.min() <= 1
            assert sizes.max() <= PAIR_BLOCK and sizes.min() >= 1

    def test_train_mp_shape_splits_evenly_over_two_workers(self):
        assert np.diff(pair_bounds(530)).tolist() == [265, 265]
        assert np.diff(pair_bounds(531)).tolist() == [265, 266]


class TestPartitionMinibatch:
    def make_minibatch(self, graph, config, seed=0):
        ms = MinibatchSampler(graph, config.with_updates(mini_batch_vertices=1500))
        mb = ms.sample(np.random.default_rng(seed))
        # a short last block after >= 2 whole ones, of rows and of pairs
        assert mb.n_vertices > 2 * ROW_BLOCK and mb.n_edges > 2 * PAIR_BLOCK
        return mb

    def test_vertices_partitioned_exactly(self, planted, config):
        """Whole row blocks, dealt round-robin, each shard in block order."""
        graph, _ = planted
        mb = self.make_minibatch(graph, config)
        shards = partition_minibatch(mb, 3, key=7)
        for w, shard in enumerate(shards):
            assert shard.key == 7
            assert shard.row_blocks == tuple(range(w, n_blocks(mb.n_vertices, ROW_BLOCK), 3))
            expect = [mb.vertices[b * ROW_BLOCK : (b + 1) * ROW_BLOCK] for b in shard.row_blocks]
            np.testing.assert_array_equal(shard.vertices, np.concatenate(expect))
        recombined = np.sort(np.concatenate([s.vertices for s in shards]))
        np.testing.assert_array_equal(recombined, mb.vertices)

    def test_strata_partitioned_exactly(self, planted, config):
        """The strata's pairs, labels and h-weights, in whole pair blocks
        as :func:`pair_bounds` cuts them: put back in block order they are
        the mini-batch's."""
        graph, _ = planted
        mb = self.make_minibatch(graph, config)
        shards = partition_minibatch(mb, 3, key=7)
        sizes = np.diff(pair_bounds(mb.n_edges))
        blocks = {}
        for shard in shards:
            assert shard.pair_bounds[0] == 0 and shard.pair_bounds[-1] == len(shard.pairs)
            for j, b in enumerate(shard.pair_blocks):
                cut = slice(shard.pair_bounds[j], shard.pair_bounds[j + 1])
                assert cut.stop - cut.start == sizes[b]
                blocks[b] = (shard.pairs[cut], shard.labels[cut], shard.weights[cut])
        assert sorted(blocks) == list(range(n_blocks(mb.n_edges, PAIR_BLOCK)))
        for got, want in zip(zip(*(blocks[b] for b in sorted(blocks))), mb.all_pairs()):
            np.testing.assert_array_equal(np.concatenate(got), want)

    def test_adjacency_matches_shard_vertices(self, planted, config):
        """The bytes charged for a shard's slice are those of the slice
        ``Graph.adjacency_slice`` cuts for exactly its vertices."""
        graph, _ = planted
        mb = self.make_minibatch(graph, config)
        for shard in partition_minibatch(mb, 4, key=0):
            assert slice_bytes(graph.degrees, shard.vertices) == cut_slice_bytes(
                graph, shard.vertices
            )

    def test_single_worker_gets_everything(self, planted, config):
        graph, _ = planted
        mb = self.make_minibatch(graph, config)
        (shard,) = partition_minibatch(mb, 1, key=0)
        np.testing.assert_array_equal(shard.vertices, mb.vertices)
        for got, want in zip((shard.pairs, shard.labels, shard.weights), mb.all_pairs()):
            np.testing.assert_array_equal(got, want)

    def test_more_workers_than_vertices(self, planted, config):
        """Work goes in whole blocks: one worker per block, the rest idle."""
        graph, _ = planted
        mb = self.make_minibatch(graph, config)
        shards = partition_minibatch(mb, mb.n_vertices + 5, key=0)
        nonempty = [s for s in shards if s.vertices.size]
        assert len(nonempty) == n_blocks(mb.n_vertices, ROW_BLOCK)
        assert sum(len(s.pair_blocks) for s in shards) == n_blocks(mb.n_edges, PAIR_BLOCK)

    def test_invalid_worker_count(self, planted, config):
        graph, _ = planted
        mb = self.make_minibatch(graph, config)
        with pytest.raises(ValueError):
            partition_minibatch(mb, 0, key=0)


class TestPartitionHeldout:
    def test_covers_everything_balanced(self, rng):
        pairs = rng.integers(0, 50, size=(101, 2))
        labels = rng.random(101) < 0.5
        parts = partition_heldout(pairs, labels, 4)
        assert sum(len(p) for p, _ in parts) == 101
        sizes = [len(p) for p, _ in parts]
        assert max(sizes) - min(sizes) <= 1
