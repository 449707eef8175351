"""Delta overlay: ingest validation, dedup accounting, bounds, compaction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.graph.io import load_csr
from repro.stream import DeltaOverflow, DeltaOverlay, MalformedArrival


def _overlay(tiny_graph, **kwargs):
    return DeltaOverlay(tiny_graph, **kwargs)


class TestIngest:
    def test_novel_edges_buffered(self, tiny_graph):
        ov = _overlay(tiny_graph)
        report = ov.ingest_pairs(np.array([[0, 4], [5, 6]]))
        assert report.accepted == 2
        assert ov.n_pending == 2
        assert ov.n_vertices == 7  # vertex 6 is new
        assert ov.n_new_nodes == 1

    def test_canonicalization_and_duplicate_accounting(self, tiny_graph):
        ov = _overlay(tiny_graph)
        # (1, 0) is a base edge reversed; (4, 0) twice in the batch.
        report = ov.ingest_pairs(np.array([[1, 0], [4, 0], [0, 4]]))
        assert report.accepted == 1
        assert report.duplicates == 2
        # Re-ingesting the novel pair now hits the pending buffer.
        again = ov.ingest_pairs(np.array([[0, 4]]))
        assert again.accepted == 0 and again.duplicates == 1
        assert ov.n_pending == 1

    def test_order_independent_buffer(self, tiny_graph):
        a = _overlay(tiny_graph)
        b = _overlay(tiny_graph)
        pairs = np.array([[0, 5], [2, 4], [0, 4]])
        a.ingest_pairs(pairs)
        for row in pairs[::-1]:
            b.ingest_pairs(row[None, :])
        np.testing.assert_array_equal(a.pending_pairs, b.pending_pairs)

    def test_strict_raises_on_first_bad_record(self, tiny_graph):
        ov = _overlay(tiny_graph)
        with pytest.raises(MalformedArrival, match="self-loop"):
            ov.ingest_pairs(np.array([[0, 4], [3, 3]]), strict=True)
        with pytest.raises(MalformedArrival, match="negative-id"):
            ov.ingest_pairs(np.array([[-1, 2]]), strict=True)
        with pytest.raises(MalformedArrival, match="id-overflow"):
            ov.ingest_pairs(np.array([[0, 1 << 40]]), strict=True)
        assert ov.n_pending == 0  # nothing half-applied

    def test_quarantine_keeps_the_batch_going(self, tiny_graph):
        ov = _overlay(tiny_graph)
        report = ov.ingest_pairs(
            np.array([[0, 4], [3, 3], [-1, 2], [0, 5]]), strict=False
        )
        assert report.accepted == 2
        assert report.quarantined == 2
        reasons = [r for r, _ in ov.quarantined]
        assert reasons == ["self-loop", "negative-id"]

    def test_bad_timestamp_quarantined(self, tiny_graph):
        ov = _overlay(tiny_graph)
        report = ov.ingest_pairs(
            np.array([[0, 4], [0, 5]]),
            timestamps=np.array([1.0, np.nan]),
            strict=False,
        )
        assert report.quarantined == 1 and report.accepted == 1

    def test_out_of_order_counted_across_batches(self, tiny_graph):
        ov = _overlay(tiny_graph)
        r1 = ov.ingest_pairs(np.array([[0, 4]]), timestamps=np.array([10.0]))
        assert r1.out_of_order == 0
        r2 = ov.ingest_pairs(
            np.array([[0, 5], [1, 4]]), timestamps=np.array([5.0, 11.0])
        )
        assert r2.out_of_order == 1
        assert ov.last_timestamp == 11.0

    def test_bad_shape_always_raises(self, tiny_graph):
        ov = _overlay(tiny_graph)
        with pytest.raises(MalformedArrival, match="bad-shape"):
            ov.ingest_pairs(np.arange(6).reshape(2, 3), strict=False)
        with pytest.raises(MalformedArrival, match="unparseable"):
            ov.ingest_pairs(np.array([[0.5, 2.0]]), strict=False)

    def test_float_integral_pairs_accepted(self, tiny_graph):
        ov = _overlay(tiny_graph)
        report = ov.ingest_pairs(np.array([[0.0, 4.0]]))
        assert report.accepted == 1

    def test_empty_batch_is_a_noop(self, tiny_graph):
        ov = _overlay(tiny_graph)
        report = ov.ingest_pairs(np.zeros((0, 2), dtype=np.int64))
        assert report.accepted == 0 and ov.n_pending == 0


class TestBounds:
    def test_max_pending_overflow_before_mutation(self, tiny_graph):
        ov = _overlay(tiny_graph, max_pending=2)
        ov.ingest_pairs(np.array([[0, 4]]))
        with pytest.raises(DeltaOverflow, match="compact first"):
            ov.ingest_pairs(np.array([[0, 5], [1, 4]]))
        # The failed batch changed nothing.
        assert ov.n_pending == 1
        assert ov.quarantined == []

    def test_max_new_nodes_overflow_before_mutation(self, tiny_graph):
        ov = _overlay(tiny_graph, max_new_nodes=1)
        ov.ingest_pairs(np.array([[0, 6]]))  # one new node: fine
        with pytest.raises(DeltaOverflow, match="new"):
            ov.ingest_pairs(np.array([[0, 7]]))
        assert ov.n_pending == 1 and ov.n_vertices == 7

    def test_duplicates_never_count_against_the_cap(self, tiny_graph):
        ov = _overlay(tiny_graph, max_pending=1)
        ov.ingest_pairs(np.array([[0, 4]]))
        # Same edge again: duplicate, not overflow.
        report = ov.ingest_pairs(np.array([[4, 0]]))
        assert report.duplicates == 1


class TestCompaction:
    """Base + delta -> container -> reload == from-scratch merge (bit-identical)."""

    def test_round_trip_matches_from_scratch_merge(self, tiny_graph, tmp_path):
        delta = np.array([[0, 4], [2, 6], [5, 7]])
        ov = _overlay(tiny_graph)
        ov.ingest_pairs(delta)
        compacted = ov.compact(tmp_path / "g.csr")

        scratch = Graph(8, np.concatenate([tiny_graph.edges, delta]))
        assert compacted.n_vertices == scratch.n_vertices
        np.testing.assert_array_equal(
            np.asarray(compacted.edges), np.asarray(scratch.edges)
        )
        np.testing.assert_array_equal(compacted.degrees, scratch.degrees)
        # The persisted container reloads to the same graph.
        reloaded = load_csr(tmp_path / "g.csr")
        np.testing.assert_array_equal(
            np.asarray(reloaded.edges), np.asarray(compacted.edges)
        )

    def test_compact_resets_the_overlay(self, tiny_graph, tmp_path):
        ov = _overlay(tiny_graph)
        ov.ingest_pairs(np.array([[0, 4]]))
        merged = ov.compact(tmp_path / "g.csr")
        assert ov.n_pending == 0
        assert ov.base is merged
        # The absorbed edge now dedups against the new base.
        report = ov.ingest_pairs(np.array([[0, 4]]))
        assert report.accepted == 0 and report.duplicates == 1

    def test_compact_without_path_stays_in_memory(self, tiny_graph):
        ov = _overlay(tiny_graph)
        ov.ingest_pairs(np.array([[0, 4]]))
        merged = ov.compact()
        assert merged.n_edges == tiny_graph.n_edges + 1

    def test_compact_with_nothing_pending_persists_base(self, tiny_graph, tmp_path):
        ov = _overlay(tiny_graph)
        merged = ov.compact(tmp_path / "g.csr")
        assert merged.n_edges == tiny_graph.n_edges
        assert (tmp_path / "g.csr").exists()

    def test_ingest_compact_ingest_cycle(self, tiny_graph, tmp_path):
        """Two generations of ingest+compact equal one big merge."""
        ov = _overlay(tiny_graph)
        ov.ingest_pairs(np.array([[0, 4], [2, 6]]))
        ov.compact(tmp_path / "g0.csr")
        ov.ingest_pairs(np.array([[5, 7], [0, 6]]))
        final = ov.compact(tmp_path / "g1.csr")
        scratch = Graph(
            8,
            np.concatenate(
                [tiny_graph.edges, [[0, 4], [2, 6], [5, 7], [0, 6]]]
            ),
        )
        np.testing.assert_array_equal(
            np.asarray(final.edges), np.asarray(scratch.edges)
        )

    @pytest.mark.parametrize("persist", [True, False], ids=["path", "memory"])
    def test_many_small_compactions_equal_one_big(self, planted, tmp_path, persist):
        """Every CSR array, not only the edge list, with and without a
        container round trip between the merges."""
        graph, _ = planted
        order = np.random.default_rng(5).permutation(graph.n_edges)
        base = Graph(graph.n_vertices // 2, np.zeros((0, 2), dtype=np.int64))
        small, big = _overlay(base), _overlay(base)
        for i, chunk in enumerate(np.array_split(graph.edges[order], 7)):
            small.ingest_pairs(chunk)
            small.compact(tmp_path / f"g{i}.csr" if persist else None)
            big.ingest_pairs(chunk[:, ::-1])
        one = big.compact(tmp_path / "big.csr" if persist else None)
        for name in ("edges", "keys", "_csr_indptr", "_csr_indices"):
            np.testing.assert_array_equal(
                getattr(small.base, name), getattr(one, name), err_msg=name
            )
            np.testing.assert_array_equal(
                getattr(one, name), getattr(graph, name), err_msg=name
            )
