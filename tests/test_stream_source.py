"""Arrival sources: file tailing, layout sniffing, synthetic streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stream import (
    EdgeArrival,
    FileTailSource,
    MalformedArrival,
    SyntheticArrivalSource,
    arrivals_to_arrays,
    write_arrival_file,
)


class TestFileTailSource:
    def test_three_column_layout(self, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("# header\n1.5 0 1\n2.5 1 2\n")
        src = FileTailSource(path)
        arrivals = src.read_all()
        assert arrivals == [EdgeArrival(1.5, 0, 1), EdgeArrival(2.5, 1, 2)]

    def test_two_column_layout_synthesizes_timestamps(self, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("0 1\n1 2\n")
        arrivals = FileTailSource(path).read_all()
        assert [a.timestamp for a in arrivals] == [0.0, 1.0]
        assert [(a.src, a.dst) for a in arrivals] == [(0, 1), (1, 2)]

    def test_partial_trailing_line_deferred(self, tmp_path):
        """A line without its newline must wait for a later poll."""
        path = tmp_path / "arr.txt"
        with open(path, "w") as fh:
            fh.write("1.0 0 1\n2.0 1 ")
        src = FileTailSource(path)
        assert src.poll() == [EdgeArrival(1.0, 0, 1)]
        assert src.poll() == []  # still torn
        with open(path, "a") as fh:
            fh.write("2\n3.0 2 3\n")
        assert src.poll() == [EdgeArrival(2.0, 1, 2), EdgeArrival(3.0, 2, 3)]
        assert src.poll() == []

    def test_layout_enforced_after_sniffing(self, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("1.0 0 1\n4 5\n")
        with pytest.raises(MalformedArrival, match="bad-shape"):
            FileTailSource(path).read_all()

    def test_lenient_counts_malformed(self, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("1.0 0 1\nnot a line at all\n2.0 x 3\n3.0 2 3\n")
        src = FileTailSource(path, strict=False)
        arrivals = src.read_all()
        assert [(a.src, a.dst) for a in arrivals] == [(0, 1), (2, 3)]
        assert src.n_malformed == 2

    def test_strict_raises_unparseable(self, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("1.0 a b\n")
        with pytest.raises(MalformedArrival, match="unparseable"):
            FileTailSource(path).read_all()

    def test_reset_replays_from_scratch(self, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("1.0 0 1\n")
        src = FileTailSource(path)
        first = src.read_all()
        assert src.read_all() == []
        src.seek(0)
        assert src.read_all() == first

    def test_write_read_round_trip(self, tmp_path):
        arrivals = [EdgeArrival(0.25, 3, 9), EdgeArrival(1.75, 9, 12)]
        path = write_arrival_file(tmp_path / "out.txt", arrivals, header="hi")
        assert path.read_text().startswith("# hi\n")
        back = FileTailSource(path).read_all()
        assert back == arrivals

    def test_rotation_resets_to_top_of_new_file(self, tmp_path):
        """A file that shrank was rotated in place: re-read from offset 0."""
        path = tmp_path / "arr.txt"
        path.write_text("1.0 0 1\n2.0 1 2\n3.0 2 3\n")
        src = FileTailSource(path)
        assert len(src.poll()) == 3
        # Rotate: a strictly smaller replacement lands atomically.
        rotated = tmp_path / "arr.next"
        rotated.write_text("4.0 5 6\n")
        rotated.replace(path)
        assert src.poll() == [EdgeArrival(4.0, 5, 6)]
        assert src.n_rotations == 1
        assert src.poll() == []

    def test_rotation_resniffs_the_column_layout(self, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("1.0 0 1\n2.0 1 2\n")
        src = FileTailSource(path)
        src.poll()
        rotated = tmp_path / "arr.next"
        rotated.write_text("5 6\n")  # 2-column layout after rotation
        rotated.replace(path)
        [arrival] = src.poll()
        assert (arrival.src, arrival.dst) == (5, 6)

    def test_missing_file_propagates(self, tmp_path):
        src = FileTailSource(tmp_path / "gone.txt")
        with pytest.raises(FileNotFoundError):
            src.poll()

    def test_seek_positions_the_tail(self, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("1.0 0 1\n2.0 1 2\n")
        src = FileTailSource(path)
        src.poll()
        offset = src.offset
        assert offset == path.stat().st_size
        src.seek(0)
        assert len(src.poll()) == 2  # re-read; downstream dedup absorbs
        src.seek(offset)
        assert src.poll() == []
        with pytest.raises(ValueError):
            src.seek(-1)


class TestArrivalsToArrays:
    def test_shapes_and_values(self):
        pairs, ts = arrivals_to_arrays(
            [EdgeArrival(1.0, 2, 3), EdgeArrival(2.0, 4, 5)]
        )
        np.testing.assert_array_equal(pairs, [[2, 3], [4, 5]])
        np.testing.assert_array_equal(ts, [1.0, 2.0])

    def test_empty(self):
        pairs, ts = arrivals_to_arrays([])
        assert pairs.shape == (0, 2) and ts.shape == (0,)


class TestSyntheticArrivalSource:
    def test_frontier_order_keeps_ids_contiguous(self, planted):
        graph, _ = planted
        src = SyntheticArrivalSource(graph, base_fraction=0.8, seed=5)
        base = src.base_graph()
        assert base.n_vertices == int(graph.n_vertices * 0.8)
        # Every base edge lives inside the base id range; arrivals touch
        # at least one id beyond it, and the max id grows monotonically.
        assert base.edges.size == 0 or base.edges.max() < base.n_vertices
        seen_max = base.n_vertices - 1
        for a in src.arrivals():
            assert max(a.src, a.dst) >= base.n_vertices
            new_max = max(seen_max, a.src, a.dst)
            assert new_max - seen_max <= 1  # frontier grows one id at a time
            seen_max = new_max
        assert seen_max == graph.n_vertices - 1

    def test_base_plus_arrivals_reconstructs_graph(self, planted):
        graph, _ = planted
        src = SyntheticArrivalSource(graph, base_fraction=0.8, seed=5)
        base = src.base_graph()
        pairs, _ = arrivals_to_arrays(src.arrivals())
        merged = np.concatenate([np.asarray(base.edges), pairs])
        merged = merged[np.lexsort((merged[:, 1], merged[:, 0]))]
        np.testing.assert_array_equal(merged, np.asarray(graph.edges))

    def test_timestamps_strictly_increase(self, planted):
        graph, _ = planted
        src = SyntheticArrivalSource(graph, base_fraction=0.9, seed=2)
        ts = [a.timestamp for a in src.arrivals()]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_batches_partition_arrivals(self, planted):
        graph, _ = planted
        src = SyntheticArrivalSource(graph, base_fraction=0.9, seed=2)
        batches = list(src.batches(3))
        assert len(batches) == 3
        flat = [a for b in batches for a in b]
        assert flat == src.arrivals()

    def test_validation(self, planted):
        graph, _ = planted
        with pytest.raises(ValueError):
            SyntheticArrivalSource(graph, base_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticArrivalSource(graph, rate=0.0)
        with pytest.raises(ValueError):
            next(SyntheticArrivalSource(graph).batches(0))
