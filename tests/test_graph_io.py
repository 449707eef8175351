"""Graph IO round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.graph.io import (
    convert_graph,
    load_csr,
    load_edge_list,
    load_npz,
    save_csr,
    save_edge_list,
    save_npz,
)


class TestEdgeList:
    def test_round_trip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(tiny_graph, path, header="test graph")
        g2 = load_edge_list(path, n_vertices=tiny_graph.n_vertices)
        np.testing.assert_array_equal(g2.edges, tiny_graph.edges)

    def test_snap_format_duplicates_and_comments(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(
            "# Directed graph, SNAP style\n"
            "# FromNodeId ToNodeId\n"
            "0 1\n1 0\n2 0\n0 2\n1 1\n"
        )
        g = load_edge_list(path)
        assert g.n_edges == 2  # (0,1) and (0,2); self-loop dropped

    def test_dense_relabeling(self, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("100 200\n200 4000\n")
        g = load_edge_list(path)
        assert g.n_vertices == 3
        assert g.n_edges == 2

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_header_written(self, tiny_graph, tmp_path):
        path = tmp_path / "h.txt"
        save_edge_list(tiny_graph, path, header="hello\nworld")
        text = path.read_text()
        assert text.startswith("# hello\n# world\n")
        assert "Nodes: 6 Edges: 7" in text


class TestStreamingDedup:
    """``dedup=True`` must agree with the legacy whole-file path exactly."""

    def _dirty_file(self, tmp_path, n_lines=5000, seed=0):
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, 40, size=(n_lines, 2))
        path = tmp_path / "dirty.txt"
        lines = ["# dirty: repeats, reversals, self-loops"]
        lines += [f"{a} {b}" for a, b in pairs]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_streaming_matches_legacy(self, tmp_path):
        path = self._dirty_file(tmp_path)
        streaming = load_edge_list(path, chunk_lines=257, dedup=True)
        legacy = load_edge_list(path, chunk_lines=257, dedup=False)
        assert streaming.n_vertices == legacy.n_vertices
        np.testing.assert_array_equal(streaming.edges, legacy.edges)

    def test_duplicates_dropped_across_chunk_boundaries(self, tmp_path):
        path = tmp_path / "rep.txt"
        # The same edge (reversed half the time) on every line, spanning
        # many chunks — the merge must keep exactly one.
        path.write_text(
            "\n".join("0 1" if i % 2 else "1 0" for i in range(1000)) + "\n"
        )
        g = load_edge_list(path, chunk_lines=64, dedup=True)
        assert g.n_edges == 1

    def test_n_vertices_respected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0 1\n1 0\n0 2\n")
        g = load_edge_list(path, n_vertices=10, dedup=True)
        assert g.n_vertices == 10 and g.n_edges == 2

    def test_huge_id_falls_back_to_legacy_path(self, tmp_path):
        """Ids past 2**31 mid-file: the parser degrades, not corrupts."""
        path = tmp_path / "huge.txt"
        big = (1 << 31) + 5
        path.write_text(f"0 1\n1 0\n0 2\n{big} 0\n0 1\n")
        streaming = load_edge_list(path, chunk_lines=2, dedup=True)
        legacy = load_edge_list(path, chunk_lines=2, dedup=False)
        np.testing.assert_array_equal(streaming.edges, legacy.edges)
        assert streaming.n_vertices == 4  # ids densely remapped

    def test_sparse_id_remap_unaffected(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("100 200\n200 100\n200 4000\n")
        g = load_edge_list(path, dedup=True)
        assert g.n_vertices == 3 and g.n_edges == 2


class TestStreamingParse:
    """The chunked parser must agree with a one-shot parse exactly."""

    def _messy_file(self, tmp_path, n=120, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 60, size=n)
        b = rng.integers(0, 60, size=n)
        lines = ["# SNAP-ish header", "", "# FromNodeId\tToNodeId"]
        for x, y in zip(a, b):
            lines.append(f"{x}\t{y}")
            if rng.random() < 0.15:
                lines.append("")  # blank lines sprinkled through the body
            if rng.random() < 0.1:
                lines.append("# interior comment")
        path = tmp_path / "messy.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_comments_and_blanks_anywhere(self, tmp_path):
        path = self._messy_file(tmp_path)
        g = load_edge_list(path)
        assert g.n_edges > 0

    @pytest.mark.parametrize("chunk_lines", [1, 7, 37, 1 << 16])
    def test_chunk_size_invariant(self, tmp_path, chunk_lines):
        """Chunk boundaries (including mid-comment, mid-blank) never
        change the parse: every chunk size yields identical graphs."""
        path = self._messy_file(tmp_path)
        ref = load_edge_list(path, chunk_lines=1 << 20)
        g = load_edge_list(path, chunk_lines=chunk_lines)
        assert g.n_vertices == ref.n_vertices
        np.testing.assert_array_equal(g.edges, ref.edges)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("0 1\n1 2 9\n")
        with pytest.raises(ValueError):
            load_edge_list(path)


class TestCsrContainer:
    def test_round_trip_resident(self, tiny_graph, tmp_path):
        save_csr(tiny_graph, tmp_path / "g.csr")
        g2 = load_csr(tmp_path / "g.csr", provider="resident", validate=True)
        assert g2.n_vertices == tiny_graph.n_vertices
        np.testing.assert_array_equal(np.asarray(g2.edges), tiny_graph.edges)

    def test_round_trip_mmap_queries_agree(self, tiny_graph, tmp_path):
        save_csr(tiny_graph, tmp_path / "g.csr")
        g2 = load_csr(tmp_path / "g.csr", provider="mmap")
        pairs = np.array([[0, 1], [0, 3], [2, 3], [4, 5]])
        np.testing.assert_array_equal(
            g2.has_edges(pairs), tiny_graph.has_edges(pairs)
        )
        for v in range(tiny_graph.n_vertices):
            np.testing.assert_array_equal(
                g2.neighbors(v), tiny_graph.neighbors(v)
            )

    def test_mmap_arrays_are_mapped(self, tiny_graph, tmp_path):
        save_csr(tiny_graph, tmp_path / "g.csr")
        g2 = load_csr(tmp_path / "g.csr", provider="mmap")
        indptr = g2._csr_indptr
        base = indptr if isinstance(indptr, np.memmap) else indptr.base
        assert isinstance(base, np.memmap)

    def test_three_members_24_bytes_per_edge(self, tiny_graph, tmp_path):
        from repro.store import Container

        c = Container(save_csr(tiny_graph, tmp_path / "g.csr"))
        assert c.names() == ["indices", "indptr", "keys"]
        assert c.nbytes() == 24 * tiny_graph.n_edges + 8 * (tiny_graph.n_vertices + 1)

    def test_an_older_container_with_edges_loads_array_for_array(self, tiny_graph, tmp_path):
        from repro.graph.io import GRAPH_CSR_KIND
        from repro.store import write_container

        write_container(
            tmp_path / "old.csr",
            {
                "edges": tiny_graph.edges,
                "keys": tiny_graph.keys,
                "indptr": tiny_graph._csr_indptr,
                "indices": tiny_graph._csr_indices,
            },
            kind=GRAPH_CSR_KIND,
            meta={"n_vertices": tiny_graph.n_vertices, "n_edges": tiny_graph.n_edges},
        )
        for validate in (False, True):
            g2 = load_csr(tmp_path / "old.csr", validate=validate)
            assert (g2.n_vertices, g2.n_edges) == (tiny_graph.n_vertices, tiny_graph.n_edges)
            for name in ("edges", "keys", "_csr_indptr", "_csr_indices"):
                a, b = getattr(g2, name), getattr(tiny_graph, name)
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.store import StoreError, write_container

        write_container(tmp_path / "x.csr", {"edges": np.zeros((0, 2))},
                        kind="other/1")
        with pytest.raises(StoreError, match="not a graph CSR container"):
            load_csr(tmp_path / "x.csr")


class TestConvertGraph:
    def test_from_edge_list(self, tiny_graph, tmp_path):
        save_edge_list(tiny_graph, tmp_path / "g.txt")
        g = convert_graph(tmp_path / "g.txt", tmp_path / "g.csr")
        g2 = load_csr(tmp_path / "g.csr")
        assert g.n_edges == g2.n_edges == tiny_graph.n_edges
        np.testing.assert_array_equal(np.asarray(g2.edges), tiny_graph.edges)

    def test_from_npz(self, tiny_graph, tmp_path):
        save_npz(tiny_graph, tmp_path / "g.npz")
        convert_graph(tmp_path / "g.npz", tmp_path / "g.csr")
        g2 = load_csr(tmp_path / "g.csr", provider="resident", validate=True)
        np.testing.assert_array_equal(np.asarray(g2.edges), tiny_graph.edges)


class TestNpz:
    def test_round_trip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(tiny_graph, path)
        g2 = load_npz(path)
        assert g2.n_vertices == tiny_graph.n_vertices
        np.testing.assert_array_equal(g2.edges, tiny_graph.edges)

    def test_empty_graph_round_trip(self, tmp_path):
        g = Graph(4, np.zeros((0, 2), dtype=np.int64))
        path = tmp_path / "e.npz"
        save_npz(g, path)
        g2 = load_npz(path)
        assert g2.n_edges == 0 and g2.n_vertices == 4
