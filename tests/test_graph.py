"""Graph data-structure tests, including hypothesis round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph, edge_keys
from repro.graph.io import load_csr, save_csr
from tests.oracles import edge_key, has_edge


def random_edge_set(n, m, seed):
    rng = np.random.default_rng(seed)
    seen = set()
    edges = []
    while len(edges) < m:
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        k = edge_key(int(a), int(b), n)
        if k in seen:
            continue
        seen.add(k)
        edges.append((min(a, b), max(a, b)))
    return np.array(edges, dtype=np.int64)


class TestConstruction:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[1, 1]]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[0, 1], [1, 0]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[0, 3]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[0, 1, 2]]))

    def test_empty_graph(self):
        g = Graph(5, np.zeros((0, 2), dtype=np.int64))
        assert g.n_edges == 0
        assert g.degree(0) == 0
        assert not has_edge(g, 0, 1)

    def test_canonicalizes_direction(self):
        g = Graph(4, np.array([[3, 1]]))
        assert has_edge(g, 1, 3) and has_edge(g, 3, 1)
        np.testing.assert_array_equal(g.edges, [[1, 3]])


class TestQueries:
    def test_tiny_graph_structure(self, tiny_graph):
        g = tiny_graph
        assert g.n_edges == 7
        assert g.degree(2) == 3
        np.testing.assert_array_equal(g.neighbors(2), [0, 1, 3])
        assert has_edge(g, 2, 3)
        assert not has_edge(g, 0, 5)

    def test_has_edges_vectorized(self, tiny_graph):
        pairs = np.array([[0, 1], [1, 0], [0, 5], [2, 2], [3, 4]])
        got = tiny_graph.has_edges(pairs)
        np.testing.assert_array_equal(got, [True, True, False, False, True])

    def test_degrees_sum_to_twice_edges(self, tiny_graph):
        assert tiny_graph.degrees.sum() == 2 * tiny_graph.n_edges

    def test_adjacency_slice_matches_neighbors(self, tiny_graph):
        vs = np.array([2, 5, 0])
        indptr, indices = tiny_graph.adjacency_slice(vs)
        for i, v in enumerate(vs):
            np.testing.assert_array_equal(
                indices[indptr[i] : indptr[i + 1]], tiny_graph.neighbors(int(v))
            )


class TestEdgeKeys:
    def test_scalar_symmetric(self):
        assert edge_key(2, 7, 10) == edge_key(7, 2, 10)
        assert edge_keys(np.array([[2, 7], [7, 2]]), 10).tolist() == [edge_key(2, 7, 10)] * 2

    def test_scalar_self_loop_raises(self):
        with pytest.raises(ValueError):
            edge_key(3, 3, 10)

    def test_vectorized_matches_scalar(self):
        pairs = np.array([[1, 2], [5, 0], [3, 9]])
        keys = edge_keys(pairs, 10)
        expected = [edge_key(a, b, 10) for a, b in pairs]
        np.testing.assert_array_equal(keys, expected)

    @given(
        n=st.integers(min_value=2, max_value=1000),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_keys_injective(self, n, data):
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != a))
        c = data.draw(st.integers(min_value=0, max_value=n - 1))
        d = data.draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != c))
        same_pair = {a, b} == {c, d}
        assert (edge_key(a, b, n) == edge_key(c, d, n)) == same_pair


class TestSubgraph:
    def test_remove_edges(self, tiny_graph):
        k = edge_keys(np.array([[2, 3]]), tiny_graph.n_vertices)
        g2 = tiny_graph.subgraph(remove_keys=k)
        assert g2.n_edges == tiny_graph.n_edges - 1
        assert not has_edge(g2, 2, 3)
        assert has_edge(g2, 0, 1)

    def test_remove_nothing(self, tiny_graph):
        g2 = tiny_graph.subgraph(remove_keys=np.zeros(0, dtype=np.int64))
        assert g2.n_edges == tiny_graph.n_edges


def _assert_same_arrays(got, want):
    """Array-for-array equality of two graphs, dtypes included."""
    assert (got.n_vertices, got.n_edges) == (want.n_vertices, want.n_edges)
    for name in ("edges", "keys", "_csr_indptr", "_csr_indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _all_pairs(n):
    return np.column_stack(np.triu_indices(n, 1)).astype(np.int64)


def _base_and_delta(rng, n_base, grow, base_frac, new_frac):
    """A base graph on ``n_base`` vertices and novel pairs over ``n_base +
    grow`` (base-base, base-new and new-new), unsorted, randomly reversed."""
    n = n_base + grow
    old = _all_pairs(n_base)
    base = old[rng.random(len(old)) < base_frac]
    taken = set(edge_keys(base, n).tolist())
    free = np.array(
        [p for p in _all_pairs(n) if edge_key(*p, n) not in taken], dtype=np.int64
    ).reshape(-1, 2)
    new = rng.permutation(free[rng.random(len(free)) < new_frac])
    flip = rng.random(len(new)) < 0.5
    new[flip] = new[flip][:, ::-1]
    return Graph(n_base, base), new, n


def _mapped(graph, path):
    save_csr(graph, path)
    mapped = load_csr(path)
    assert not mapped.keys.flags.writeable
    return mapped


class TestWithEdges:
    """``g.with_edges(p, n)`` is ``Graph(n, concat(g.edges, p))``, array for array."""

    @given(
        n_base=st.integers(min_value=1, max_value=14),
        grow=st.integers(min_value=0, max_value=4),
        base_frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        new_frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_rebuild(self, n_base, grow, base_frac, new_frac, seed):
        g, new, n = _base_and_delta(
            np.random.default_rng(seed), n_base, grow, base_frac, new_frac
        )
        _assert_same_arrays(
            g.with_edges(new, n), Graph(n, np.concatenate([g.edges, new]))
        )

    def test_default_keeps_the_vertex_count(self, tiny_graph):
        got = tiny_graph.with_edges(np.array([[5, 0]]))
        want = Graph(6, np.concatenate([tiny_graph.edges, [[0, 5]]]))
        _assert_same_arrays(got, want)

    def test_hub_row(self):
        # every other spoke first, then the rest: all land in row 0
        spokes = np.column_stack([np.zeros(40, dtype=np.int64), np.arange(1, 41)])
        g = Graph(41, spokes[::2])
        _assert_same_arrays(g.with_edges(spokes[1::2][::-1]), Graph(41, spokes))

    @pytest.mark.parametrize("seed", range(5))
    def test_read_only_mapped_base(self, seed, tmp_path):
        g, new, n = _base_and_delta(np.random.default_rng(seed), 12, 3, 0.3, 0.3)
        want = Graph(n, np.concatenate([g.edges, new]))
        _assert_same_arrays(_mapped(g, tmp_path / "g.csr").with_edges(new, n), want)

    @pytest.mark.parametrize(
        "pairs, n",
        [
            ([[1, 0]], 6),  # duplicate of a base edge, reversed
            ([[0, 5], [5, 0]], 6),  # duplicate within the new pairs
            ([[0, 5], [3, 3]], 6),  # self-loop
            ([[0, 6]], 6),  # endpoint out of range
            ([[0, -1]], 6),
        ],
    )
    def test_rejects_what_the_rebuild_rejects(self, tiny_graph, pairs, n):
        pairs = np.array(pairs)
        with pytest.raises(ValueError) as rebuilt:
            Graph(n, np.concatenate([tiny_graph.edges, pairs]))
        with pytest.raises(ValueError) as merged:
            tiny_graph.with_edges(pairs, n)
        assert str(merged.value) == str(rebuilt.value)

    def test_rejects_bad_shape_and_fewer_vertices(self, tiny_graph):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            tiny_graph.with_edges(np.array([[0, 1, 2]]))
        with pytest.raises(ValueError):
            Graph(5, np.concatenate([tiny_graph.edges, [[0, 4]]]))
        with pytest.raises(ValueError, match="shrink"):
            tiny_graph.with_edges(np.array([[0, 4]]), 5)


class TestSubgraphEqualsRebuild:
    """``g.subgraph(keys)`` is ``Graph(n, the other edges)``, array for array."""

    @staticmethod
    def _rebuild(g, keys):
        return Graph(g.n_vertices, g.edges[~np.isin(g.keys, keys)])

    @given(
        n=st.integers(min_value=1, max_value=16),
        frac=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
        drop=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_rebuild(self, n, frac, drop, seed):
        rng = np.random.default_rng(seed)
        pairs = _all_pairs(n)
        g = Graph(n, pairs[rng.random(len(pairs)) < frac])
        # any keys: of edges, of non-edges, repeated, unsorted
        keys = edge_keys(pairs, n)[rng.random(len(pairs)) < drop]
        keys = rng.permutation(np.concatenate([keys, keys[:3], [n * n + 7]]))
        _assert_same_arrays(g.subgraph(keys), self._rebuild(g, keys))

    def test_no_keys_and_keys_of_no_edge(self, tiny_graph):
        for keys in (np.zeros(0, dtype=np.int64), edge_keys(np.array([[0, 5]]), 6)):
            _assert_same_arrays(tiny_graph.subgraph(keys), tiny_graph)

    def test_every_edge_of_one_vertex(self, tiny_graph):
        keys = edge_keys(
            np.array([[2, int(b)] for b in tiny_graph.neighbors(2)]), 6
        )
        got = tiny_graph.subgraph(keys)
        assert got.degree(2) == 0
        _assert_same_arrays(got, self._rebuild(tiny_graph, keys))

    def test_read_only_mapped_base(self, tiny_graph, tmp_path):
        keys = tiny_graph.keys[::2]
        mapped = _mapped(tiny_graph, tmp_path / "g.csr")
        _assert_same_arrays(mapped.subgraph(keys), self._rebuild(tiny_graph, keys))


class TestFromCsr:
    def _parts(self, g):
        return dict(
            n_vertices=g.n_vertices,
            keys=g._keys,
            indptr=g._csr_indptr,
            indices=g._csr_indices,
        )

    def test_adopts_arrays_without_copying(self, tiny_graph):
        parts = self._parts(tiny_graph)
        g2 = Graph.from_csr(**parts)
        assert g2._csr_indptr is parts["indptr"]
        assert g2._csr_indices is parts["indices"]
        assert g2._keys is parts["keys"]
        np.testing.assert_array_equal(g2.edges, tiny_graph.edges)

    def test_queries_match_canonical_construction(self, tiny_graph):
        g2 = Graph.from_csr(**self._parts(tiny_graph))
        assert g2.n_edges == tiny_graph.n_edges
        np.testing.assert_array_equal(g2.degrees, tiny_graph.degrees)
        for v in range(tiny_graph.n_vertices):
            np.testing.assert_array_equal(
                g2.neighbors(v), tiny_graph.neighbors(v)
            )
        assert has_edge(g2, 0, 1) and not has_edge(g2, 0, 5)

    def test_validate_rejects_unsorted_keys(self, tiny_graph):
        parts = self._parts(tiny_graph)
        parts["keys"] = parts["keys"][::-1].copy()
        with pytest.raises(ValueError, match="increasing"):
            Graph.from_csr(**parts)

    def test_validate_rejects_bad_indptr(self, tiny_graph):
        parts = self._parts(tiny_graph)
        bad = parts["indptr"].copy()
        bad[-1] += 1
        parts["indptr"] = bad
        with pytest.raises(ValueError, match="indptr"):
            Graph.from_csr(**parts)

    def test_validate_rejects_out_of_range_keys(self, tiny_graph):
        parts = self._parts(tiny_graph)
        bad = parts["keys"].copy()
        bad[-1] = tiny_graph.n_vertices**2
        parts["keys"] = bad
        with pytest.raises(ValueError, match="key out of range"):
            Graph.from_csr(**parts)

    def test_validate_rejects_out_of_range_indices(self, tiny_graph):
        parts = self._parts(tiny_graph)
        bad = parts["indices"].copy()
        bad[0] = tiny_graph.n_vertices + 3
        parts["indices"] = bad
        with pytest.raises(ValueError, match="range"):
            Graph.from_csr(**parts)

    def test_validate_false_skips_checks(self, tiny_graph):
        parts = self._parts(tiny_graph)
        parts["keys"] = parts["keys"][::-1].copy()  # would fail validation
        g2 = Graph.from_csr(**{**parts, "validate": False})
        assert g2.n_edges == tiny_graph.n_edges


class TestNonlinkSampling:
    def test_samples_are_nonlinks(self, tiny_graph, rng):
        pairs = tiny_graph.sample_nonlink_pairs(5, rng)
        assert pairs.shape == (5, 2)
        assert not tiny_graph.has_edges(pairs).any()
        assert (pairs[:, 0] != pairs[:, 1]).all()

    def test_no_duplicates_within_sample(self, rng):
        g = Graph(30, random_edge_set(30, 40, seed=3))
        pairs = g.sample_nonlink_pairs(50, rng)
        keys = edge_keys(pairs, 30)
        assert np.unique(keys).size == 50

    def test_respects_exclusions(self, tiny_graph, rng):
        exclude = edge_keys(np.array([[0, 3], [0, 4], [0, 5]]), tiny_graph.n_vertices)
        exclude = np.sort(exclude)
        for _ in range(10):
            pairs = tiny_graph.sample_nonlink_pairs(4, rng, exclude_keys=exclude)
            keys = edge_keys(pairs, tiny_graph.n_vertices)
            assert not np.isin(keys, exclude).any()

    def test_dense_graph_raises(self, rng):
        # complete graph on 4 vertices: no non-links exist
        edges = np.array([[a, b] for a in range(4) for b in range(a + 1, 4)])
        g = Graph(4, edges)
        with pytest.raises(RuntimeError):
            g.sample_nonlink_pairs(3, rng)

    def test_zero_requested(self, tiny_graph, rng):
        pairs = tiny_graph.sample_nonlink_pairs(0, rng)
        assert pairs.shape == (0, 2)


def _nonlink_pairs_scalar_loop(graph, m, rng, exclude_keys=None):
    """``Graph.sample_nonlink_pairs`` with its original per-pair seen-set
    dedup loop — the oracle the vectorised dedup must reproduce."""
    n = graph.n_vertices
    rows, seen = [], set()
    for _ in range(100):
        if len(rows) >= m:
            break
        need = (m - len(rows)) * 2 + 16
        a = rng.integers(0, n, size=need)
        b = rng.integers(0, n, size=need)
        cand = np.column_stack([np.minimum(a, b), np.maximum(a, b)])[a != b]
        keys = cand[:, 0] * np.int64(n) + cand[:, 1]
        keep = ~graph.has_edges(cand)
        if exclude_keys is not None:
            keep &= ~np.isin(keys, exclude_keys)
        for row, k in zip(cand[keep], keys[keep]):
            if int(k) not in seen:
                seen.add(int(k))
                rows.append(row)
                if len(rows) >= m:
                    break
    return np.array(rows[:m], dtype=np.int64).reshape(m, 2)


class TestNonlinkDedupMatchesScalarLoop:
    # 12 vertices / 30 links leaves 36 non-links: asking for most of them
    # forces duplicate candidates within a round and several rounds.
    @pytest.mark.parametrize("m", [0, 1, 7, 25, 34])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_picks_and_same_rng_stream(self, m, seed):
        g = Graph(12, random_edge_set(12, 30, seed=5))
        exclude = np.sort(edge_keys(g.sample_nonlink_pairs(2, np.random.default_rng(9)), 12))
        for exclude_keys in (None, exclude):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = g.sample_nonlink_pairs(m, got_rng, exclude_keys=exclude_keys)
            want = _nonlink_pairs_scalar_loop(g, m, want_rng, exclude_keys)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)

    def test_sparse_graph_single_round(self, ammsb_graph):
        g, _ = ammsb_graph
        got = g.sample_nonlink_pairs(500, np.random.default_rng(4))
        want = _nonlink_pairs_scalar_loop(g, 500, np.random.default_rng(4))
        np.testing.assert_array_equal(got, want)


@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31),
    frac=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_membership_consistency_property(n, seed, frac):
    """has_edges agrees with has_edge and with the CSR neighbor lists."""
    max_edges = n * (n - 1) // 2
    m = min(int(frac * max_edges), max_edges)
    edges = random_edge_set(n, m, seed) if m else np.zeros((0, 2), dtype=np.int64)
    g = Graph(n, edges)
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(50, 2))
    vec = g.has_edges(pairs)
    for (a, b), got in zip(pairs, vec):
        assert got == has_edge(g, int(a), int(b))
        if a != b:
            assert got == (b in g.neighbors(int(a)))
