"""The mini-batch-local row lookup and the one shared neighbor sampler.

``Graph.links_from`` / ``rows_contain`` must agree with the global
``Graph.has_edges`` on every pair, and ``sample_neighbor_sets`` must
reproduce, bit for bit, what the three per-engine copies it replaced
computed — whichever source the rows come from.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AMMSBConfig
from repro.core.minibatch import (
    NEIGHBORS,
    ROW_BLOCK,
    MinibatchSampler,
    NeighborSample,
    block_rng,
    draw_key,
    heldout_rows,
    n_blocks,
    sample_neighbor_sets,
)
from repro.graph.graph import Graph, edge_keys, in_sorted, rows_contain
from repro.graph.io import load_csr, save_csr
from tests.oracles import has_edge


def _has_edges_matrix(graph: Graph, vertices: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    pairs = np.column_stack([np.repeat(vertices, candidates.shape[1]), candidates.reshape(-1)])
    return graph.has_edges(pairs).reshape(candidates.shape)


@st.composite
def lookups(draw):
    """A random graph plus a (vertices, candidates) query against it."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["empty", "sparse", "hub", "dense"]))
    if shape == "empty" or n < 2:
        edges = np.zeros((0, 2), dtype=np.int64)
    elif shape == "hub":  # vertex 0 linked to every other one, plus a few more
        edges = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
        extra = rng.integers(1, n, size=(n, 2))
        edges = np.vstack([edges, extra[extra[:, 0] != extra[:, 1]]])
    else:  # sparse leaves isolated vertices, dense has few non-links
        count = n // 2 if shape == "sparse" else n * n
        edges = rng.integers(0, n, size=(count, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges):
        edges = np.unique(np.sort(edges, axis=1), axis=0)
    graph = Graph(n, edges)
    m = draw(st.integers(min_value=0, max_value=12))
    width = draw(st.integers(min_value=0, max_value=9))
    vertices = rng.integers(0, n, size=m)  # unsorted, repeats
    candidates = rng.integers(0, n, size=(m, width))
    if m and width:
        candidates[:, 0] = vertices  # a self candidate in every row
    if m and width > 1:
        candidates[:, -1] = candidates[:, 1]  # a duplicate candidate
    return graph, vertices, candidates


class TestRowLookupEqualsHasEdges:
    @given(lookups())
    @settings(max_examples=200, deadline=None)
    def test_links_from_matches_has_edges(self, case):
        graph, vertices, candidates = case
        got = graph.links_from(vertices, candidates)
        assert got.dtype == bool and got.shape == candidates.shape
        np.testing.assert_array_equal(got, _has_edges_matrix(graph, vertices, candidates))

    @given(lookups())
    @settings(max_examples=50, deadline=None)
    def test_slice_matches_has_edges(self, case):
        graph, vertices, candidates = case
        got = rows_contain(*graph.adjacency_slice(vertices), candidates)
        np.testing.assert_array_equal(got, _has_edges_matrix(graph, vertices, candidates))

    @given(lookups())
    @settings(max_examples=50, deadline=None)
    def test_adjacency_slice_matches_neighbors(self, case):
        graph, vertices, _ = case
        indptr, indices = graph.adjacency_slice(vertices)
        assert indptr.shape == (len(vertices) + 1,) and indptr[0] == 0
        for i, v in enumerate(vertices):
            np.testing.assert_array_equal(indices[indptr[i] : indptr[i + 1]], graph.neighbors(v))

    def test_read_only_mapped_graph(self, ammsb_graph, tmp_path, rng):
        graph, _ = ammsb_graph
        mapped = load_csr(save_csr(graph, tmp_path / "g_csr"), provider="mmap")
        assert not mapped._csr_indices.flags.writeable
        vertices = rng.integers(0, graph.n_vertices, size=50)
        candidates = rng.integers(0, graph.n_vertices, size=(50, 20))
        for row, v in zip(candidates, vertices):  # make sure some pairs are links
            row[: min(3, graph.degree(v))] = graph.neighbors(v)[:3]
        got = mapped.links_from(vertices, candidates)
        assert got.any()
        np.testing.assert_array_equal(got, _has_edges_matrix(graph, vertices, candidates))

    def test_row_count_mismatch_rejected(self, tiny_graph):
        indptr, indices = tiny_graph.adjacency_slice([0, 1])
        with pytest.raises(ValueError, match="row count"):
            rows_contain(indptr, indices, np.zeros((3, 2), dtype=np.int64))


def _sorted_key_answer(indptr, indices, candidates) -> np.ndarray:
    """``rows_contain`` without its filter: every candidate searched."""
    stride = max(int(indices.max(initial=0)), int(candidates.max(initial=0))) + 1
    offsets = np.arange(candidates.shape[0], dtype=np.int64) * stride
    keys = np.repeat(offsets, np.diff(indptr)) + indices
    return in_sorted(keys, offsets[:, None] + candidates)


@st.composite
def csr_queries(draw):
    """Sorted CSR rows over ids below n (paper-scale n included) and a
    candidate matrix mixing each row's own entries, other rows' entries,
    ids that share an entry's low bits, the largest id and random ids."""
    n = draw(st.sampled_from([1, 2, 9, 1000, 65_000_000]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=0, max_value=12))
    width = draw(st.integers(min_value=0, max_value=10))
    rows = [np.unique(rng.integers(0, n, size=rng.integers(0, 20))) for _ in range(m)]
    if m > 1:
        rows[-1] = rows[0]  # a repeated vertex: the same row twice
    if m and n > 1:
        rows[m // 2] = np.union1d(rows[m // 2], [n - 1])  # the largest id
    indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])]).astype(np.int64)
    indices = np.concatenate(rows + [np.zeros(0, dtype=np.int64)]).astype(np.int64)
    candidates = rng.integers(0, n, size=(m, width))
    pool = indices if indices.size else np.zeros(1, dtype=np.int64)
    kind = rng.integers(0, 5, size=(m, width))
    for i, row in enumerate(rows):
        own = row[rng.integers(0, row.size, size=width)] if row.size else candidates[i]
        candidates[i] = np.where(kind[i] == 0, own, candidates[i])
    candidates = np.where(kind == 1, pool[rng.integers(0, pool.size, size=(m, width))], candidates)
    shifted = pool[rng.integers(0, pool.size, size=(m, width))] + (1 << 20)  # same low bits
    candidates = np.where((kind == 2) & (shifted < n), shifted, candidates)
    candidates = np.where(kind == 3, n - 1, candidates)
    return indptr, indices, candidates


class TestTheFilterIsExact:
    """The scratch mask only decides which candidates are searched: the
    answer equals searching every candidate."""

    @given(csr_queries())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_sorted_key_answer(self, case):
        indptr, indices, candidates = case
        got = rows_contain(indptr, indices, candidates)
        assert got.dtype == bool and got.shape == candidates.shape
        np.testing.assert_array_equal(got, _sorted_key_answer(indptr, indices, candidates))

    def test_on_the_heldout_graph(self, ammsb_graph):
        graph, _ = ammsb_graph
        split = MinibatchSampler(graph, AMMSBConfig(n_communities=6), heldout_keys=graph.keys[::7])
        heldout = split.heldout
        for t in range(50):
            rng = np.random.default_rng(t)
            vertices = np.unique(rng.integers(0, graph.n_vertices, size=64))
            candidates = rng.integers(0, graph.n_vertices, size=(vertices.size, 16))
            candidates[:, 0] = [  # a held-out partner where the row has one
                heldout.neighbors(v)[0] if heldout.degree(v) else v for v in vertices
            ]
            slice_ = heldout.adjacency_slice(vertices)
            got = heldout.links_from(vertices, candidates)
            np.testing.assert_array_equal(got, _sorted_key_answer(*slice_, candidates))
            np.testing.assert_array_equal(got, _has_edges_matrix(heldout, vertices, candidates))
            assert got[:, 0].sum() == sum(heldout.degree(v) > 0 for v in vertices)


def _parent_sample_neighbors(graph, heldout_keys, n_sample, vertices, key) -> NeighborSample:
    """``MinibatchSampler.sample_neighbors`` as it was before the row
    lookup, on the global ``has_edges`` — minus its degenerate-row
    fallback, which the callers below never reach — with the candidates
    of each 64-row block drawn from that block's keyed generator."""
    vertices = np.asarray(vertices, dtype=np.int64)
    m, n = vertices.size, graph.n_vertices
    neighbors = np.concatenate([
        block_rng(key, NEIGHBORS, b).integers(0, n, size=(min(m - start, ROW_BLOCK), n_sample))
        for b, start in enumerate(range(0, m, ROW_BLOCK))
    ])
    mask = neighbors != vertices[:, None]
    flat_pairs = np.column_stack([np.repeat(vertices, n_sample), neighbors.reshape(-1)])
    if len(heldout_keys):
        keys = edge_keys(flat_pairs, n)
        idx = np.minimum(np.searchsorted(heldout_keys, keys), len(heldout_keys) - 1)
        mask &= ~(heldout_keys[idx] == keys).reshape(m, n_sample)
    labels = graph.has_edges(flat_pairs).reshape(m, n_sample) & mask
    assert mask.any(axis=1).all(), "reference does not cover degenerate rows"
    return NeighborSample(neighbors=neighbors, labels=labels, mask=mask)


class TestSharedSamplerMatchesParent:
    N_SAMPLE = 24

    @pytest.fixture(scope="class")
    def mapped_train(self, split, tmp_path_factory):
        path = save_csr(split.train, tmp_path_factory.mktemp("rows") / "train_csr")
        return load_csr(path, provider="mmap")

    @pytest.mark.parametrize("with_heldout", [False, True])
    @pytest.mark.parametrize("source", ["graph", "slice", "graph_path"])
    def test_bit_equal_neighbors_labels_mask(self, split, mapped_train, source, with_heldout):
        train = split.train
        n = train.n_vertices
        keys = np.sort(edge_keys(split.heldout_pairs, n)) if with_heldout else np.zeros(0, np.int64)
        heldout = heldout_rows(keys, n)
        assert (heldout is not None) == with_heldout
        draw = np.random.default_rng(3)
        masked = 0
        for seed in range(20):
            vertices = np.unique(draw.integers(0, n, size=120))  # two row blocks
            links_against = {
                "graph": partial(train.links_from, vertices),
                "slice": partial(rows_contain, *train.adjacency_slice(vertices)),
                "graph_path": partial(mapped_train.links_from, vertices),
            }[source]
            got = sample_neighbor_sets(
                vertices, seed, range(n_blocks(vertices.size, ROW_BLOCK)), n,
                self.N_SAMPLE, links_against, heldout,
            )
            want = _parent_sample_neighbors(train, keys, self.N_SAMPLE, vertices, seed)
            np.testing.assert_array_equal(got.neighbors, want.neighbors)
            np.testing.assert_array_equal(got.labels, want.labels)
            np.testing.assert_array_equal(got.mask, want.mask)
            masked += int((~got.mask).sum() - (got.neighbors == vertices[:, None]).sum())
        assert (masked > 0) == with_heldout  # the held-out exclusion was exercised

    def test_minibatch_sampler_uses_it(self, split, config):
        hk = edge_keys(split.heldout_pairs, split.train.n_vertices)
        ms = MinibatchSampler(split.train, config, heldout_keys=hk)
        vertices = np.arange(0, 190, 2)  # two row blocks
        got = ms.sample_neighbors(vertices, np.random.default_rng(8))
        want = _parent_sample_neighbors(
            split.train, np.sort(hk), config.neighbor_sample_size, vertices,
            draw_key(np.random.default_rng(8)),
        )
        np.testing.assert_array_equal(got.neighbors, want.neighbors)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.mask, want.mask)

    def test_heldout_rows_tolerates_unsorted_duplicate_and_empty_keys(self):
        assert heldout_rows(None, 5) is None
        assert heldout_rows(np.zeros(0, dtype=np.int64), 5) is None
        held = heldout_rows(np.array([7, 1, 7]), 5)  # pairs (1,2) and (0,1)
        assert held.n_edges == 2 and has_edge(held, 2, 1) and has_edge(held, 0, 1)


class TestDegenerateRowFallback:
    """Rows whose every sampled neighbor is masked get ``(v+1) % N``."""

    def _path_sampler(self, heldout_keys=None):
        path = Graph(4, np.array([[0, 1], [1, 2], [2, 3]]))
        config = AMMSBConfig(n_communities=2, mini_batch_vertices=4, neighbor_sample_size=1)
        return path, MinibatchSampler(path, config, heldout_keys=heldout_keys)

    def test_replacement_gets_its_true_label(self):
        # Regression: the fallback used to force labels[row, 0] = False,
        # mislabelling the training link v -- v+1 on a path graph.
        path, ms = self._path_sampler()
        vertices = np.arange(4)
        rng = np.random.default_rng(0)
        replaced = 0
        for _ in range(2000):
            ns = ms.sample_neighbors(vertices, rng)
            assert ns.mask.all()
            np.testing.assert_array_equal(
                ns.labels[:, 0], _has_edges_matrix(path, vertices, ns.neighbors)[:, 0]
            )
            replaced += int((ns.neighbors[:, 0] == (vertices + 1) % 4).sum())
        assert replaced > 2000  # the self-draw rows did take the fallback

    def test_heldout_replacement_stays_masked(self):
        # (1, 2) held out of the training path 0-1, 2-3: when vertex 1
        # draws itself (or 2) its replacement is 2 — a held-out pair.
        train = Graph(4, np.array([[0, 1], [2, 3]]))
        config = AMMSBConfig(n_communities=2, mini_batch_vertices=4, neighbor_sample_size=1)
        ms = MinibatchSampler(train, config, heldout_keys=edge_keys(np.array([[1, 2]]), 4))
        rng = np.random.default_rng(1)
        vertices = np.arange(4)
        leaked = dead = 0
        for _ in range(500):
            ns = ms.sample_neighbors(vertices, rng)
            held = (np.minimum(vertices, ns.neighbors[:, 0]) == 1) & (
                np.maximum(vertices, ns.neighbors[:, 0]) == 2
            )
            leaked += int((ns.mask[:, 0] & held).sum())
            dead += int((~ns.mask[:, 0]).sum())
            assert not (ns.labels & ~ns.mask).any()
        assert leaked == 0 and dead > 0

    def test_single_vertex_graph_row_stays_masked(self):
        vertices = np.array([0])
        lonely = Graph(1, np.zeros((0, 2)))
        ns = sample_neighbor_sets(
            vertices, 0, [0], 1, 3, partial(lonely.links_from, vertices), None
        )
        assert not ns.mask.any() and not ns.labels.any()
