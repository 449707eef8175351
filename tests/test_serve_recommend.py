"""Recommend by filter and refine: exactness as a property, and memory.

``QueryEngine.recommend_edges`` filters candidates with one approximate
product over ``pi`` and scores only the survivors with the exact kernel.
The contract is that nobody can tell: ids *and* scores equal a brute-force
oracle — pairwise ``engine.link_probability`` over every candidate, sorted
by (score descending, row ascending) — bit for bit, on every dtype and
backend, however many row blocks the filter takes and however many scores
tie.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AMMSBConfig
from repro.core.state import ModelState
from repro.serve import engine as engine_module
from repro.serve.artifact import build_artifact, load_artifact, save_artifact
from repro.serve.engine import QueryEngine, _filter_weights

BACKENDS = ["reference", "fused"]
SHAPES = ["random", "duplicated", "permuted", "one_hot", "uniform"]


def _pi(shape: str, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Membership rows, most of them built to make scores tie or nearly tie."""
    pi = rng.dirichlet(np.full(k, 0.3), size=n)
    half = n // 2
    if shape == "duplicated":  # exact ties, pairwise
        pi[half : 2 * half] = pi[:half]
    elif shape == "permuted":  # same entries, other communities: near ties
        pi[half : 2 * half] = pi[:half, rng.permutation(k)]
    elif shape == "one_hot":  # scores take at most K + 1 values
        pi = np.eye(k)[rng.integers(0, k, size=n)]
    elif shape == "uniform":  # an untrained model: every score ties
        pi = np.full((n, k), 1.0 / k)
    return pi


def _artifact(pi, dtype="float64", seed=0, node_ids=None):
    k = pi.shape[1]
    cfg = AMMSBConfig(n_communities=k, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    state = ModelState(
        pi=pi.astype(dtype), phi_sum=np.ones(len(pi)), theta=rng.gamma(2.0, 1.0, (k, 2)) + 0.1
    )
    return build_artifact(state, cfg, node_ids=node_ids)


def _oracle(engine, node, top_n, exclude=None):
    """Score every candidate pairwise, sort by (-score, row), cut at top_n."""
    art = engine.artifact
    hidden = {art.row_of(node)}
    if exclude is not None:
        hidden |= {art.row_of(v) for v in exclude}
    rows = np.array([r for r in range(art.n_nodes) if r not in hidden], dtype=np.int64)
    if rows.size == 0:
        return []
    pairs = np.column_stack([np.full(rows.size, node), art.node_ids[rows]])
    p = engine.link_probability(pairs)
    order = np.lexsort((rows, -p))[:top_n]
    return [(int(art.node_ids[rows[j]]), float(p[j])) for j in order]


@contextmanager
def _block_rows(rows: int):
    """Force the filter through many (or one) row blocks."""
    saved = engine_module._FILTER_BLOCK_ROWS
    engine_module._FILTER_BLOCK_ROWS = rows
    try:
        yield
    finally:
        engine_module._FILTER_BLOCK_ROWS = saved


class TestEqualsOracle:
    @given(
        shape=st.sampled_from(SHAPES),
        n=st.integers(min_value=2, max_value=48),
        k=st.integers(min_value=1, max_value=12),
        dtype=st.sampled_from(["float64", "float32"]),
        backend=st.sampled_from(BACKENDS),
        block=st.sampled_from([1, 3, 7, 8192]),
        external_ids=st.booleans(),
        with_exclude=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_ids_and_scores_bit_for_bit(
        self, shape, n, k, dtype, backend, block, external_ids, with_exclude, seed
    ):
        rng = np.random.default_rng(seed)
        node_ids = rng.permutation(n).astype(np.int64) * 3 + 100 if external_ids else None
        art = _artifact(_pi(shape, n, k, rng), dtype, seed, node_ids)
        engine = QueryEngine(art, backend=backend)
        node = int(art.node_ids[rng.integers(0, n)])
        exclude = None
        if with_exclude:
            exclude = rng.choice(art.node_ids, size=rng.integers(1, n + 1), replace=False)
        top_n = int(rng.integers(1, n + 3))
        with _block_rows(block):
            got = engine.recommend_edges(node, top_n, exclude=exclude)
        assert got == _oracle(engine, node, top_n, exclude)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_uniform_pi_every_candidate_survives(self, dtype):
        """All scores tie: the refine degrades to scoring everything, the
        answer is still the oracle's (lowest rows first)."""
        art = _artifact(_pi("uniform", 40, 4, np.random.default_rng(0)), dtype)
        engine = QueryEngine(art)
        reported = []
        engine.on_recommend = lambda *counts: reported.append(counts)
        with _block_rows(16):
            got = engine.recommend_edges(5, 3)
        assert got == _oracle(engine, 5, 3)
        assert [nid for nid, _ in got] == [0, 1, 2]
        assert reported == [(39, 39, 3)]

    def test_two_nodes_and_everything_excluded(self):
        art = _artifact(_pi("random", 2, 1, np.random.default_rng(1)))
        engine = QueryEngine(art)
        assert engine.recommend_edges(0, 4) == _oracle(engine, 0, 4)
        assert len(engine.recommend_edges(0, 4)) == 1
        assert engine.recommend_edges_batch([(0, 4, np.array([1]))]) == [[]]

    @pytest.mark.parametrize("shape", ["random", "duplicated"])
    def test_mmap_container_read_only_arrays(self, shape, tmp_path):
        rng = np.random.default_rng(7)
        path = save_artifact(tmp_path / "model", _artifact(_pi(shape, 60, 6, rng)))
        art = load_artifact(path, provider="mmap")
        assert not art.pi.flags.writeable
        engine = QueryEngine(art)
        with _block_rows(16):
            for node in (0, 31, 59):
                exclude = rng.choice(60, size=5, replace=False)
                got = engine.recommend_edges(node, 7, exclude=exclude)
                assert got == _oracle(engine, node, 7, exclude)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_answer_does_not_depend_on_block_count(self, backend):
        rng = np.random.default_rng(11)
        art = _artifact(_pi("duplicated", 70, 5, rng))
        engine = QueryEngine(art, backend=backend)
        queries = [(3, 9, None), (41, 80, np.array([0, 1, 2])), (69, 1, None)]
        with _block_rows(10_000):
            whole = engine.recommend_edges_batch(queries)
        for block in (1, 17, 64):
            with _block_rows(block):
                assert engine.recommend_edges_batch(queries) == whole


class TestFilterBound:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_approximate_within_half_tau_of_exact(self, dtype, backend):
        """The survivor rule is only as good as ``tau``: on 10^4 random
        (row, candidate) pairs the filter's score stays within tau / 2 of
        the exact kernel's."""
        rng = np.random.default_rng(5)
        n, k = 2_000, 32
        art = _artifact(rng.dirichlet(np.full(k, 0.1), size=n), dtype)
        engine = QueryEngine(art, backend=backend)
        src = rng.integers(0, n, size=100)
        dst = rng.integers(0, n, size=(100, 100))
        v, delta, tau = _filter_weights(art, list(src))
        floor = engine_module._PROB_FLOOR
        worst = 0.0
        for q, row in enumerate(src):
            approx = np.clip(art.pi[dst[q]] @ v[:, q] + delta, floor, 1.0 - floor)
            assert approx.dtype == art.pi.dtype
            exact = engine.link_probability(np.column_stack([np.full(100, row), dst[q]]))
            worst = max(worst, float(np.abs(approx.astype(np.float64) - exact).max()))
        assert worst <= float(tau) / 2


class TestMemory:
    def test_workspace_is_block_sized_not_model_sized(self):
        n, k = 20_000, 16
        rng = np.random.default_rng(2)
        art = _artifact(rng.dirichlet(np.full(k, 0.2), size=n))
        engine = QueryEngine(art, backend="fused")
        engine.recommend_edges_batch([(1, 10, None), (2, 10, None)])
        block_bytes = engine_module._FILTER_BLOCK_ROWS * k * art.pi.itemsize
        assert engine.workspace.nbytes < 2 * block_bytes
        assert engine.workspace.nbytes < art.pi.nbytes / 2

    def test_mmap_recommend_allocates_no_model_sized_array(self, tmp_path):
        n, k = 20_000, 16
        rng = np.random.default_rng(3)
        path = save_artifact(tmp_path / "model", _artifact(rng.dirichlet(np.full(k, 0.2), size=n)))
        art = load_artifact(path, provider="mmap")
        engine = QueryEngine(art, backend="fused")
        engine.recommend_edges(0, 10)  # row index, workspace: one-time costs
        tracemalloc.start()
        try:
            got = engine.recommend_edges(7, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 10
        assert peak < art.pi.nbytes / 4
