"""Query engine: agreement with the reference scoring path.

``QueryEngine.link_probability`` must agree **bit-for-bit** with the
plain-numpy reference path (:func:`repro.core.perplexity.link_probability`
over gathered pi rows) in float64, for both kernel backends — the serving
layer adds batching and caching, never numerics. float32 artifacts served
by the fused backend stay in float32 (tolerance vs the upcasting
reference).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AMMSBConfig
from repro.core.perplexity import link_probability
from repro.core.state import init_state
from repro.serve.artifact import build_artifact
from repro.serve.engine import QueryEngine


def _artifact(n, k, seed, dtype="float64", node_ids=None):
    cfg = AMMSBConfig(n_communities=k, seed=seed, dtype=dtype)
    state = init_state(n, cfg, np.random.default_rng(seed))
    return build_artifact(state, cfg, node_ids=node_ids)


class TestLinkProbabilityAgreement:
    @given(
        n=st.integers(min_value=2, max_value=60),
        k=st.integers(min_value=1, max_value=32),
        batch=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=10_000),
        backend=st.sampled_from(["reference", "fused"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_for_bit_float64(self, n, k, batch, seed, backend):
        art = _artifact(n, k, seed)
        rng = np.random.default_rng(seed + 1)
        pairs = rng.integers(0, n, size=(batch, 2))
        engine = QueryEngine(art, backend=backend)
        got = engine.link_probability(pairs)
        expect = link_probability(
            art.pi[pairs[:, 0]], art.pi[pairs[:, 1]], art.beta, art.config.delta
        )
        np.testing.assert_array_equal(got, expect)
        assert got.dtype == np.float64

    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        batch=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=20, deadline=None)
    def test_float32_artifact_close_to_reference(self, seed, batch):
        art = _artifact(40, 8, seed, dtype="float32")
        rng = np.random.default_rng(seed + 1)
        pairs = rng.integers(0, 40, size=(batch, 2))
        got = QueryEngine(art, backend="fused").link_probability(pairs)
        expect = link_probability(
            art.pi[pairs[:, 0]], art.pi[pairs[:, 1]], art.beta, art.config.delta
        )
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, expect, rtol=2e-4, atol=2e-6)

    def test_result_detached_from_workspace(self):
        art = _artifact(20, 4, 0)
        engine = QueryEngine(art, backend="fused")
        first = engine.link_probability(np.array([[0, 1], [2, 3]]))
        snapshot = first.copy()
        engine.link_probability(np.array([[4, 5], [6, 7]]))  # reuses workspace
        np.testing.assert_array_equal(first, snapshot)

    def test_bad_shape_rejected(self):
        engine = QueryEngine(_artifact(10, 4, 0))
        with pytest.raises(ValueError, match=r"\(B, 2\)"):
            engine.link_probability(np.array([0, 1, 2]))


class TestMembership:
    def test_matches_sorted_row(self):
        art = _artifact(30, 8, 5)
        engine = QueryEngine(art)
        for node in (0, 13, 29):
            got = engine.membership(node, k=4)
            order = np.argsort(-art.pi[node], kind="stable")[:4]
            assert [c for c, _ in got] == [int(c) for c in order]
            np.testing.assert_allclose(
                [w for _, w in got], art.pi[node, order], rtol=1e-12
            )

    def test_beyond_precomputed_falls_back(self):
        art = _artifact(20, 16, 2)  # top_k default 8 < K=16
        engine = QueryEngine(art)
        got = engine.membership(3, k=12)
        assert len(got) == 12
        order = np.argsort(-art.pi[3], kind="stable")[:12]
        assert [c for c, _ in got] == [int(c) for c in order]

    def test_k_clamped_and_validated(self):
        engine = QueryEngine(_artifact(10, 4, 0))
        assert len(engine.membership(0, k=99)) == 4
        with pytest.raises(ValueError):
            engine.membership(0, k=0)


class TestCommunityMembers:
    def test_strongest_members_sorted(self):
        art = _artifact(40, 4, 9)
        got = QueryEngine(art).community_members(2, top_n=5)
        col = art.pi[:, 2]
        order = np.argsort(-col, kind="stable")[:5]
        assert [nid for nid, _ in got] == [int(i) for i in order]
        assert all(a >= b for (_, a), (_, b) in zip(got, got[1:]))

    def test_out_of_range_community(self):
        engine = QueryEngine(_artifact(10, 4, 0))
        with pytest.raises(ValueError, match="out of range"):
            engine.community_members(4)


class TestRecommendEdges:
    def test_matches_pairwise_scores(self):
        art = _artifact(30, 6, 11)
        engine = QueryEngine(art)
        node = 7
        got = engine.recommend_edges(node, top_n=5)
        others = np.array([v for v in range(30) if v != node])
        pairs = np.column_stack([np.full_like(others, node), others])
        p = engine.link_probability(pairs)
        order = others[np.argsort(-p, kind="stable")[:5]]
        assert [nid for nid, _ in got] == [int(v) for v in order]
        # scores are the real pairwise probabilities, bit-for-bit
        score_of = dict(zip(others.tolist(), p.tolist()))
        for nid, score in got:
            assert score == score_of[nid]

    def test_excludes_self_and_given(self):
        art = _artifact(15, 4, 3)
        engine = QueryEngine(art)
        exclude = np.array([1, 2, 3])
        got = engine.recommend_edges(0, top_n=14, exclude=exclude)
        ids = {nid for nid, _ in got}
        assert 0 not in ids and ids.isdisjoint(set(exclude.tolist()))

    def test_external_node_ids(self):
        ids = np.arange(12, dtype=np.int64) + 100
        art = _artifact(12, 4, 6, node_ids=ids)
        engine = QueryEngine(art)
        got = engine.recommend_edges(105, top_n=3)
        assert all(100 <= nid < 112 and nid != 105 for nid, _ in got)


class TestRecommendEdgesBatch:
    """Server-side coalescing: one exact-kernel call per batch of queries."""

    def test_batch_equals_individual_calls(self):
        art = _artifact(25, 5, 13)
        engine = QueryEngine(art)
        queries = [(3, 4, None), (9, 7, np.array([0, 1])), (3, 4, None)]
        batched = engine.recommend_edges_batch(queries)
        for (node, top_n, exclude), got in zip(queries, batched):
            assert got == engine.recommend_edges(node, top_n, exclude=exclude)

    def test_single_kernel_call_per_batch(self):
        """The exact kernel runs once per batch, on the survivors only:
        with distinct scores that is exactly sum(top_n) pairs."""
        art = _artifact(20, 4, 1)
        engine = QueryEngine(art)
        calls = []
        original = engine.kernels.link_probability

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        engine.kernels = type(engine.kernels)(
            engine.kernels.name,
            phi_gradient_sum=engine.kernels.phi_gradient_sum,
            update_phi=engine.kernels.update_phi,
            theta_gradient_weighted=engine.kernels.theta_gradient_weighted,
            update_theta=engine.kernels.update_theta,
            link_probability=counting,
        )
        reported = []
        engine.on_recommend = lambda *counts: reported.append(counts)
        engine.recommend_edges_batch([(0, 3, None), (5, 3, None), (7, 2, None)])
        assert calls == [3 + 3 + 2]
        assert reported == [(3 * (art.n_nodes - 1), 8, 8)]

    def test_per_slot_fault_isolation(self):
        art = _artifact(15, 4, 3)
        engine = QueryEngine(art)
        out = engine.recommend_edges_batch(
            [(2, 3, None), (9999, 3, None), (4, 0, None), (5, 3, None)]
        )
        assert out[0] == engine.recommend_edges(2, 3)
        assert isinstance(out[1], Exception)  # unknown node
        assert isinstance(out[2], ValueError)  # top_n < 1
        assert out[3] == engine.recommend_edges(5, 3)

    def test_bad_exclude_fails_alone(self):
        engine = QueryEngine(_artifact(15, 4, 3))
        out = engine.recommend_edges_batch([(2, 3, np.array([1, 9999])), (5, 3, None)])
        assert isinstance(out[0], KeyError)
        assert out[1] == engine.recommend_edges(5, 3)

    def test_all_nodes_excluded_gives_empty(self):
        art = _artifact(6, 3, 4)
        engine = QueryEngine(art)
        out = engine.recommend_edges_batch(
            [(0, 5, np.arange(1, 6))]  # every other node excluded
        )
        assert out == [[]]
