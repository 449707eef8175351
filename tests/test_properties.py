"""Cross-module property-based tests (hypothesis).

These encode the invariants the system's correctness argument rests on,
checked over randomized inputs rather than fixed examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AMMSBConfig
from repro.core import gradients
from repro.core.perplexity import PerplexityEstimator, pair_probabilities, perplexity
from repro.core.sampler import AMMSBSampler
from repro.graph.generators import planted_overlapping_graph
from repro.graph.graph import Graph
from tests.oracles import uncontended_transfer_time


class TestSamplerInvariantsProperty:
    @given(
        k=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=4, max_value=64),
        nss=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_state_valid_after_iterations(self, k, m, nss, seed):
        """For arbitrary configurations, a few iterations never break the
        simplex/positivity invariants."""
        rng = np.random.default_rng(99)
        graph, _ = planted_overlapping_graph(80, 3, 1, p_in=0.3, p_out=0.01, rng=rng)
        cfg = AMMSBConfig(
            n_communities=k, mini_batch_vertices=m, neighbor_sample_size=nss, seed=seed
        )
        s = AMMSBSampler(graph, cfg)
        s.run(3)
        s.state.validate()
        assert ((s.state.beta > 0) & (s.state.beta < 1)).all()

    @given(strategy=st.sampled_from(["stratified-random-node", "random-pair", "full-batch"]))
    @settings(max_examples=6, deadline=None)
    def test_all_strategies_run(self, strategy):
        rng = np.random.default_rng(5)
        graph, _ = planted_overlapping_graph(60, 3, 1, p_in=0.3, p_out=0.01, rng=rng)
        cfg = AMMSBConfig(n_communities=3, mini_batch_vertices=16, strategy=strategy)
        s = AMMSBSampler(graph, cfg)
        s.run(3)
        s.state.validate()


class TestKernelProperties:
    @given(
        m=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=1, max_value=10),
        eps=st.floats(min_value=1e-6, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_update_phi_always_positive_bounded(self, m, k, eps, seed):
        rng = np.random.default_rng(seed)
        phi = rng.gamma(0.5, 2.0, size=(m, k)) + 1e-9
        grad = rng.standard_normal((m, k)) * rng.uniform(0, 1e4)
        noise = rng.standard_normal((m, k)) * 3
        out = gradients.update_phi(phi, grad, eps, 0.1, 50.0, noise, phi_clip=1e5)
        assert (out > 0).all()
        assert (out <= 1e5).all()
        assert np.isfinite(out).all()

    @given(
        k=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_theta_gradient_symmetric_in_endpoints(self, k, seed):
        """g_ab(theta) == g_ba(theta): the pair is unordered."""
        rng = np.random.default_rng(seed)
        pi_a = rng.dirichlet(np.ones(k))
        pi_b = rng.dirichlet(np.ones(k))
        theta = rng.gamma(2.0, 1.0, size=(k, 2)) + 0.5
        for y in (0, 1):
            g_ab = gradients.theta_gradient_sum(
                pi_a[None], pi_b[None], np.array([y]), theta, 1e-3
            )
            g_ba = gradients.theta_gradient_sum(
                pi_b[None], pi_a[None], np.array([y]), theta, 1e-3
            )
            np.testing.assert_allclose(g_ab, g_ba, rtol=1e-10)

    @given(
        k=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_likelihood_gradient_pushes_toward_data(self, k, seed):
        """For a linked pair, increasing beta_k of the shared community
        must have positive gradient when the pair strongly co-occupies k."""
        rng = np.random.default_rng(seed)
        pi = np.full(k, 0.01 / (k - 1))
        pi[0] = 0.99
        theta = np.full((k, 2), 1.0)
        g = gradients.theta_gradient_sum(pi[None], pi[None], np.array([1]), theta, 1e-4)
        # theta[0, 1] is the link pseudo-count of the shared community.
        assert g[0, 1] > 0
        assert g[0, 0] < 0


class TestPerplexityProperties:
    @given(
        h=st.integers(min_value=2, max_value=30),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_averaging_never_exceeds_worst_sample(self, h, k, seed):
        """By Jensen, perp(avg probs) <= geometric mean of per-sample
        perplexities <= max per-sample perplexity."""
        rng = np.random.default_rng(seed)
        n = 40
        pairs = rng.integers(0, n, size=(h, 2))
        pairs[:, 1] = (pairs[:, 1] + 1 + pairs[:, 0]) % n  # avoid self pairs
        labels = rng.random(h) < 0.5
        est = PerplexityEstimator(pairs, labels, delta=1e-4)
        singles = []
        for _ in range(3):
            pi = rng.dirichlet(np.ones(k), size=n)
            beta = rng.uniform(0.05, 0.95, k)
            est.record(pi, beta)
            singles.append(
                perplexity(pair_probabilities(pi, beta, pairs, labels, 1e-4))
            )
        assert est.value() <= max(singles) + 1e-9
        geo_mean = float(np.exp(np.mean(np.log(singles))))
        assert est.value() <= geo_mean + 1e-9


class TestGraphProperties:
    @given(
        n=st.integers(min_value=3, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        frac=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_subgraph_removal_consistency(self, n, seed, frac):
        rng = np.random.default_rng(seed)
        max_edges = n * (n - 1) // 2
        m = max(1, int(frac * max_edges))
        pairs = np.column_stack(np.triu_indices(n, k=1))
        idx = rng.choice(len(pairs), size=m, replace=False)
        g = Graph(n, pairs[idx])
        n_remove = rng.integers(0, g.n_edges + 1)
        remove_idx = rng.choice(g.n_edges, size=n_remove, replace=False)
        from repro.graph.graph import edge_keys

        keys = edge_keys(g.edges[remove_idx], n)
        g2 = g.subgraph(remove_keys=keys)
        assert g2.n_edges == g.n_edges - n_remove
        # Removed edges gone; all others intact.
        assert not g2.has_edges(g.edges[remove_idx]).any() or n_remove == 0
        kept = np.setdiff1d(np.arange(g.n_edges), remove_idx)
        if kept.size:
            assert g2.has_edges(g.edges[kept]).all()

    @given(
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_degrees_consistent_with_neighbors(self, n, seed):
        rng = np.random.default_rng(seed)
        pairs = np.column_stack(np.triu_indices(n, k=1))
        if len(pairs):
            m = rng.integers(0, len(pairs) + 1)
            idx = rng.choice(len(pairs), size=m, replace=False)
            g = Graph(n, pairs[idx])
        else:
            g = Graph(n, np.zeros((0, 2), dtype=np.int64))
        for v in range(n):
            assert g.degree(v) == g.neighbors(v).size
        assert g.degrees.sum() == 2 * g.n_edges


class TestDKVProperties:
    @given(
        n_keys=st.integers(min_value=2, max_value=200),
        servers=st.integers(min_value=1, max_value=12),
        n_ops=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_store_agrees_with_dict_model(self, n_keys, servers, n_ops, seed):
        """Arbitrary interleavings of batched writes/reads behave exactly
        like a plain dict."""
        from repro.cluster.dkv import DKVStore

        rng = np.random.default_rng(seed)
        store = DKVStore(n_keys, 3, servers)
        init = rng.standard_normal((n_keys, 3))
        store.populate(init)
        model = {i: init[i].copy() for i in range(n_keys)}
        for _ in range(n_ops):
            client = int(rng.integers(0, servers))
            if rng.random() < 0.5:
                size = int(rng.integers(1, min(10, n_keys) + 1))
                keys = rng.choice(n_keys, size=size, replace=False)
                vals = rng.standard_normal((size, 3))
                store.write_batch(client, keys, vals)
                for key, val in zip(keys, vals):
                    model[int(key)] = val.copy()
            else:
                size = int(rng.integers(1, min(10, n_keys) + 1))
                keys = rng.integers(0, n_keys, size=size)
                out, _ = store.read_batch(client, keys)
                expected = np.stack([model[int(key)] for key in keys])
                np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(
            store.snapshot(), np.stack([model[i] for i in range(n_keys)])
        )


class TestSimulatorProperties:
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_no_message_beats_uncontended_time(self, sizes, seed):
        """Contention can only delay: every transfer takes at least its
        idle-fabric time."""
        from repro.sim.core import Simulator
        from repro.sim.network import Network

        rng = np.random.default_rng(seed)
        sim = Simulator()
        net = Network(sim, n_nodes=4)
        net.record_log = True
        for nbytes in sizes:
            src = int(rng.integers(0, 4))
            dst = int((src + 1 + rng.integers(0, 3)) % 4)
            net.transfer(src, dst, nbytes)
        sim.run()
        for msg in net.log:
            floor = uncontended_transfer_time(net, msg.nbytes)
            assert msg.t_complete - msg.t_submit >= floor - 1e-12
