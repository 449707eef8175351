"""Link-prediction AUC and the full-batch mini-batch strategy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import gradients
from repro.core.minibatch import MinibatchSampler
from repro.core.perplexity import link_prediction_auc
from repro.graph.split import split_heldout


class TestAUC:
    def test_oracle_scores_high(self, planted):
        graph, truth = planted
        split = split_heldout(graph, 0.05, np.random.default_rng(0))
        auc = link_prediction_auc(
            truth.pi,
            np.full(truth.n_communities, 0.25),
            split.heldout_pairs,
            split.heldout_labels,
            delta=0.004,
        )
        assert auc > 0.85

    def test_random_near_half(self, planted, rng):
        graph, truth = planted
        split = split_heldout(graph, 0.05, np.random.default_rng(0))
        pi = rng.dirichlet(np.ones(4), size=graph.n_vertices)
        auc = link_prediction_auc(
            pi, rng.uniform(0.2, 0.8, 4), split.heldout_pairs,
            split.heldout_labels, 1e-4,
        )
        assert 0.3 < auc < 0.7

    def test_perfect_separation_is_one(self):
        pi = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        pairs = np.array([[0, 1], [2, 3], [0, 2], [1, 3]])
        labels = np.array([True, True, False, False])
        auc = link_prediction_auc(pi, np.array([0.5, 0.5]), pairs, labels, 1e-6)
        assert auc == pytest.approx(1.0)

    def test_all_ties_is_half(self):
        pi = np.full((4, 2), 0.5)
        pairs = np.array([[0, 1], [2, 3]])
        labels = np.array([True, False])
        auc = link_prediction_auc(pi, np.array([0.5, 0.5]), pairs, labels, 1e-6)
        assert auc == pytest.approx(0.5)

    def test_single_class_rejected(self):
        pi = np.full((4, 2), 0.5)
        with pytest.raises(ValueError):
            link_prediction_auc(pi, np.array([0.5, 0.5]), np.array([[0, 1]]),
                                np.array([True]), 1e-6)

    def test_training_improves_auc(self, planted):
        """Seed 3 and the four after it. Every one must end above where it
        started and above 0.65, and their median above 0.75. 2000 SGRLD
        steps amplify a last-bit difference in any kernel, so one seed's
        AUC belongs to (seed, commit, BLAS build): over seeds 0-11 it ends
        at 0.69 to 0.91 before ISSUE 23 and 0.72 to 0.90 after (from 0.41
        to 0.60), and above 0.75 on 11 resp. 9 of the 12, seed 3 not among
        them any more (0.84, then 0.72)."""
        graph, _ = planted
        split = split_heldout(graph, 0.05, np.random.default_rng(0))
        from repro.core.sampler import AMMSBSampler

        def auc(state):
            return link_prediction_auc(
                state.pi, state.beta, split.heldout_pairs, split.heldout_labels, cfg.delta
            )

        before, after = [], []
        for seed in (3, 4, 5, 6, 7):
            cfg = AMMSBConfig(
                n_communities=4, mini_batch_vertices=48, neighbor_sample_size=24,
                seed=seed, step_phi=StepSizeConfig(a=0.05), step_theta=StepSizeConfig(a=0.05),
            )
            s = AMMSBSampler(split.train, cfg, heldout=split)
            before.append(auc(s.state))
            s.run(2000)
            after.append(auc(s.state))
        for seed_before, seed_after in zip(before, after):
            assert seed_after > max(seed_before, 0.65)
        assert np.median(after) > max(np.median(before), 0.75)


class TestFullBatchStrategy:
    def test_covers_all_pairs_once(self, tiny_graph, rng):
        cfg = AMMSBConfig(n_communities=2, strategy="full-batch")
        ms = MinibatchSampler(tiny_graph, cfg)
        mb = ms.sample(rng)
        pairs, labels, scales = mb.all_pairs()
        n = tiny_graph.n_vertices
        assert len(pairs) == n * (n - 1) // 2
        assert labels.sum() == tiny_graph.n_edges
        assert (scales == 1.0).all()
        np.testing.assert_array_equal(mb.vertices, np.arange(n))

    def test_excludes_heldout(self, planted, rng):
        graph, _ = planted
        split = split_heldout(graph, 0.05, np.random.default_rng(1))
        from repro.graph.graph import edge_keys

        hk = np.sort(edge_keys(split.heldout_pairs, graph.n_vertices))
        cfg = AMMSBConfig(n_communities=4, strategy="full-batch")
        ms = MinibatchSampler(split.train, cfg, heldout_keys=hk)
        mb = ms.sample(rng)
        pairs, _, _ = mb.all_pairs()
        keys = edge_keys(pairs, graph.n_vertices)
        assert not np.isin(keys, hk).any()

    def test_size_guard(self, rng):
        from repro.graph.graph import Graph

        big = Graph(5000, np.array([[0, 1]]))
        cfg = AMMSBConfig(n_communities=2, strategy="full-batch")
        ms = MinibatchSampler(big, cfg)
        with pytest.raises(ValueError):
            ms.sample(rng)

    def test_stratified_theta_gradient_matches_full_batch_in_expectation(
        self, tiny_graph
    ):
        """The h-scaled stratified theta gradient is an unbiased estimator
        of the full-batch gradient — the property SGLD correctness rests
        on, checked end-to-end through the actual kernels."""
        rng = np.random.default_rng(0)
        k = 3
        pi = rng.dirichlet(np.ones(k), size=tiny_graph.n_vertices)
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        delta = 1e-3

        def stratum_grad(stratum):
            return stratum.scale * gradients.theta_gradient_sum(
                pi[stratum.pairs[:, 0]], pi[stratum.pairs[:, 1]],
                stratum.labels.astype(np.int64), theta, delta,
            )

        cfg_full = AMMSBConfig(n_communities=k, strategy="full-batch")
        full = MinibatchSampler(tiny_graph, cfg_full).sample(rng)
        exact = sum(stratum_grad(s) for s in full.strata)

        cfg_strat = AMMSBConfig(n_communities=k, mini_batch_vertices=4)
        ms = MinibatchSampler(tiny_graph, cfg_strat)
        total = np.zeros_like(theta)
        T = 20_000
        r = np.random.default_rng(5)
        for _ in range(T):
            mb = ms.sample(r)
            for s in mb.strata:
                total += stratum_grad(s)
        np.testing.assert_allclose(total / T, exact, rtol=0.1, atol=0.05)
