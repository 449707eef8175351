"""Perplexity estimator tests (Eqn 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.perplexity import (
    PerplexityEstimator,
    link_prediction_auc,
    link_probability,
    pair_probabilities,
    perplexity,
)


def _auc_tie_ranks_loop(scores: np.ndarray) -> np.ndarray:
    """The pre-vectorization O(H) while-loop average-rank assignment;
    kept as the pinning oracle for :func:`link_prediction_auc`."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j < len(scores) and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1
        i = j
    return ranks


class TestAUCTieRanking:
    """The vectorized tie ranking must equal the old while-loop exactly."""

    def _tied_fixture(self):
        # Four vertices share each pi row, so link_probability collides
        # across many pairs: a dense tied-score fixture, not a toy case.
        rng = np.random.default_rng(42)
        k = 6
        base = rng.dirichlet(np.ones(k), size=8)
        pi = np.repeat(base, 4, axis=0)  # 32 vertices, 8 distinct rows
        beta = rng.uniform(0.1, 0.9, k)
        pairs = rng.integers(0, 32, size=(300, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        labels = rng.random(len(pairs)) < 0.4
        labels[0] = True
        labels[1] = False
        return pi, beta, pairs, labels

    def test_equals_loop_implementation(self):
        pi, beta, pairs, labels = self._tied_fixture()
        scores = link_probability(pi[pairs[:, 0]], pi[pairs[:, 1]], beta, 1e-3)
        assert len(np.unique(scores)) < len(scores), "fixture must have ties"
        ranks = _auc_tie_ranks_loop(scores)
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        expected = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        got = link_prediction_auc(pi, beta, pairs, labels, 1e-3)
        assert got == expected

    def test_equals_pairwise_definition(self):
        """Sanity: rank-sum formula == brute-force P(link outranks
        non-link) with ties counting half."""
        pi, beta, pairs, labels = self._tied_fixture()
        scores = link_probability(pi[pairs[:, 0]], pi[pairs[:, 1]], beta, 1e-3)
        pos, neg = scores[labels], scores[~labels]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
        got = link_prediction_auc(pi, beta, pairs, labels, 1e-3)
        assert got == pytest.approx(brute, rel=1e-12)

    def test_all_tied_is_half(self):
        pi = np.tile(np.full(4, 0.25), (6, 1))
        beta = np.full(4, 0.5)
        pairs = np.array([[0, 1], [2, 3], [4, 5], [1, 2]])
        labels = np.array([True, False, True, False])
        assert link_prediction_auc(pi, beta, pairs, labels, 1e-3) == 0.5


class TestLinkProbability:
    def test_identical_crisp_members_high(self):
        pi = np.array([[1.0, 0.0]])
        beta = np.array([0.8, 0.5])
        p = link_probability(pi, pi, beta, delta=1e-6)
        assert p[0] == pytest.approx(0.8, rel=1e-6)

    def test_disjoint_members_fall_back_to_delta(self):
        pi_a = np.array([[1.0, 0.0]])
        pi_b = np.array([[0.0, 1.0]])
        p = link_probability(pi_a, pi_b, np.array([0.8, 0.8]), delta=1e-3)
        assert p[0] == pytest.approx(1e-3, rel=1e-6)

    def test_bounded(self, rng):
        pi = rng.dirichlet(np.ones(4), size=50)
        p = link_probability(pi[:25], pi[25:], rng.uniform(0, 1, 4), 0.5)
        assert ((p > 0) & (p < 1)).all()


class TestPerplexity:
    def test_perfect_prediction_is_one(self):
        assert perplexity(np.ones(10)) == pytest.approx(1.0)

    def test_coin_flip_is_two(self):
        assert perplexity(np.full(10, 0.5)) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            perplexity(np.zeros(0))

    def test_worse_probs_higher_perplexity(self):
        assert perplexity(np.full(5, 0.1)) > perplexity(np.full(5, 0.9))


class TestEstimator:
    def make(self, n=20, seed=0, burn_in=0):
        rng = np.random.default_rng(seed)
        pairs = np.column_stack([np.arange(n), np.arange(n) + 1])
        labels = rng.random(n) < 0.5
        return PerplexityEstimator(pairs, labels, delta=1e-4, burn_in=burn_in), rng

    def test_no_samples_is_inf(self):
        est, _ = self.make()
        assert est.value() == float("inf")

    def test_single_sample_matches_direct(self, rng):
        est, _ = self.make()
        pi = rng.dirichlet(np.ones(3), size=25)
        beta = rng.uniform(0.2, 0.8, 3)
        est.record(pi, beta)
        direct = perplexity(
            pair_probabilities(pi, beta, est.pairs, est.labels, est.delta)
        )
        assert est.value() == pytest.approx(direct)
        assert est.single_sample_value(pi, beta) == pytest.approx(direct)

    def test_averaging_over_samples(self, rng):
        """Averaged probability of two samples, not average of perplexities."""
        est, _ = self.make()
        pi1 = rng.dirichlet(np.ones(3), size=25)
        pi2 = rng.dirichlet(np.ones(3), size=25)
        beta = rng.uniform(0.2, 0.8, 3)
        est.record(pi1, beta)
        est.record(pi2, beta)
        p1 = pair_probabilities(pi1, beta, est.pairs, est.labels, est.delta)
        p2 = pair_probabilities(pi2, beta, est.pairs, est.labels, est.delta)
        assert est.value() == pytest.approx(perplexity((p1 + p2) / 2))
        assert est.n_samples == 2

    def test_burn_in_skips_early_samples(self, rng):
        est, _ = self.make(burn_in=100)
        pi = rng.dirichlet(np.ones(3), size=25)
        beta = rng.uniform(0.2, 0.8, 3)
        est.record(pi, beta, iteration=50)
        assert est.n_samples == 0
        est.record(pi, beta, iteration=150)
        assert est.n_samples == 1

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            PerplexityEstimator(np.zeros((3, 2), dtype=int), np.zeros(2, dtype=bool), 1e-4)

    def test_oracle_beats_random(self, planted):
        """Ground-truth parameters score better than random parameters."""
        graph, truth = planted
        rng = np.random.default_rng(0)
        from repro.graph.split import split_heldout

        split = split_heldout(graph, 0.05, rng)
        est = PerplexityEstimator(split.heldout_pairs, split.heldout_labels, delta=0.004)
        oracle = est.single_sample_value(truth.pi, np.full(truth.n_communities, 0.25))
        random_pi = rng.dirichlet(np.ones(truth.n_communities), size=graph.n_vertices)
        rnd = est.single_sample_value(random_pi, rng.uniform(0.1, 0.9, truth.n_communities))
        assert oracle < rnd
