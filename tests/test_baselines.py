"""SVI and full-batch Langevin/MH baseline tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.mcmc_batch import BatchLangevinAMMSB, full_log_posterior
from repro.core.perplexity import PerplexityEstimator
from repro.core.svi import SVIAMMSB
from repro.graph.split import split_heldout


@pytest.fixture(scope="module")
def small_problem():
    from repro.graph.generators import planted_overlapping_graph

    rng = np.random.default_rng(0)
    graph, truth = planted_overlapping_graph(
        120, 3, memberships_per_vertex=1, p_in=0.3, p_out=0.005, rng=rng
    )
    split = split_heldout(graph, 0.05, np.random.default_rng(1))
    cfg = AMMSBConfig(
        n_communities=3,
        mini_batch_vertices=32,
        neighbor_sample_size=16,
        seed=7,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    return split, cfg


class TestSVI:
    def test_state_shapes(self, small_problem):
        split, cfg = small_problem
        svi = SVIAMMSB(split.train, cfg, heldout=split)
        assert svi.state.gamma.shape == (split.train.n_vertices, 3)
        assert svi.state.lam.shape == (3, 2)

    def test_means_valid(self, small_problem):
        split, cfg = small_problem
        svi = SVIAMMSB(split.train, cfg, heldout=split)
        svi.run(50)
        pi = svi.state.pi_mean
        np.testing.assert_allclose(pi.sum(axis=1), 1.0)
        assert ((svi.state.beta_mean > 0) & (svi.state.beta_mean < 1)).all()
        assert (svi.state.gamma > 0).all()
        assert (svi.state.lam > 0).all()

    def test_local_phi_rows_normalized(self, small_problem, rng):
        split, cfg = small_problem
        svi = SVIAMMSB(split.train, cfg)
        pairs = split.train.edges[:10]
        labels = np.ones(10, dtype=bool)
        phi = svi._local_phi(pairs, labels)
        assert phi.shape == (10, 4)  # K + catch-all
        np.testing.assert_allclose(phi.sum(axis=1), 1.0)
        assert (phi >= 0).all()

    def test_linked_pairs_prefer_shared_community(self, small_problem):
        """For a linked pair, the catch-all state should lose mass as beta
        estimates grow above delta."""
        split, cfg = small_problem
        svi = SVIAMMSB(split.train, cfg, heldout=split)
        svi.run(300)
        pairs = split.train.edges[:50]
        phi = svi._local_phi(pairs, np.ones(50, dtype=bool))
        assert phi[:, -1].mean() < 0.5

    def test_learned_alignment_is_real(self, small_problem):
        """The trained memberships must encode pair-specific structure:
        randomly permuting the rows of pi (which preserves the marginal
        membership distribution but destroys alignment) must hurt
        held-out perplexity."""
        split, cfg = small_problem
        svi = SVIAMMSB(split.train, cfg, heldout=split)
        svi.run(2000, perplexity_every=100)
        value = svi.perplexity_estimator.value()
        assert np.isfinite(value)
        assert value < 3.2

        est = svi.perplexity_estimator
        pi, beta = svi.state.pi_mean, svi.state.beta_mean
        trained = est.single_sample_value(pi, beta)
        rng = np.random.default_rng(0)
        shuffled = est.single_sample_value(pi[rng.permutation(len(pi))], beta)
        assert trained < shuffled


class TestBatchLangevin:
    def test_size_guard(self, small_problem):
        _, cfg = small_problem
        from repro.graph.graph import Graph

        big = Graph(5000, np.array([[0, 1]]))
        with pytest.raises(ValueError):
            BatchLangevinAMMSB(big, cfg)

    def test_log_likelihood_improves_with_training(self, small_problem):
        """Posterior *density* of a sample may legitimately drop below the
        random init (typical set vs mode), but the data likelihood of a
        trained state must beat a random one."""
        from repro.core.mcmc_batch import full_log_likelihood

        split, cfg = small_problem
        lmc = BatchLangevinAMMSB(split.train, cfg, heldout=split)
        ll0 = full_log_likelihood(lmc.state, split.train, cfg, lmc._heldout_keys)
        lp0 = full_log_posterior(lmc.state, split.train, cfg, lmc._heldout_keys)
        assert np.isfinite(ll0) and np.isfinite(lp0)
        lmc2 = BatchLangevinAMMSB(split.train, cfg, heldout=split)
        lmc2.run(150)
        ll1 = full_log_likelihood(lmc2.state, split.train, cfg, lmc2._heldout_keys)
        assert ll1 > ll0

    def test_unadjusted_langevin_improves_perplexity(self, small_problem):
        split, cfg = small_problem
        lmc = BatchLangevinAMMSB(split.train, cfg, heldout=split)
        lmc.run(10, perplexity_every=5)
        early = lmc.perplexity_estimator.value()
        lmc.perplexity_estimator = PerplexityEstimator(  # a fresh average
            split.heldout_pairs, split.heldout_labels, cfg.delta
        )
        lmc.run(200, perplexity_every=20)
        assert lmc.perplexity_estimator.value() < early

    def test_mh_chain_moves_and_is_exact_form(self, small_problem):
        split, cfg = small_problem
        lmc = BatchLangevinAMMSB(split.train, cfg, heldout=split, mh_test=True)
        lmc.run(100)
        acc = np.mean([s.accepted for s in lmc.history])
        assert 0.1 < acc < 0.99  # chain actually mixes
        assert all(np.isfinite(s.log_posterior) for s in lmc.history)

    def test_mh_log_posterior_trends_up(self, small_problem):
        split, cfg = small_problem
        lmc = BatchLangevinAMMSB(split.train, cfg, heldout=split, mh_test=True)
        lmc.run(200)
        first = np.mean([s.log_posterior for s in lmc.history[:20]])
        last = np.mean([s.log_posterior for s in lmc.history[-20:]])
        assert last > first

    def test_state_invariants_hold(self, small_problem):
        split, cfg = small_problem
        lmc = BatchLangevinAMMSB(split.train, cfg)
        lmc.run(20)
        lmc.state.validate()
