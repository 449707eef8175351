"""General MMSB (paper footnote 1) tests.

Key validations:
- with the assortative block matrix (diag(beta), delta off-diagonal), the
  general kernels reduce exactly to the a-MMSB kernels of Eqns 4/6;
- the general model fits *disassortative* (bipartite-like) structure that
  the a-MMSB cannot represent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import gradients
from repro.core.general import (
    GeneralMMSBSampler,
    assortative_block_matrix,
    block_factor,
    general_link_probability,
    general_pair_z,
    general_phi_gradient_sum,
    general_theta_gradient_sum,
)
from repro.graph.graph import Graph
from repro.graph.split import split_heldout
from tests.oracles import brute_force_z


def random_simplex(rng, k):
    x = rng.gamma(0.5, 1.0, size=k) + 1e-6
    return x / x.sum()


class TestReductionToAssortative:
    @given(
        k=st.integers(min_value=1, max_value=8),
        y=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_z_matches_ammsb_normalizer(self, k, y, seed):
        rng = np.random.default_rng(seed)
        pi_a = random_simplex(rng, k)
        pi_b = random_simplex(rng, k)
        beta = rng.uniform(0.05, 0.95, k)
        delta = 1e-3
        b = assortative_block_matrix(beta, delta)
        z_general = general_pair_z(pi_a, pi_b, b, np.array(y))
        z_ammsb = brute_force_z(pi_a, pi_b, y, beta, delta)
        assert float(z_general) == pytest.approx(z_ammsb, rel=1e-10)

    @given(
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_phi_gradient_matches_ammsb(self, k, seed):
        rng = np.random.default_rng(seed)
        m, n = 3, 4
        pi_a = np.stack([random_simplex(rng, k) for _ in range(m)])
        phi_sum = rng.gamma(3.0, 1.0, size=m) + 1.0
        pi_b = np.stack([[random_simplex(rng, k) for _ in range(n)] for _ in range(m)])
        y = rng.integers(0, 2, size=(m, n))
        beta = rng.uniform(0.1, 0.9, k)
        delta = 1e-3
        mask = rng.random((m, n)) < 0.8
        mask[:, 0] = True
        b = assortative_block_matrix(beta, delta)
        g_general = general_phi_gradient_sum(pi_a, phi_sum, pi_b, y, b, mask=mask)
        g_ammsb = gradients.phi_gradient_sum(
            pi_a, phi_sum, pi_b, y, beta, delta, mask=mask
        )
        np.testing.assert_allclose(g_general, g_ammsb, rtol=1e-8, atol=1e-10)

    def test_theta_gradient_diagonal_matches_ammsb(self, rng):
        """With the assortative B, the general theta gradient's diagonal
        equals the a-MMSB theta gradient (the off-diagonal mass is what
        the a-MMSB lumps into the fixed delta)."""
        k, e = 4, 6
        pi_a = np.stack([random_simplex(rng, k) for _ in range(e)])
        pi_b = np.stack([random_simplex(rng, k) for _ in range(e)])
        y = rng.integers(0, 2, size=e)
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        delta = 1e-3
        beta = theta[:, 1] / theta.sum(axis=1)
        # Build a block-theta whose diagonal is theta and whose
        # off-diagonal entries encode B_kl = delta exactly.
        t_off = np.empty((k, k, 2))
        t_off[..., 1] = delta
        t_off[..., 0] = 1.0 - delta  # sums to 1 -> B = delta
        block_theta = t_off.copy()
        for i in range(k):
            block_theta[i, i] = theta[i]
        g_general = general_theta_gradient_sum(pi_a, pi_b, y, block_theta)
        g_ammsb = gradients.theta_gradient_sum(pi_a, pi_b, y, theta, delta)
        diag = np.stack([g_general[i, i] for i in range(k)])
        np.testing.assert_allclose(diag, g_ammsb, rtol=1e-8, atol=1e-9)


class TestGeneralKernels:
    def test_block_factor(self):
        b = np.array([[0.2, 0.8], [0.8, 0.3]])
        out = block_factor(b, np.array([1, 0]))
        np.testing.assert_allclose(out[0], b)
        np.testing.assert_allclose(out[1], 1 - b)

    def test_theta_gradient_finite_difference(self, rng):
        """General theta gradient == numeric d/dtheta log Z."""
        k = 3
        pi_a = random_simplex(rng, k)
        pi_b = random_simplex(rng, k)
        theta = rng.gamma(3.0, 1.0, size=(k, k, 2)) + 0.5
        theta = 0.5 * (theta + theta.transpose(1, 0, 2))
        for y in (0, 1):

            def loglik(th):
                b = th[..., 1] / th.sum(-1)
                outer = pi_a[:, None] * pi_b[None, :]
                outer = 0.5 * (outer + outer.T)
                bt = b if y else 1 - b
                return np.log((outer * bt).sum())

            grad = general_theta_gradient_sum(
                pi_a[None], pi_b[None], np.array([y]), theta
            )
            eps = 1e-6
            for i in range(k):
                for j in range(k):
                    for c in range(2):
                        up, dn = theta.copy(), theta.copy()
                        up[i, j, c] += eps
                        dn[i, j, c] -= eps
                        fd = (loglik(up) - loglik(dn)) / (2 * eps)
                        assert grad[i, j, c] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_link_probability_bilinear(self, rng):
        k = 4
        pi = rng.dirichlet(np.ones(k), size=10)
        b = rng.uniform(0.05, 0.95, size=(k, k))
        p = general_link_probability(pi[:5], pi[5:], b)
        for i in range(5):
            manual = float(pi[i] @ b @ pi[5 + i])
            assert p[i] == pytest.approx(manual, rel=1e-10)


def bipartite_planted(n_per_side=80, p_cross=0.25, p_within=0.005, seed=0):
    """Near-bipartite graph: links run BETWEEN the two groups."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per_side
    edges = []
    for a in range(n_per_side):
        for b_v in range(n_per_side, n):
            if rng.random() < p_cross:
                edges.append((a, b_v))
    for grp in (range(n_per_side), range(n_per_side, n)):
        grp = list(grp)
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                if rng.random() < p_within:
                    edges.append((grp[i], grp[j]))
    return Graph(n, np.array(edges, dtype=np.int64))


class TestDisassortativeFit:
    def test_general_beats_assortative_on_bipartite(self):
        """On a bipartite-like graph the a-MMSB has no way to say 'members
        of k link to members of l != k'; the general model does.

        Over three seeds: the general model's held-out perplexity is below
        the assortative one's on every seed, and 5 % below it pooled. Per
        seed the gap is 3-20 % (10 % in the median of 44 seeds), so the
        one-seed 10 % bar this replaces held on about half the seeds."""
        from repro.core.sampler import AMMSBSampler

        graph = bipartite_planted()
        split = split_heldout(graph, 0.05, np.random.default_rng(1))
        p_general, p_assort = [], []
        for seed in range(3):
            cfg = AMMSBConfig(
                n_communities=2,
                mini_batch_vertices=48,
                neighbor_sample_size=24,
                seed=seed,
                step_phi=StepSizeConfig(a=0.05),
                step_theta=StepSizeConfig(a=0.05),
            )
            for sampler, out in (
                (GeneralMMSBSampler(split.train, cfg, heldout=split), p_general),
                (AMMSBSampler(split.train, cfg, heldout=split), p_assort),
            ):
                sampler.run(2500, perplexity_every=100)
                out.append(sampler.perplexity_estimator.value())
        assert all(g < a for g, a in zip(p_general, p_assort)), (p_general, p_assort)
        assert sum(p_general) < 0.95 * sum(p_assort)

    def test_learns_off_diagonal_block_from_informed_start(self):
        """Given memberships that roughly identify the two sides, the theta
        kernel must drive B off-diagonal dominant (cold starts sit on the
        label-symmetric saddle for a long time — the standard MMSB
        symmetry-breaking caveat, so this tests kernel correctness, not
        global optimization)."""
        from repro.core.state import init_state

        graph = bipartite_planted()
        split = split_heldout(graph, 0.05, np.random.default_rng(1))
        cfg = AMMSBConfig(
            n_communities=2,
            # A large mini-batch averages many strata per iteration: the
            # single-stratum theta estimator is unbiased but extremely
            # noisy, and this test probes the kernel's fixed point.
            mini_batch_vertices=512,
            neighbor_sample_size=24,
            seed=3,
            step_phi=StepSizeConfig(a=0.02),
            step_theta=StepSizeConfig(a=0.02),
        )
        rng = np.random.default_rng(4)
        state = init_state(graph.n_vertices, cfg, rng)
        side = (np.arange(graph.n_vertices) >= graph.n_vertices // 2).astype(int)
        pi = np.full((graph.n_vertices, 2), 0.05)
        pi[np.arange(graph.n_vertices), side] = 0.95
        state.set_phi_rows(np.arange(graph.n_vertices), pi * 10.0)
        s = GeneralMMSBSampler(split.train, cfg, heldout=split, state=state)
        # Theta-only updates against the (crisp, fixed) memberships — the
        # theta kernel alone must discover the off-diagonal block. Assert
        # on a trailing average of B (SGRLD samples fluctuate around the
        # posterior mode).
        b_sum = np.zeros((2, 2))
        n_avg = 0
        for it in range(1200):
            mb = s.minibatch_sampler.sample(s.rng)
            s.update_block_theta(mb)
            s.iteration += 1
            if it >= 700 and it % 25 == 0:
                b_sum += s.block_matrix
                n_avg += 1
        b = b_sum / n_avg
        assert b[0, 1] > 2 * b[0, 0]
        assert b[0, 1] > 2 * b[1, 1]
        assert b[0, 1] > 0.1  # in the vicinity of the planted 0.25

    def test_invariants_preserved(self, planted, config):
        graph, _ = planted
        s = GeneralMMSBSampler(graph, config)
        s.run(10)
        s.state.validate()
        b = s.block_matrix
        assert ((b > 0) & (b < 1)).all()
        np.testing.assert_allclose(b, b.T, rtol=1e-8)
