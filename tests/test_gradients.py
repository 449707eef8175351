"""Kernel tests: Eqns 3-6, including the O(K) == O(K^2) normalizer
identity and finite-difference gradient checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gradients
from tests.oracles import brute_force_z


def random_simplex(rng, k):
    x = rng.gamma(0.5, 1.0, size=k) + 1e-6
    return x / x.sum()


class TestFactors:
    def test_bernoulli_factor_link(self):
        beta = np.array([0.2, 0.8])
        out = gradients.bernoulli_factor(beta, np.array([1, 0]))
        np.testing.assert_allclose(out, [[0.2, 0.8], [0.8, 0.2]])

    def test_delta_factor(self):
        out = gradients.delta_factor(0.01, np.array([1, 0]))
        np.testing.assert_allclose(out, [0.01, 0.99])


class TestNormalizer:
    @given(
        k=st.integers(min_value=1, max_value=12),
        y=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_fast_z_equals_brute_force(self, k, y, seed):
        """The O(K) collapsed Z_ab equals the O(K^2) double sum."""
        rng = np.random.default_rng(seed)
        pi_a = random_simplex(rng, k)
        pi_b = random_simplex(rng, k)
        beta = rng.uniform(0.05, 0.95, size=k)
        delta = 1e-3
        f, z = gradients.phi_gradient_terms(
            pi_a[None, :], pi_b[None, None, :], np.array([[y]]), beta, delta
        )
        brute = brute_force_z(pi_a, pi_b, y, beta, delta)
        assert z[0, 0] == pytest.approx(brute, rel=1e-10)

    def test_z_positive(self, rng):
        pi_a = random_simplex(rng, 5)[None, :]
        pi_b = np.stack([random_simplex(rng, 5) for _ in range(3)])[None, :, :]
        _, z = gradients.phi_gradient_terms(
            pi_a, pi_b, np.array([[1, 0, 1]]), rng.uniform(0.1, 0.9, 5), 1e-4
        )
        assert (z > 0).all()


class TestPhiGradient:
    def test_matches_finite_difference(self, rng):
        """Eqn 6 == d/dphi log p(y_ab | phi) via central differences."""
        k = 4
        delta = 1e-3
        beta = rng.uniform(0.2, 0.8, size=k)
        phi_a = rng.gamma(2.0, 1.0, size=k) + 0.5
        pi_b = random_simplex(rng, k)
        y = 1

        def loglik(phi):
            pi = phi / phi.sum()
            b = beta**y * (1 - beta) ** (1 - y)
            d = delta**y * (1 - delta) ** (1 - y)
            p = (pi * (pi_b * b + (1 - pi_b) * d)).sum()
            return np.log(p)

        phi_sum = phi_a.sum()
        pi_a = phi_a / phi_sum
        grad = gradients.phi_gradient_sum(
            pi_a[None, :],
            np.array([phi_sum]),
            pi_b[None, None, :],
            np.array([[y]]),
            beta,
            delta,
        )[0]
        eps = 1e-6
        for j in range(k):
            up, dn = phi_a.copy(), phi_a.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (loglik(up) - loglik(dn)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_mask_excludes_columns(self, rng):
        k, n = 3, 6
        pi_a = np.stack([random_simplex(rng, k)])
        phi_sum = np.array([2.0])
        pi_b = np.stack([[random_simplex(rng, k) for _ in range(n)]])
        y = rng.integers(0, 2, size=(1, n))
        beta = rng.uniform(0.2, 0.8, k)
        mask = np.ones((1, n), dtype=bool)
        mask[0, -2:] = False
        got = gradients.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-3, mask=mask)
        expect = gradients.phi_gradient_sum(
            pi_a, phi_sum, pi_b[:, :-2], y[:, :-2], beta, 1e-3
        )
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_batched_equals_loop(self, rng):
        """Vectorized (m, n, K) kernel == per-vertex loop."""
        m, n, k = 5, 4, 3
        pi_a = np.stack([random_simplex(rng, k) for _ in range(m)])
        phi_sum = rng.gamma(3.0, 1.0, size=m) + 1.0
        pi_b = np.stack([[random_simplex(rng, k) for _ in range(n)] for _ in range(m)])
        y = rng.integers(0, 2, size=(m, n))
        beta = rng.uniform(0.1, 0.9, k)
        batched = gradients.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-3)
        for i in range(m):
            single = gradients.phi_gradient_sum(
                pi_a[i : i + 1], phi_sum[i : i + 1], pi_b[i : i + 1], y[i : i + 1], beta, 1e-3
            )
            np.testing.assert_allclose(batched[i], single[0], rtol=1e-12)


class TestThetaGradient:
    def test_matches_finite_difference(self, rng):
        """Eqn 4 == d/dtheta log p(y_ab | theta) via central differences."""
        k = 3
        delta = 1e-3
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        pi_a = random_simplex(rng, k)
        pi_b = random_simplex(rng, k)
        for y in (0, 1):

            def loglik(th):
                beta = th[:, 1] / th.sum(axis=1)
                b = beta**y * (1 - beta) ** (1 - y)
                d = delta**y * (1 - delta) ** (1 - y)
                p = (pi_a * (pi_b * b + (1 - pi_b) * d)).sum()
                return np.log(p)

            grad = gradients.theta_gradient_sum(
                pi_a[None, :], pi_b[None, :], np.array([y]), theta, delta
            )
            eps = 1e-6
            for i in range(k):
                for j in range(2):
                    up, dn = theta.copy(), theta.copy()
                    up[i, j] += eps
                    dn[i, j] -= eps
                    fd = (loglik(up) - loglik(dn)) / (2 * eps)
                    assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8), (y, i, j)

    def test_sum_over_edges_linear(self, rng):
        k, e = 4, 7
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        pi_a = np.stack([random_simplex(rng, k) for _ in range(e)])
        pi_b = np.stack([random_simplex(rng, k) for _ in range(e)])
        y = rng.integers(0, 2, size=e)
        total = gradients.theta_gradient_sum(pi_a, pi_b, y, theta, 1e-3)
        parts = sum(
            gradients.theta_gradient_sum(
                pi_a[i : i + 1], pi_b[i : i + 1], y[i : i + 1], theta, 1e-3
            )
            for i in range(e)
        )
        np.testing.assert_allclose(total, parts, rtol=1e-10)

    def test_y_weighting_identical_to_mask_copy(self, rng):
        """The 0/1-indicator weighting that replaced the boolean-mask copy
        ``w[y != 0].sum(axis=0)`` is bit-identical to it (axis-0 sums are
        sequential; the masked-out rows contribute exact zeros)."""
        k, e = 8, 200
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        pi_a = np.stack([random_simplex(rng, k) for _ in range(e)])
        pi_b = np.stack([random_simplex(rng, k) for _ in range(e)])
        y = rng.integers(0, 2, size=e)
        grad = gradients.theta_gradient_sum(pi_a, pi_b, y, theta, 1e-3)

        # The pre-change form, recomputed from the same intermediates.
        beta = theta[:, 1] / theta.sum(axis=1)
        b_factor = gradients.bernoulli_factor(beta, y)
        d_factor = gradients.delta_factor(1e-3, y)[:, None]
        f_diag = pi_a * pi_b * b_factor
        z = (pi_a * (pi_b * b_factor + (1.0 - pi_b) * d_factor)).sum(axis=1)
        w = f_diag / np.maximum(z, gradients.EPS)[:, None]
        w_total = w.sum(axis=0)
        w_y = w[y != 0].sum(axis=0)  # the old boolean-mask copy
        w_not_y = w_total - w_y
        expected = np.empty_like(theta)
        row_sum = theta.sum(axis=1)
        expected[:, 0] = w_not_y / np.maximum(theta[:, 0], gradients.EPS) - w_total / row_sum
        expected[:, 1] = w_y / np.maximum(theta[:, 1], gradients.EPS) - w_total / row_sum
        np.testing.assert_array_equal(grad, expected)

    def test_weighted_call_equals_per_stratum_scale_loop(self, rng):
        """One weighted call over concatenated strata == the Python loop
        ``sum_s scale_s * theta_gradient_sum(stratum_s)`` it replaced."""
        k = 6
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        strata = []
        for scale in (17.0, 2.5, 400.0):
            e = int(rng.integers(3, 20))
            pi_a = np.stack([random_simplex(rng, k) for _ in range(e)])
            pi_b = np.stack([random_simplex(rng, k) for _ in range(e)])
            y = rng.integers(0, 2, size=e)
            strata.append((pi_a, pi_b, y, scale))
        looped = sum(
            scale * gradients.theta_gradient_sum(pi_a, pi_b, y, theta, 1e-3)
            for pi_a, pi_b, y, scale in strata
        )
        weighted = gradients.theta_gradient_sum(
            np.concatenate([s[0] for s in strata]),
            np.concatenate([s[1] for s in strata]),
            np.concatenate([s[2] for s in strata]),
            theta,
            1e-3,
            weights=np.concatenate([np.full(len(s[2]), s[3]) for s in strata]),
        )
        np.testing.assert_allclose(weighted, looped, rtol=1e-12)


class TestUpdates:
    def test_phi_update_positive_and_clipped(self, rng):
        phi = rng.gamma(1.0, 1.0, size=(10, 4)) + 1e-8
        grad = rng.standard_normal((10, 4)) * 100
        noise = rng.standard_normal((10, 4))
        out = gradients.update_phi(phi, grad, 0.01, 0.25, 50.0, noise, phi_clip=10.0)
        assert (out > 0).all()
        assert (out <= 10.0).all()

    def test_phi_update_zero_step_is_identity(self, rng):
        phi = rng.gamma(1.0, 1.0, size=(5, 3)) + 0.1
        out = gradients.update_phi(
            phi, rng.standard_normal((5, 3)), 0.0, 0.25, 1.0, rng.standard_normal((5, 3))
        )
        np.testing.assert_allclose(out, phi)

    def test_theta_update_positive(self, rng):
        theta = rng.gamma(3.0, 1.0, size=(6, 2)) + 0.1
        out = gradients.update_theta(
            theta, rng.standard_normal((6, 2)) * 10, 0.01, (1.0, 1.0), 1.0,
            rng.standard_normal((6, 2)),
        )
        assert (out > 0).all()

    def test_phi_drift_direction(self):
        """Without noise, positive gradient increases phi."""
        phi = np.full((1, 2), 1.0)
        up = gradients.update_phi(phi, np.array([[5.0, -5.0]]), 0.01, 1.0, 1.0, np.zeros((1, 2)))
        assert up[0, 0] > phi[0, 0]
        assert up[0, 1] < phi[0, 1]

    def test_per_row_scale_broadcasts(self, rng):
        phi = rng.gamma(1.0, 1.0, size=(4, 3)) + 0.1
        grad = rng.standard_normal((4, 3))
        noise = np.zeros((4, 3))
        scales = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = gradients.update_phi(phi, grad, 0.01, 0.5, scales, noise)
        for i in range(4):
            row = gradients.update_phi(
                phi[i : i + 1], grad[i : i + 1], 0.01, 0.5, float(scales[i, 0]), noise[i : i + 1]
            )
            np.testing.assert_allclose(out[i], row[0])
