"""ModelState invariants and row round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import ModelState, init_state


class TestInit:
    def test_shapes_and_invariants(self, config):
        st0 = init_state(50, config)
        assert st0.pi.shape == (50, 4)
        assert st0.theta.shape == (4, 2)
        st0.validate()

    def test_deterministic_from_seed(self, config):
        a = init_state(30, config, np.random.default_rng(1))
        b = init_state(30, config, np.random.default_rng(1))
        np.testing.assert_array_equal(a.pi, b.pi)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_beta_in_unit_interval(self, config):
        st0 = init_state(10, config)
        assert ((st0.beta > 0) & (st0.beta < 1)).all()


class TestProviderRouting:
    def test_default_path_unchanged_by_provider_arg_absence(self, config):
        """provider=None is the legacy single-draw path, bit-identical."""
        a = init_state(30, config, np.random.default_rng(7))
        b = init_state(30, config, np.random.default_rng(7), provider=None)
        np.testing.assert_array_equal(a.pi, b.pi)
        np.testing.assert_array_equal(a.phi_sum, b.phi_sum)

    def test_resident_provider_valid_state(self, config):
        st0 = init_state(40, config, np.random.default_rng(2),
                         provider="resident")
        assert st0.pi.shape == (40, config.n_communities)
        assert st0.phi_sum.shape == (40,)
        assert np.isfinite(st0.pi).all() and (st0.pi > 0).all()
        np.testing.assert_allclose(st0.pi.sum(axis=1), 1.0, atol=1e-6)
        st0.validate()

    def test_mmap_provider_state_is_writable_scratch(self, config):
        st0 = init_state(40, config, np.random.default_rng(2),
                         provider="mmap")
        assert isinstance(st0.pi, np.memmap)
        st0.pi[0, 0] = st0.pi[0, 0]  # scratch must accept writes
        st0.validate()

    def test_chunked_fill_deterministic(self, config):
        a = init_state(50, config, np.random.default_rng(3),
                       provider="resident", chunk_rows=7)
        b = init_state(50, config, np.random.default_rng(3),
                       provider="resident", chunk_rows=7)
        np.testing.assert_array_equal(a.pi, b.pi)
        # different chunking = different RNG consumption order: still a
        # valid state, just a different sample
        c = init_state(50, config, np.random.default_rng(3),
                       provider="resident", chunk_rows=50)
        c.validate()


class TestPhiRoundTrip:
    def test_phi_rows_reconstruct(self, config, rng):
        """phi = pi * phi_sum round-trips through set_phi_rows."""
        st0 = init_state(20, config, rng)
        vs = np.array([3, 7, 11])
        pi, phi_sum = st0.pi[vs].copy(), st0.phi_sum[vs].copy()
        st0.set_phi_rows(vs, pi * phi_sum[:, None])
        np.testing.assert_allclose(st0.phi_sum[vs], phi_sum)
        np.testing.assert_allclose(st0.pi[vs], pi)

    def test_set_phi_rows_renormalizes(self, config, rng):
        st0 = init_state(20, config, rng)
        vs = np.array([0, 5])
        new_phi = rng.gamma(2.0, 1.0, size=(2, 4)) + 0.1
        st0.set_phi_rows(vs, new_phi)
        np.testing.assert_allclose(st0.phi_sum[vs], new_phi.sum(axis=1))
        np.testing.assert_allclose(st0.pi[vs].sum(axis=1), 1.0)
        st0.validate()

    def test_set_phi_rejects_nonpositive(self, config, rng):
        st0 = init_state(10, config, rng)
        with pytest.raises(ValueError):
            st0.set_phi_rows(np.array([0]), np.zeros((1, 4)))


class TestValidate:
    def test_detects_negative_pi(self, config, rng):
        st0 = init_state(10, config, rng)
        st0.pi[0, 0] = -0.1
        with pytest.raises(ValueError):
            st0.validate()

    def test_detects_broken_simplex(self, config, rng):
        st0 = init_state(10, config, rng)
        st0.pi[0] = 0.4
        with pytest.raises(ValueError):
            st0.validate()

    def test_detects_nonpositive_theta(self, config, rng):
        st0 = init_state(10, config, rng)
        st0.theta[0, 0] = 0.0
        with pytest.raises(ValueError):
            st0.validate()

    def test_copy_is_deep(self, config, rng):
        st0 = init_state(10, config, rng)
        st1 = st0.copy()
        st1.pi[0, 0] = 123.0
        assert st0.pi[0, 0] != 123.0
