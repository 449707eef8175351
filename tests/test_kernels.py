"""Kernel backend equivalence suite (tentpole contract).

The ``fused`` backend must match ``reference`` bit-for-bit in float64
(it replays the same ufunc operation order, just into preallocated
buffers) and to tolerance in float32 (where the reference path silently
upcasts to float64 while fused stays in float32). Shapes are randomized
with hypothesis; a reused workspace must never leak state between calls.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gradients, kernels

REF = kernels.get_backend("reference")
FUSED = kernels.get_backend("fused")


def _phi_case(rng, m, n, k, dtype=np.float64, masked=True):
    pi_a = rng.dirichlet(np.ones(k), size=m).astype(dtype)
    phi_sum = (rng.gamma(5.0, 1.0, size=m) + 1.0).astype(dtype)
    pi_b = rng.dirichlet(np.ones(k), size=(m, n)).astype(dtype)
    y = rng.random((m, n)) < 0.2
    beta = rng.uniform(0.05, 0.95, k)
    mask = (rng.random((m, n)) < 0.9) if masked else None
    return pi_a, phi_sum, pi_b, y, beta, mask


def _theta_case(rng, e, k, dtype=np.float64):
    pi_a = rng.dirichlet(np.ones(k), size=e).astype(dtype)
    pi_b = rng.dirichlet(np.ones(k), size=e).astype(dtype)
    y = (rng.random(e) < 0.5).astype(np.int64)
    theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
    weights = rng.uniform(0.5, 40.0, size=e)
    return pi_a, pi_b, y, theta, weights


class TestFloat64BitExact:
    """float64: fused must equal reference exactly, not just closely."""

    @given(
        m=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        masked=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_phi_gradient(self, m, n, k, seed, masked):
        rng = np.random.default_rng(seed)
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, m, n, k, masked=masked)
        ws = kernels.KernelWorkspace()
        ref = REF.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask)
        got = FUSED.phi_gradient_sum(
            pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
        )
        np.testing.assert_array_equal(np.asarray(got), ref)

    @given(
        m=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        array_scale=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_phi(self, m, k, seed, array_scale):
        rng = np.random.default_rng(seed)
        phi = rng.gamma(2.0, 1.0, size=(m, k)) + 1e-3
        grad = rng.standard_normal((m, k)) * 10.0
        noise = rng.standard_normal((m, k))
        scale = rng.uniform(1.0, 500.0, size=(m, 1)) if array_scale else 250.0
        ws = kernels.KernelWorkspace()
        ref = REF.update_phi(phi, grad, 0.01, 0.1, scale, noise)
        got = FUSED.update_phi(phi, grad, 0.01, 0.1, scale, noise, workspace=ws)
        np.testing.assert_array_equal(np.asarray(got), ref)

    @given(
        e=st.integers(min_value=1, max_value=200),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        weighted=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_theta_gradient(self, e, k, seed, weighted):
        rng = np.random.default_rng(seed)
        pi_a, pi_b, y, theta, weights = _theta_case(rng, e, k)
        if not weighted:
            weights = None
        ws = kernels.KernelWorkspace()
        ref = REF.theta_gradient_weighted(pi_a, pi_b, y, theta, 1e-4, weights=weights)
        got = FUSED.theta_gradient_weighted(
            pi_a, pi_b, y, theta, 1e-4, weights=weights, workspace=ws
        )
        np.testing.assert_array_equal(np.asarray(got), ref)

    def test_update_theta_same_function(self):
        """theta is (K, 2); fused delegates to the reference update."""
        rng = np.random.default_rng(0)
        theta = rng.gamma(3.0, 1.0, size=(16, 2)) + 0.5
        grad = rng.standard_normal((16, 2))
        noise = rng.standard_normal((16, 2))
        ref = REF.update_theta(theta, grad, 0.01, (1.0, 1.0), 5.0, noise)
        got = FUSED.update_theta(theta, grad, 0.01, (1.0, 1.0), 5.0, noise)
        np.testing.assert_array_equal(got, ref)


def _gather_case(rng, n_rows, m, n, k, dtype=np.float64, link=0.2, shown=0.9):
    """A phi case whose neighbor rows live in a ``pi`` table: the deferred
    gather ``(pi, index)`` and the rows it stands for."""
    pi = rng.dirichlet(np.ones(k), size=n_rows).astype(dtype)
    index = rng.integers(0, n_rows, size=(m, n))
    pi_a = rng.dirichlet(np.ones(k), size=m).astype(dtype)
    phi_sum = (rng.gamma(5.0, 1.0, size=m) + 1.0).astype(dtype)
    y = rng.random((m, n)) < link
    beta = rng.uniform(0.05, 0.95, k)
    mask = None if shown is None else rng.random((m, n)) < shown
    return pi, index, pi_a, phi_sum, y, beta, mask


def _assert_same_bits(got, want):
    """Equal including the sign of zeros and the position of NaNs."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@contextlib.contextmanager
def _blocks_of(rows: int, row_bytes: int):
    """The phi kernel's block budget set to ``rows`` mini-batch rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_PHI_BLOCK_BYTES", rows * row_bytes)
        yield


class TestDeferredGather:
    """The blocked phi kernel: a deferred ``(table, index)`` gather, the
    pre-gathered rows and the reference are one function of their inputs,
    wherever the block boundaries fall."""

    @given(
        n_rows=st.integers(min_value=1, max_value=50),
        m=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        link=st.sampled_from([0.0, 0.03, 0.5, 1.0]),  # no-link .. all-link rows
        shown=st.sampled_from([None, 0.0, 0.5, 0.9, 1.0]),  # mask=None .. all hidden
        block_rows=st.sampled_from([1, 3, 7, 10_000]),  # one-row block .. one block
    )
    @settings(max_examples=120, deadline=None)
    def test_float64_bit_exact(self, n_rows, m, n, k, seed, link, shown, block_rows):
        rng = np.random.default_rng(seed)
        pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(
            rng, n_rows, m, n, k, link=link, shown=shown
        )
        if mask is not None and m:
            mask[rng.integers(m)] = False  # a fully masked row
        table = np.concatenate([pi, np.ones((n_rows, 1))], axis=1)
        ref = REF.phi_gradient_sum(pi_a, phi_sum, pi[index], y, beta, 1e-4, mask=mask)
        # deferred; deferred with pi a non-contiguous column view; gathered
        forms = [(pi, index), (table[:, :-1], index), pi[index]]
        with _blocks_of(block_rows, n * k * 8):
            for pi_b in forms:
                got = FUSED.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask,
                    workspace=kernels.KernelWorkspace(),
                )
                _assert_same_bits(got, ref)
        _assert_same_bits(
            REF.phi_gradient_sum(pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask), ref
        )

    @given(
        m=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
        block_rows=st.sampled_from([1, 5, 10_000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_float32_tolerance(self, m, n, k, seed, block_rows):
        rng = np.random.default_rng(seed)
        pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(
            rng, 30, m, n, k, dtype=np.float32
        )
        ws = kernels.KernelWorkspace()
        with _blocks_of(block_rows, n * k * 4):
            got = FUSED.phi_gradient_sum(
                pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask, workspace=ws
            )
        assert np.asarray(got).dtype == np.float32
        assert all(buf.dtype != np.float64 for buf in ws.buffers().values())
        # float32 too is one function of its inputs, whatever their form ...
        gathered = FUSED.phi_gradient_sum(pi_a, phi_sum, pi[index], y, beta, 1e-4, mask=mask)
        np.testing.assert_array_equal(np.array(got), gathered)
        # ... and tracks the float64 reference as TestFloat32Tolerance asks.
        ref = REF.phi_gradient_sum(
            pi_a.astype(np.float64), phi_sum.astype(np.float64),
            pi.astype(np.float64)[index], y, beta, 1e-4, mask=mask,
        )
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got, dtype=np.float64) / scale, ref / scale, rtol=0, atol=5e-5
        )

    def test_block_rows_follow_the_shapes(self):
        """~256 KiB per buffer: 4 rows at n=64, K=128; a last short block
        when m is no multiple of that; never more rows than the mini-batch."""
        rng = np.random.default_rng(3)
        for m, n, k, rows in [(10, 64, 128, 4), (3, 64, 128, 3), (40, 32, 32, 32)]:
            pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(rng, 200, m, n, k)
            ws = kernels.KernelWorkspace()
            got = FUSED.phi_gradient_sum(
                pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask, workspace=ws
            )
            assert ws.buffers()["phi_f"].size == rows * n * k
            _assert_same_bits(
                got, REF.phi_gradient_sum(pi_a, phi_sum, pi[index], y, beta, 1e-4, mask=mask)
            )

    def test_memmap_backed_table(self, tmp_path):
        rng = np.random.default_rng(4)
        pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(rng, 300, 20, 64, 128)
        np.save(tmp_path / "pi.npy", pi)
        mapped = np.load(tmp_path / "pi.npy", mmap_mode="r")
        assert isinstance(mapped, np.memmap)
        got = FUSED.phi_gradient_sum(pi_a, phi_sum, (mapped, index), y, beta, 1e-4, mask=mask)
        _assert_same_bits(
            got, REF.phi_gradient_sum(pi_a, phi_sum, pi[index], y, beta, 1e-4, mask=mask)
        )


class TestFloat32Tolerance:
    """float32 inputs: fused stays in float32 and tracks the float64
    reference to single-precision tolerance."""

    @given(
        m=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_phi_gradient(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(
            rng, m, n, k, dtype=np.float32
        )
        ws = kernels.KernelWorkspace()
        got = FUSED.phi_gradient_sum(
            pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
        )
        assert np.asarray(got).dtype == np.float32
        ref = REF.phi_gradient_sum(
            pi_a.astype(np.float64),
            phi_sum.astype(np.float64),
            pi_b.astype(np.float64),
            y, beta, 1e-4, mask=mask,
        )
        # Relative to the gradient magnitude: entries mix 1/phi terms of
        # very different scales, so compare against the row norm.
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got, dtype=np.float64) / scale, ref / scale,
            rtol=0, atol=5e-5,
        )

    @given(
        e=st.integers(min_value=1, max_value=100),
        k=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_theta_gradient(self, e, k, seed):
        rng = np.random.default_rng(seed)
        pi_a, pi_b, y, theta, weights = _theta_case(rng, e, k, dtype=np.float32)
        ws = kernels.KernelWorkspace()
        got = FUSED.theta_gradient_weighted(
            pi_a, pi_b, y, theta, 1e-4, weights=weights, workspace=ws
        )
        # theta itself is float64, so the gradient stays float64.
        assert np.asarray(got).dtype == np.float64
        ref = REF.theta_gradient_weighted(
            pi_a.astype(np.float64), pi_b.astype(np.float64), y, theta, 1e-4,
            weights=weights,
        )
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got) / scale, ref / scale, rtol=0, atol=2e-3
        )


class TestWorkspaceReuse:
    """One workspace across many different calls must never leak state."""

    def test_shrinking_and_growing_shapes(self):
        rng = np.random.default_rng(7)
        ws = kernels.KernelWorkspace()
        for m, n, k in [(8, 4, 16), (20, 10, 32), (3, 2, 5), (20, 10, 32), (1, 1, 1)]:
            pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, m, n, k)
            fresh = kernels.KernelWorkspace()
            reused = np.array(
                FUSED.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
                )
            )
            clean = np.array(
                FUSED.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=fresh
                )
            )
            np.testing.assert_array_equal(reused, clean)

    def test_interleaved_kernels_share_workspace(self):
        rng = np.random.default_rng(8)
        ws = kernels.KernelWorkspace()
        for _ in range(3):
            pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, 12, 6, 24)
            t_pi_a, t_pi_b, t_y, theta, weights = _theta_case(rng, 50, 24)
            got_phi = np.array(
                FUSED.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
                )
            )
            got_theta = np.array(
                FUSED.theta_gradient_weighted(
                    t_pi_a, t_pi_b, t_y, theta, 1e-4, weights=weights, workspace=ws
                )
            )
            np.testing.assert_array_equal(
                got_phi,
                REF.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask),
            )
            np.testing.assert_array_equal(
                got_theta,
                REF.theta_gradient_weighted(
                    t_pi_a, t_pi_b, t_y, theta, 1e-4, weights=weights
                ),
            )

    def test_dtype_switch_reallocates(self):
        rng = np.random.default_rng(9)
        ws = kernels.KernelWorkspace()
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, 6, 4, 8)
        FUSED.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws)
        pi_a32, phi_sum32, pi_b32 = (
            pi_a.astype(np.float32), phi_sum.astype(np.float32),
            pi_b.astype(np.float32),
        )
        got = FUSED.phi_gradient_sum(
            pi_a32, phi_sum32, pi_b32, y, beta, 1e-4, mask=mask, workspace=ws
        )
        assert np.asarray(got).dtype == np.float32

    def test_workspace_buffers_grow_never_shrink(self):
        ws = kernels.KernelWorkspace()
        a = ws.array("x", (10,), np.float64)
        assert a.shape == (10,)
        b = ws.array("x", (4,), np.float64)
        assert b.shape == (4,)
        # capacity stayed at 10 elements
        assert ws.buffers()["x"].size == 10
        c = ws.array("x", (32,), np.float64)
        assert c.shape == (32,)
        assert ws.buffers()["x"].size == 32


class TestRegistry:
    def test_available(self):
        names = kernels.available_backends()
        assert "reference" in names and "fused" in names

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("does-not-exist")

    def test_register_custom_backend(self):
        ref = kernels.get_backend("reference")
        custom = kernels.KernelBackend(
            "custom-test",
            phi_gradient_sum=ref.phi_gradient_sum,
            update_phi=ref.update_phi,
            theta_gradient_weighted=ref.theta_gradient_weighted,
            update_theta=ref.update_theta,
        )
        try:
            kernels.register_backend(custom)
            assert kernels.get_backend("custom-test") is custom
        finally:
            kernels._REGISTRY.pop("custom-test", None)

    def test_config_env_override(self, monkeypatch):
        from repro.config import AMMSBConfig

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert AMMSBConfig().kernel_backend == "reference"
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert AMMSBConfig().kernel_backend == "fused"

    def test_sampler_rejects_unknown_backend(self):
        from repro.config import AMMSBConfig
        from repro.core.sampler import AMMSBSampler
        from repro.graph.generators import planted_overlapping_graph

        graph, _ = planted_overlapping_graph(
            40, 2, 1, rng=np.random.default_rng(0)
        )
        cfg = AMMSBConfig(n_communities=4, kernel_backend="no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            AMMSBSampler(graph, cfg)


class TestWeightedThetaGradient:
    """The weighted batched call equals the per-stratum scale loop."""

    def test_matches_per_stratum_loop(self):
        rng = np.random.default_rng(11)
        k = 16
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        strata = []
        for scale in (3.0, 40.0, 0.5):
            e = int(rng.integers(5, 40))
            pi_a = rng.dirichlet(np.ones(k), size=e)
            pi_b = rng.dirichlet(np.ones(k), size=e)
            y = (rng.random(e) < 0.5).astype(np.int64)
            strata.append((pi_a, pi_b, y, scale))
        looped = np.zeros_like(theta)
        for pi_a, pi_b, y, scale in strata:
            looped += scale * gradients.theta_gradient_sum(
                pi_a, pi_b, y, theta, 1e-4
            )
        cat = lambda i: np.concatenate([s[i] for s in strata])
        weights = np.concatenate(
            [np.full(len(s[2]), s[3]) for s in strata]
        )
        for backend in (REF, FUSED):
            got = backend.theta_gradient_weighted(
                cat(0), cat(1), cat(2), theta, 1e-4,
                weights=weights, workspace=kernels.KernelWorkspace(),
            )
            np.testing.assert_allclose(np.asarray(got), looped, rtol=1e-12)


class TestLinkProbabilityKernel:
    """The serving hot path kernel obeys the same backend contract."""

    @given(
        h=st.integers(min_value=1, max_value=80),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_float64_bit_exact(self, h, k, seed):
        rng = np.random.default_rng(seed)
        pi_a = rng.dirichlet(np.ones(k), size=h)
        pi_b = rng.dirichlet(np.ones(k), size=h)
        beta = rng.uniform(0.05, 0.95, k)
        ws = kernels.KernelWorkspace()
        ref = REF.link_probability(pi_a, pi_b, beta, 1e-7)
        got = FUSED.link_probability(pi_a, pi_b, beta, 1e-7, workspace=ws)
        np.testing.assert_array_equal(np.asarray(got), ref)

    @given(
        h=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_float32_stays_float32(self, h, k, seed):
        rng = np.random.default_rng(seed)
        pi_a = rng.dirichlet(np.ones(k), size=h).astype(np.float32)
        pi_b = rng.dirichlet(np.ones(k), size=h).astype(np.float32)
        beta = rng.uniform(0.05, 0.95, k)
        ws = kernels.KernelWorkspace()
        got = FUSED.link_probability(pi_a, pi_b, beta, 1e-7, workspace=ws)
        assert np.asarray(got).dtype == np.float32
        ref = REF.link_probability(
            pi_a.astype(np.float64), pi_b.astype(np.float64), beta, 1e-7
        )
        np.testing.assert_allclose(np.asarray(got), ref, rtol=2e-4, atol=2e-6)

    def test_values_clipped_to_open_interval(self):
        # degenerate memberships drive p toward 0/1; the floor must hold
        k = 4
        pi_a = np.eye(k)[:2]
        pi_b = np.eye(k)[:2]
        beta = np.array([1.0 - 1e-16, 0.5, 0.5, 0.5])
        for backend in (REF, FUSED):
            p = np.asarray(backend.link_probability(pi_a, pi_b, beta, 1e-12))
            assert np.all((p > 0) & (p < 1))

    def test_broadcast_row_matches_pairwise(self):
        """recommend_edges relies on broadcast pi_a being bit-identical."""
        rng = np.random.default_rng(5)
        k, n = 8, 30
        pi = rng.dirichlet(np.ones(k), size=n)
        beta = rng.uniform(0.05, 0.95, k)
        ws = kernels.KernelWorkspace()
        row = np.broadcast_to(pi[3], pi.shape)
        got = np.array(FUSED.link_probability(row, pi, beta, 1e-7, workspace=ws))
        pairwise = np.array(
            FUSED.link_probability(np.tile(pi[3], (n, 1)), pi, beta, 1e-7)
        )
        np.testing.assert_array_equal(got, pairwise)
