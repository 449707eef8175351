"""Numba JIT backend suite: equivalence, determinism, fallback.

The ``numba`` backend (:mod:`repro.core.kernels_numba`) is
tolerance-based against ``reference`` in float64 — its per-edge loop
accumulation orders differently than numpy's pairwise summation, so
bit-exactness is not promised — and must keep float32 inputs in float32
like every backend. The loop bodies run whether or not numba is
installed (the ``@njit`` decorator degrades to identity), so this suite
exercises the exact shipped arithmetic everywhere; on a numba-equipped
host the same tests additionally cover the compiled specializations.

Also covered here: the fail-soft resolution rules of
:func:`repro.core.kernels.resolve_backend` (environment-sourced misses
warn and fall back to ``fused``; explicit config misses raise typed),
checkpoint round-tripping of the *resolved* backend name, and the
no-numba import fallback via a monkeypatched ``sys.modules``.
"""

from __future__ import annotations

import importlib.util
import logging
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gradients, kernels
from repro.core import kernels_numba as kn

REF = kernels.get_backend("reference")

# Without numba the loops run as plain Python — keep hypothesis shapes
# modest there, larger when the compiled versions are actually on.
_DIM = (lambda cap_py, cap_jit: cap_jit if kn.NUMBA_AVAILABLE else cap_py)


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


class TestFloat64Tolerance:
    """float64: the loop accumulation must track the reference tightly."""

    @given(
        m=st.integers(min_value=1, max_value=_DIM(12, 40)),
        n=st.integers(min_value=1, max_value=_DIM(8, 20)),
        k=st.integers(min_value=1, max_value=_DIM(16, 48)),
        seed=st.integers(min_value=0, max_value=10_000),
        masked=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_phi_gradient(self, m, n, k, seed, masked):
        rng = np.random.default_rng(seed)
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, m, n, k, masked=masked)
        ws = kernels.KernelWorkspace()
        ref = REF.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask)
        got = kn.phi_gradient_sum(
            pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
        )
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got) / scale, ref / scale, rtol=0, atol=1e-12
        )

    @given(
        m=st.integers(min_value=1, max_value=_DIM(12, 40)),
        n=st.integers(min_value=1, max_value=_DIM(8, 20)),
        k=st.integers(min_value=1, max_value=_DIM(16, 48)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_phi_gradient_from_a_deferred_gather(self, m, n, k, seed):
        """``(table, index)`` in place of the gathered rows: gathered up
        front here, the same answer, and a stray id is an IndexError."""
        rng = np.random.default_rng(seed)
        pi_a, phi_sum, _, y, beta, mask = _phi_case(rng, m, n, k)
        table = np.concatenate([rng.dirichlet(np.ones(k), size=30), np.ones((30, 1))], axis=1)
        pi, index = table[:, :-1], rng.integers(0, 30, size=(m, n))
        got = kn.phi_gradient_sum(pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask)
        want = kn.phi_gradient_sum(pi_a, phi_sum, pi[index], y, beta, 1e-4, mask=mask)
        np.testing.assert_array_equal(np.array(got), want)
        for index[-1, -1] in (-1, 30):
            with pytest.raises(IndexError, match="table of 30 rows"):
                kn.phi_gradient_sum(pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask)

    @given(
        m=st.integers(min_value=1, max_value=_DIM(12, 40)),
        k=st.integers(min_value=1, max_value=_DIM(16, 48)),
        seed=st.integers(min_value=0, max_value=10_000),
        array_scale=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_update_phi(self, m, k, seed, array_scale):
        rng = np.random.default_rng(seed)
        phi = rng.gamma(2.0, 1.0, size=(m, k)) + 1e-3
        grad = rng.standard_normal((m, k)) * 10.0
        noise = rng.standard_normal((m, k))
        scale = rng.uniform(1.0, 500.0, size=(m, 1)) if array_scale else 250.0
        ws = kernels.KernelWorkspace()
        ref = REF.update_phi(phi, grad, 0.01, 0.1, scale, noise)
        got = kn.update_phi(phi, grad, 0.01, 0.1, scale, noise, workspace=ws)
        np.testing.assert_allclose(np.asarray(got), ref, rtol=1e-12)

    @given(
        e=st.integers(min_value=1, max_value=_DIM(60, 200)),
        k=st.integers(min_value=1, max_value=_DIM(16, 48)),
        seed=st.integers(min_value=0, max_value=10_000),
        weighted=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_theta_gradient(self, e, k, seed, weighted):
        rng = np.random.default_rng(seed)
        pi_a, pi_b, y, theta, weights = _theta_case(rng, e, k)
        if not weighted:
            weights = None
        ws = kernels.KernelWorkspace()
        ref = REF.theta_gradient_weighted(pi_a, pi_b, y, theta, 1e-4, weights=weights)
        got = kn.theta_gradient_weighted(
            pi_a, pi_b, y, theta, 1e-4, weights=weights, workspace=ws
        )
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got) / scale, ref / scale, rtol=0, atol=1e-10
        )

    @given(
        k=st.integers(min_value=1, max_value=_DIM(16, 48)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_update_theta(self, k, seed):
        rng = np.random.default_rng(seed)
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        grad = rng.standard_normal((k, 2))
        noise = rng.standard_normal((k, 2))
        ref = REF.update_theta(theta, grad, 0.01, (1.0, 1.5), 5.0, noise)
        got = kn.update_theta(theta, grad, 0.01, (1.0, 1.5), 5.0, noise)
        np.testing.assert_allclose(np.asarray(got), ref, rtol=1e-12)

    @given(
        h=st.integers(min_value=1, max_value=_DIM(30, 80)),
        k=st.integers(min_value=1, max_value=_DIM(16, 48)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_link_probability(self, h, k, seed):
        rng = np.random.default_rng(seed)
        pi_a = rng.dirichlet(np.ones(k), size=h)
        pi_b = rng.dirichlet(np.ones(k), size=h)
        beta = rng.uniform(0.05, 0.95, k)
        ws = kernels.KernelWorkspace()
        ref = REF.link_probability(pi_a, pi_b, beta, 1e-7)
        got = kn.link_probability(pi_a, pi_b, beta, 1e-7, workspace=ws)
        np.testing.assert_allclose(np.asarray(got), ref, rtol=1e-12)


class TestFloat32StaysFloat32:
    """float32 pi inputs: float32 outputs, single-precision tolerance."""

    @given(
        m=st.integers(min_value=1, max_value=_DIM(10, 24)),
        n=st.integers(min_value=1, max_value=_DIM(6, 12)),
        k=st.integers(min_value=2, max_value=_DIM(12, 32)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_phi_gradient(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, m, n, k, dtype=np.float32)
        ws = kernels.KernelWorkspace()
        got = kn.phi_gradient_sum(
            pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
        )
        assert np.asarray(got).dtype == np.float32
        ref = REF.phi_gradient_sum(
            pi_a.astype(np.float64), phi_sum.astype(np.float64),
            pi_b.astype(np.float64), y, beta, 1e-4, mask=mask,
        )
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got, dtype=np.float64) / scale, ref / scale,
            rtol=0, atol=5e-5,
        )

    @given(
        e=st.integers(min_value=1, max_value=_DIM(40, 100)),
        k=st.integers(min_value=2, max_value=_DIM(12, 32)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_theta_gradient(self, e, k, seed):
        rng = np.random.default_rng(seed)
        pi_a, pi_b, y, theta, weights = _theta_case(rng, e, k, dtype=np.float32)
        ws = kernels.KernelWorkspace()
        got = kn.theta_gradient_weighted(
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

    def test_update_phi_and_link_dtype(self):
        rng = np.random.default_rng(3)
        m, k = 6, 8
        phi = (rng.gamma(2.0, 1.0, size=(m, k)) + 1e-3).astype(np.float32)
        pi = rng.dirichlet(np.ones(k), size=m).astype(np.float32)
        beta = rng.uniform(0.05, 0.95, k)
        ws = kernels.KernelWorkspace()
        up = kn.update_phi(
            phi, rng.standard_normal((m, k)), 0.01, 0.1, 10.0,
            rng.standard_normal((m, k)), workspace=ws,
        )
        assert np.asarray(up).dtype == np.float32
        lp = kn.link_probability(pi, pi[::-1].copy(), beta, 1e-7, workspace=ws)
        assert np.asarray(lp).dtype == np.float32


class TestWorkspaceReuse:
    """One workspace across shrinking/growing calls never leaks state."""

    def test_shrinking_and_growing_shapes(self):
        rng = np.random.default_rng(7)
        ws = kernels.KernelWorkspace()
        for m, n, k in [(8, 4, 16), (20, 10, 32), (3, 2, 5), (20, 10, 32), (1, 1, 1)]:
            pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, m, n, k)
            reused = np.array(
                kn.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
                )
            )
            clean = np.array(
                kn.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask,
                    workspace=kernels.KernelWorkspace(),
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
                kn.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
                )
            )
            got_theta = kn.theta_gradient_weighted(
                t_pi_a, t_pi_b, t_y, theta, 1e-4, weights=weights, workspace=ws
            )
            ref_phi = REF.phi_gradient_sum(
                pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask
            )
            ref_theta = REF.theta_gradient_weighted(
                t_pi_a, t_pi_b, t_y, theta, 1e-4, weights=weights
            )
            scale = np.maximum(np.abs(ref_phi).max(), 1.0)
            np.testing.assert_allclose(
                got_phi / scale, ref_phi / scale, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(got_theta, ref_theta, rtol=1e-9, atol=1e-10)

    def test_dtype_switch_reallocates(self):
        rng = np.random.default_rng(9)
        ws = kernels.KernelWorkspace()
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, 6, 4, 8)
        kn.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws)
        got = kn.phi_gradient_sum(
            pi_a.astype(np.float32), phi_sum.astype(np.float32),
            pi_b.astype(np.float32), y, beta, 1e-4, mask=mask, workspace=ws,
        )
        assert np.asarray(got).dtype == np.float32


class TestDeterminism:
    """The parallel reductions must be bit-reproducible call over call."""

    def test_phi_gradient_repeatable(self):
        rng = np.random.default_rng(21)
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, 16, 8, 12)
        ws = kernels.KernelWorkspace()
        first = np.array(
            kn.phi_gradient_sum(
                pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
            )
        )
        for _ in range(3):
            again = np.array(
                kn.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
                )
            )
            np.testing.assert_array_equal(again, first)

    def test_theta_gradient_repeatable_across_blocks(self, monkeypatch):
        """Multiple edge blocks (the prange reduction axis) stay bitwise
        stable: fixed block partials + index-ordered combine."""
        monkeypatch.setattr(kn, "THETA_BLOCK", 64)
        rng = np.random.default_rng(22)
        e = 300 if not kn.NUMBA_AVAILABLE else 5000  # 5+ blocks either way
        pi_a, pi_b, y, theta, weights = _theta_case(rng, e, 8)
        ws = kernels.KernelWorkspace()
        first = kn.theta_gradient_weighted(
            pi_a, pi_b, y, theta, 1e-4, weights=weights, workspace=ws
        )
        for _ in range(3):
            again = kn.theta_gradient_weighted(
                pi_a, pi_b, y, theta, 1e-4, weights=weights, workspace=ws
            )
            np.testing.assert_array_equal(again, first)
        ref = REF.theta_gradient_weighted(pi_a, pi_b, y, theta, 1e-4, weights=weights)
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(first / scale, ref / scale, rtol=0, atol=1e-10)

    def test_link_probability_repeatable(self):
        rng = np.random.default_rng(23)
        pi_a = rng.dirichlet(np.ones(16), size=64)
        pi_b = rng.dirichlet(np.ones(16), size=64)
        beta = rng.uniform(0.05, 0.95, 16)
        ws = kernels.KernelWorkspace()
        first = np.array(kn.link_probability(pi_a, pi_b, beta, 1e-7, workspace=ws))
        again = np.array(kn.link_probability(pi_a, pi_b, beta, 1e-7, workspace=ws))
        np.testing.assert_array_equal(again, first)


class TestRegistrationAndWarmup:
    def test_registered_iff_numba_available(self):
        names = kernels.available_backends()
        assert ("numba" in names) == kn.NUMBA_AVAILABLE

    def test_warmup_idempotent(self):
        kn.warmup()
        kn.warmup()
        assert kn._WARMED

    def test_backend_warmup_hook(self):
        # Backends without a hook no-op; the numba backend runs warmup().
        kernels.get_backend("fused").warmup()
        kernels.get_backend("reference").warmup()
        if kn.NUMBA_AVAILABLE:
            kernels.get_backend("numba").warmup()
            assert kn._WARMED

    @pytest.mark.skipif(not kn.NUMBA_AVAILABLE, reason="numba not installed")
    def test_numba_backend_resolves_and_runs(self):
        backend = kernels.resolve_backend("numba")
        assert backend.name == "numba"
        rng = np.random.default_rng(1)
        pi = rng.dirichlet(np.ones(8), size=4)
        p = backend.link_probability(pi, pi[::-1].copy(), np.full(8, 0.5), 1e-7)
        assert np.all((np.asarray(p) > 0) & (np.asarray(p) < 1))


class TestNoNumbaImportFallback:
    """With numba unimportable, the module degrades to pure Python."""

    def _load_without_numba(self, monkeypatch):
        # None in sys.modules makes ``import numba`` raise ImportError.
        monkeypatch.setitem(sys.modules, "numba", None)
        spec = importlib.util.spec_from_file_location(
            "repro_kernels_numba_nonumba", kn.__file__
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_flags_and_correctness(self, monkeypatch):
        mod = self._load_without_numba(monkeypatch)
        assert mod.NUMBA_AVAILABLE is False
        rng = np.random.default_rng(4)
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, 5, 3, 6)
        got = mod.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask)
        ref = gradients.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask)
        np.testing.assert_allclose(np.asarray(got), ref, rtol=1e-9, atol=1e-12)

    def test_warmup_is_noop(self, monkeypatch):
        mod = self._load_without_numba(monkeypatch)
        mod.warmup()
        assert mod._WARMED


class TestFailSoftResolution:
    def test_explicit_miss_raises_typed(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("no-such-backend")

    def test_env_sourced_miss_warns_and_falls_back(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "no-such-backend")
        with caplog.at_level(logging.WARNING, logger="repro.core.kernels"):
            backend = kernels.resolve_backend("no-such-backend")
        assert backend.name == "fused"
        assert any("falling back" in r.message for r in caplog.records)

    def test_allow_fallback_true_always_falls_back(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.kernels"):
            backend = kernels.resolve_backend("definitely-missing", allow_fallback=True)
        assert backend.name == "fused"

    def test_allow_fallback_false_is_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "missing-too")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("missing-too", allow_fallback=False)

    def test_sampler_env_fallback_and_checkpoint_roundtrip(
        self, monkeypatch, tmp_path
    ):
        """Env-selected unavailable backend: the sampler falls back, its
        config records the *resolved* name, and a checkpoint round-trip
        preserves it exactly."""
        from repro.config import AMMSBConfig
        from repro.core.checkpoint import load_checkpoint, save_checkpoint
        from repro.core.sampler import AMMSBSampler
        from repro.graph.generators import planted_overlapping_graph

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "not-installed-backend")
        graph, _ = planted_overlapping_graph(40, 2, 1, rng=np.random.default_rng(0))
        cfg = AMMSBConfig(n_communities=4)  # picks the env name up
        assert cfg.kernel_backend == "not-installed-backend"
        sampler = AMMSBSampler(graph, cfg)
        assert sampler.kernels.name == "fused"
        assert sampler.config.kernel_backend == "fused"

        sampler.run(2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, sampler)
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        restored = load_checkpoint(path, graph)
        assert restored.config.kernel_backend == "fused"
        assert restored.kernels.name == "fused"

    def test_query_engine_artifact_fallback(self):
        """Artifact configs may name a backend this host lacks (trained
        elsewhere): the engine serves on fused instead of crashing."""
        import dataclasses

        from repro.bench.chaosbench import synthetic_artifact
        from repro.serve.engine import QueryEngine

        art = synthetic_artifact(30, 4, seed=0)
        art = dataclasses.replace(
            art,
            config=art.config.with_updates(
                kernel_backend="backend-from-another-host"
            ),
        )
        engine = QueryEngine(art)
        assert engine.kernels.name == "fused"
        p = engine.link_probability(np.array([[0, 1], [2, 3]]))
        assert p.shape == (2,)
        # An *explicit* bad selection is still a caller error.
        with pytest.raises(ValueError, match="unknown kernel backend"):
            QueryEngine(art, backend="backend-from-another-host")
