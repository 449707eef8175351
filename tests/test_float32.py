"""float32 storage mode (the paper's 32-bit pi/phi arrays)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.spec import das5
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.sampler import AMMSBSampler
from repro.core.state import init_state
from repro.dist.sampler import DistributedAMMSBSampler
from repro.graph.split import split_heldout


@pytest.fixture()
def f32_config(config):
    return config.with_updates(dtype="float32")


class TestState:
    def test_arrays_are_float32(self, f32_config):
        st = init_state(50, f32_config)
        assert st.pi.dtype == np.float32
        assert st.phi_sum.dtype == np.float32
        st.validate()

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            AMMSBConfig(dtype="float16")

    def test_set_phi_rows_keeps_dtype(self, f32_config, rng):
        st = init_state(20, f32_config, rng)
        st.set_phi_rows(np.array([0, 1]), rng.gamma(2.0, 1.0, size=(2, 4)))
        assert st.pi.dtype == np.float32
        st.validate()

    def test_memory_halves(self, config, f32_config):
        st64 = init_state(100, config)
        st32 = init_state(100, f32_config)
        assert st32.pi.nbytes == st64.pi.nbytes // 2


class TestSampling:
    def test_sequential_runs_and_converges_similarly(self, planted, config, f32_config):
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        results = {}
        for cfg in (config, f32_config):
            cfg = cfg.with_updates(
                step_phi=StepSizeConfig(a=0.05), step_theta=StepSizeConfig(a=0.05)
            )
            s = AMMSBSampler(split.train, cfg, heldout=split)
            s.run(1200, perplexity_every=100)
            s.state.validate()
            results[cfg.dtype] = s.perplexity_estimator.value()
        # Same run at different storage precision: close perplexities.
        assert abs(results["float32"] - results["float64"]) / results["float64"] < 0.1

    def test_distributed_f32_dkv(self, planted, f32_config):
        graph, _ = planted
        d = DistributedAMMSBSampler(graph, f32_config, cluster=das5(3))
        assert d.dkv.dtype == np.dtype("float32")
        assert d.dkv.value_bytes == (f32_config.n_communities + 1) * 4
        d.run(10)
        snap = d.state_snapshot()
        assert snap.pi.dtype == np.float32
        snap.validate()

    def test_dkv_f32_traffic_halved(self, planted, config, f32_config):
        graph, _ = planted
        d64 = DistributedAMMSBSampler(graph, config, cluster=das5(2))
        d32 = DistributedAMMSBSampler(graph, f32_config, cluster=das5(2))
        assert d32.dkv.value_bytes * 2 == d64.dkv.value_bytes


class TestHotPathStaysFloat32:
    def test_fused_workspace_never_upcasts(self, planted, f32_config):
        """Acceptance: a float32 run keeps the (m, n, K) / (E, K) hot path
        in float32 — no float64 buffer may appear in the fused workspace.

        The reference path silently upcasts (beta/noise are float64); the
        fused backend instead casts the small operands down once per call,
        so every float buffer it allocates must be float32.
        """
        graph, _ = planted
        cfg = f32_config.with_updates(kernel_backend="fused")
        s = AMMSBSampler(graph, cfg)
        s.run(5)
        buffers = s.workspace.buffers()
        assert buffers, "fused sampler must populate its workspace"
        float64_buffers = sorted(
            name for name, buf in buffers.items() if buf.dtype == np.float64
        )
        assert not float64_buffers, float64_buffers
        # The phi path's block of neighbor rows and both contractions'
        # operands and outputs (sgemm, never an upcast) are float32.
        for name in ("phi_rows", "phi_q", "phi_o", "phi_w", "phi_g"):
            assert buffers[name].dtype == np.float32, name
        assert buffers["th_u"].dtype == np.float32

    def test_fused_outputs_match_state_dtype(self, planted, f32_config):
        graph, _ = planted
        s = AMMSBSampler(graph, f32_config)
        s.run(5)
        assert s.state.pi.dtype == np.float32
        assert s.state.phi_sum.dtype == np.float32
        assert s.state.theta.dtype == np.float64  # (K, 2) stays double
