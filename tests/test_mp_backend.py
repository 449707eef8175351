"""Multiprocess backend: real OS-process workers over shared memory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.spec import das5
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import kernels
from repro.core.state import init_state
from repro.dist.mp import MultiprocessAMMSBSampler
from repro.dist.sampler import DistributedAMMSBSampler
from repro.graph.split import split_heldout


@pytest.fixture(scope="module")
def problem():
    from repro.graph.generators import planted_overlapping_graph

    rng = np.random.default_rng(7)
    graph, _ = planted_overlapping_graph(
        150, 4, memberships_per_vertex=1, p_in=0.25, p_out=0.005, rng=rng
    )
    split = split_heldout(graph, 0.03, np.random.default_rng(2))
    cfg = AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=32,
        neighbor_sample_size=12,
        seed=5,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    return split, cfg


class TestMultiprocess:
    def test_runs_and_preserves_invariants(self, problem):
        split, cfg = problem
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=2) as s:
            s.run(10)
            snap = s.state_snapshot()
        snap.validate()

    def test_matches_inprocess_backend_exactly(self, problem):
        """Same seeds, same worker count: the OS-process backend and the
        in-process simulated backend produce identical states — they run
        the same protocol, kernels, and RNG streams."""
        split, cfg = problem
        st0 = init_state(split.train.n_vertices, cfg, np.random.default_rng(9))

        inproc = DistributedAMMSBSampler(
            split.train, cfg, cluster=das5(3), pipelined=True, state=st0.copy()
        )
        inproc.run(8)

        with MultiprocessAMMSBSampler(
            split.train, cfg, n_workers=3, state=st0.copy()
        ) as mproc:
            mproc.run(8)
            snap_mp = mproc.state_snapshot()
        snap_in = inproc.state_snapshot()
        np.testing.assert_allclose(snap_mp.pi, snap_in.pi, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(snap_mp.theta, snap_in.theta, rtol=1e-12)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_matches_inprocess_backend_bit_for_bit(self, problem, backend, dtype):
        """Both engines host the same WorkerContext over a ``[pi | phi_sum]``
        table, so free runs (held-out pairs masked out of the neighbor
        sets) are bit-identical for every registered backend and dtype."""
        split, cfg = problem
        cfg = cfg.with_updates(kernel_backend=backend, dtype=dtype)
        st0 = init_state(split.train.n_vertices, cfg, np.random.default_rng(9))
        inproc = DistributedAMMSBSampler(
            split.train, cfg, cluster=das5(3), heldout=split, state=st0.copy()
        )
        inproc.run(8)
        with MultiprocessAMMSBSampler(
            split.train, cfg, n_workers=3, heldout=split, state=st0.copy()
        ) as mproc:
            mproc.run(8)
            snap_mp = mproc.state_snapshot()
        snap_in = inproc.state_snapshot()
        assert snap_mp.pi.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(snap_mp.pi, snap_in.pi)
        np.testing.assert_array_equal(snap_mp.phi_sum, snap_in.phi_sum)
        np.testing.assert_array_equal(snap_mp.theta, snap_in.theta)

    def test_perplexity_tracks_and_converges(self, problem):
        split, cfg = problem
        with MultiprocessAMMSBSampler(
            split.train, cfg, n_workers=2, heldout=split
        ) as s:
            s.run(50)
            early = s.evaluate_perplexity()
            assert np.isfinite(early)
            s.run(800, perplexity_every=100)
            late = s.evaluate_perplexity()
        assert late < early * 1.1  # trending down or stable, never exploding

    def test_close_is_idempotent_and_blocks_use(self, problem):
        split, cfg = problem
        s = MultiprocessAMMSBSampler(split.train, cfg, n_workers=2)
        s.run(2)
        s.close()
        s.close()
        with pytest.raises(RuntimeError):
            s.step()

    def test_invalid_worker_count(self, problem):
        split, cfg = problem
        with pytest.raises(ValueError):
            MultiprocessAMMSBSampler(split.train, cfg, n_workers=0)

    def test_float32_table(self, problem):
        split, cfg = problem
        cfg32 = cfg.with_updates(dtype="float32")
        with MultiprocessAMMSBSampler(split.train, cfg32, n_workers=2) as s:
            s.run(5)
            snap = s.state_snapshot()
        assert snap.pi.dtype == np.float32
        snap.validate()


class TestSharedGraphPath:
    def test_graph_path_run_is_bit_identical(self, problem, tmp_path):
        """Workers mapping a shared read-only CSR container reproduce the
        ship-adjacency-over-pipes run exactly."""
        from repro.graph.io import save_csr

        split, cfg = problem
        st0 = init_state(split.train.n_vertices, cfg, np.random.default_rng(4))
        container = save_csr(split.train, tmp_path / "train_csr")

        with MultiprocessAMMSBSampler(
            split.train, cfg, n_workers=2, state=st0.copy()
        ) as piped:
            piped.run(8)
            snap_piped = piped.state_snapshot()
        with MultiprocessAMMSBSampler(
            split.train, cfg, n_workers=2, state=st0.copy(),
            graph_path=container,
        ) as mapped:
            mapped.run(8)
            snap_mapped = mapped.state_snapshot()

        np.testing.assert_array_equal(snap_mapped.pi, snap_piped.pi)
        np.testing.assert_array_equal(snap_mapped.theta, snap_piped.theta)

    def test_graph_path_vertex_mismatch_rejected(self, problem, tmp_path):
        from repro.graph.generators import planted_overlapping_graph
        from repro.graph.io import save_csr

        split, cfg = problem
        other, _ = planted_overlapping_graph(
            60, 3, memberships_per_vertex=1, p_in=0.3, p_out=0.01,
            rng=np.random.default_rng(0),
        )
        container = save_csr(other, tmp_path / "other_csr")
        with pytest.raises(ValueError, match="n_vertices"):
            MultiprocessAMMSBSampler(
                split.train, cfg, n_workers=2, graph_path=container
            )


class TestArtifactPublishing:
    """The training loop can feed a serving process through the filesystem."""

    def test_periodic_publish(self, problem, tmp_path):
        from repro.serve.artifact import load_artifact

        split, cfg = problem
        pub = tmp_path / "live.npz"
        with MultiprocessAMMSBSampler(
            split.train, cfg, n_workers=2,
            publish_path=pub, publish_every=2,
        ) as s:
            s.run(5)
            art = load_artifact(pub)
            assert art.iteration == 4  # last multiple of publish_every
            assert art.n_nodes == split.train.n_vertices
            art.validate()
            # one more step crosses the next publish boundary
            s.run(1)
            assert load_artifact(pub).iteration == 6

    def test_explicit_publish_and_hot_swap(self, problem, tmp_path):
        from repro.serve.artifact import load_artifact
        from repro.serve.server import ModelServer

        split, cfg = problem
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=2) as s:
            s.run(2)
            first = load_artifact(s.publish_artifact(tmp_path / "a.npz"))
            with ModelServer(first, n_workers=0) as server:
                s.run(2)
                second = load_artifact(s.publish_artifact(tmp_path / "a.npz"))
                assert second.version != first.version
                gen = server.publish(second)
                assert gen == 1
                assert server.artifact.iteration == 4

    def test_publish_without_path_rejected(self, problem):
        split, cfg = problem
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=2) as s:
            with pytest.raises(ValueError, match="no publish path"):
                s.publish_artifact()
