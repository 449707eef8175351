"""Multiprocess backend: real OS-process workers over shared memory."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.cluster.spec import das5
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import kernels
from repro.core.sampler import AMMSBSampler
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
        """Same seed, different worker counts: the OS-process backend on
        two workers and the in-process simulated backend on three end on
        one state — randomness is keyed by block, not by worker."""
        split, cfg = problem
        cfg = cfg.with_updates(mini_batch_vertices=140)
        st0 = init_state(split.train.n_vertices, cfg, np.random.default_rng(9))

        inproc = DistributedAMMSBSampler(
            split.train, cfg, cluster=das5(3), pipelined=True, state=st0.copy()
        )
        inproc.run(8)

        with MultiprocessAMMSBSampler(
            split.train, cfg, n_workers=2, state=st0.copy()
        ) as mproc:
            mproc.run(8)
            snap_mp = mproc.state_snapshot()
        snap_in = inproc.state_snapshot()
        np.testing.assert_array_equal(snap_mp.pi, snap_in.pi)
        np.testing.assert_array_equal(snap_mp.theta, snap_in.theta)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_matches_inprocess_backend_bit_for_bit(self, problem, backend, dtype):
        """Both engines host the same WorkerContext, over the shared
        ``pi`` / ``phi_sum`` segment and behind the DKV store: free runs (held-out pairs
        masked out of the neighbor sets) are bit-identical for every
        registered backend and dtype."""
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


class TestResume:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_resumed_run_is_the_uninterrupted_run(self, problem, tmp_path, dtype):
        """``run(6)``, checkpoint, close, resume, ``run(6)`` ends on
        ``run(12)``'s state, mp and sequential: an iteration is a pure
        function of (seed, t, state), so the checkpoint needs no stream.
        The engine does not persist itself; the shared functions do."""
        from repro.core.checkpoint import load_state_checkpoint, save_state_checkpoint

        split, cfg = problem
        cfg = cfg.with_updates(dtype=dtype, mini_batch_vertices=140)
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=2, heldout=split) as s:
            s.run(6)
            save_state_checkpoint(tmp_path / "ck", s.state_snapshot(), s.iteration, s.config)
        state, iteration, config = load_state_checkpoint(tmp_path / "ck")
        with MultiprocessAMMSBSampler(
            split.train, config, n_workers=2, heldout=split, state=state
        ) as resumed:
            resumed.iteration = iteration
            assert resumed.iteration == 6
            resumed.run(6)
            got = resumed.state_snapshot()
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=2, heldout=split) as s:
            s.run(12)
            whole = s.state_snapshot()
        sequential = AMMSBSampler(split.train, cfg, heldout=split)
        sequential.run(12)
        for name in ("pi", "phi_sum", "theta"):
            np.testing.assert_array_equal(getattr(got, name), getattr(whole, name))
            np.testing.assert_array_equal(getattr(got, name), getattr(sequential.state, name))
        assert got.pi.dtype == np.dtype(dtype)


class TestInheritedGraph:
    def test_workers_answer_y_ab_from_the_graph_they_forked_with(self, problem, monkeypatch):
        """No ``phi_compute`` shard carries an adjacency slice, and the
        workers — forked with ``repro.graph.io`` made unimportable — end
        on the sequential engine's state: they read ``y_ab`` from the
        graph they inherited, not from a slice or a container."""
        split, cfg = problem
        cfg = cfg.with_updates(mini_batch_vertices=140)
        monkeypatch.setitem(sys.modules, "repro.graph.io", None)
        shards = []
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=2) as s:
            real_send = s.transport._send

            def send(worker, payload):
                if payload[0] == "phi_compute":
                    shards.append(payload[2])
                real_send(worker, payload)

            s.transport._send = send
            s.run(8)
            snap = s.state_snapshot()
        assert len(shards) == 16
        assert any(shard.vertices.size for shard in shards[1::2])  # not one worker alone
        sequential = AMMSBSampler(split.train, cfg)
        sequential.run(8)
        np.testing.assert_array_equal(snap.pi, sequential.state.pi)
        np.testing.assert_array_equal(snap.phi_sum, sequential.state.phi_sum)
        np.testing.assert_array_equal(snap.theta, sequential.state.theta)


class TestArtifactPublishing:
    """The training loop can feed a serving process through the filesystem."""

    def test_explicit_publish_and_hot_swap(self, problem, tmp_path):
        from repro.serve.artifact import export_artifact, load_artifact
        from repro.serve.server import ModelServer

        split, cfg = problem
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=2) as s:

            def publish():
                return export_artifact(
                    tmp_path / "a", s.state_snapshot(), s.config, iteration=s.iteration
                )

            s.run(2)
            first = load_artifact(publish())
            with ModelServer(first, n_workers=0) as server:
                s.run(2)
                second = load_artifact(publish())
                assert second.version != first.version
                gen = server.publish(second)
                assert gen == 1
                assert server.artifact.iteration == 4
