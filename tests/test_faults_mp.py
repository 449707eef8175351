"""Chaos tests for the multiprocess backend: crash, stall, recovery.

These tests kill and wedge real worker processes and assert the master
detects the failure, re-partitions the dead worker's shard across the
survivors, and finishes the run — without ever hanging (every wait in
the master carries a poll deadline).
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import connection as mp_connection

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointError, load_state_checkpoint
from repro.dist.mp import MultiprocessAMMSBSampler
from repro.faults import FaultPlan, WorkerCrash, WorkerStall, chaos_plan
from repro.graph.split import HeldoutSplit

FAST = dict(heartbeat_timeout=15.0, poll_interval=0.02, shutdown_timeout=2.0)


class TestCrashRecovery:
    def test_killed_worker_is_replaced_by_survivors(self, split, config):
        """A worker dying mid-run must not stop or corrupt the run: the
        master re-partitions its shard and completes all iterations."""
        plan = FaultPlan(seed=1, worker_crashes=(WorkerCrash(worker=1, iteration=3),))
        with MultiprocessAMMSBSampler(
            split.train, config, n_workers=3, heldout=split, faults=plan, **FAST
        ) as s:
            s.run(8, perplexity_every=4)
            assert s.iteration == 8
            assert s.active_workers == (0, 2)
            assert len(s.recoveries) == 1
            ev = s.recoveries[0]
            assert ev.workers == (1,) and ev.iteration == 3 and not ev.stalled
            # Survivors carry the whole load from the retried iteration on.
            assert s.master.n_workers == 2
            snap = s.state_snapshot()
            snap.validate()
            perp = s.evaluate_perplexity()
            assert np.isfinite(perp) and perp > 1.0

    def test_multiple_crashes_leave_one_survivor(self, split, config):
        plan = FaultPlan(
            seed=2,
            worker_crashes=(
                WorkerCrash(worker=0, iteration=1),
                WorkerCrash(worker=2, iteration=3),
            ),
        )
        with MultiprocessAMMSBSampler(
            split.train, config, n_workers=3, faults=plan, **FAST
        ) as s:
            s.run(5)
            assert s.iteration == 5
            assert s.active_workers == (1,)
            assert len(s.recoveries) == 2
            s.state_snapshot().validate()

    def test_all_workers_lost_raises(self, split, config):
        plan = FaultPlan(seed=3, worker_crashes=(WorkerCrash(worker=0, iteration=1),))
        s = MultiprocessAMMSBSampler(split.train, config, n_workers=1, faults=plan, **FAST)
        try:
            s.step()
            with pytest.raises(RuntimeError, match="all workers lost"):
                s.step()
        finally:
            s.close()

    def test_wedged_worker_is_fenced_by_heartbeat(self, split, config):
        """A worker that stays silent (but alive) past the heartbeat is
        terminated and treated exactly like a crash."""
        plan = FaultPlan(
            seed=4, worker_stalls=(WorkerStall(worker=1, iteration=2, seconds=30.0),)
        )
        with MultiprocessAMMSBSampler(
            split.train,
            config,
            n_workers=3,
            faults=plan,
            heartbeat_timeout=0.5,
            poll_interval=0.02,
            shutdown_timeout=2.0,
        ) as s:
            t0 = time.monotonic()
            s.run(5)
            elapsed = time.monotonic() - t0
            assert s.iteration == 5
            assert s.active_workers == (0, 2)
            assert len(s.recoveries) == 1 and s.recoveries[0].stalled
            assert elapsed < 15.0  # fenced at ~0.5s, never waited the 30s out

    def test_short_stall_rides_out_without_recovery(self, split, config):
        """A stall shorter than the heartbeat costs time, not a worker."""
        plan = FaultPlan(
            seed=5, worker_stalls=(WorkerStall(worker=0, iteration=1, seconds=0.2),)
        )
        with MultiprocessAMMSBSampler(
            split.train, config, n_workers=2, faults=plan, **FAST
        ) as s:
            s.run(3)
            assert s.active_workers == (0, 1)
            assert s.recoveries == []


class TestPipeDiscipline:
    def test_sigkilled_worker_result_pipe_reaches_eof(self, split, config):
        """Regression: forked workers used to inherit (and keep open)
        the master's and every sibling's copies of all pipe ends, so a
        SIGKILLed worker's result pipe never delivered EOF — a worker
        killed mid-send left a partial pickle that blocked the master
        in recv() forever. With per-end hygiene the kill surfaces as
        EOF within bounded time, and recovery heals it normally."""
        s = MultiprocessAMMSBSampler(split.train, config, n_workers=2, **FAST)
        try:
            victim = s._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert victim.exitcode is not None
            ready = mp_connection.wait([s._res_pipes[0]], timeout=5.0)
            assert ready, "dead worker's result pipe never reached EOF"
            with pytest.raises((EOFError, OSError)):
                s._res_pipes[0].recv()
            s.step()  # the loss still heals through the normal path
            assert s.active_workers == (1,)
            assert len(s.recoveries) == 1
        finally:
            s.close()

    def test_perplexity_after_shrink_does_not_deadlock(self, split, config):
        """Regression: after recovery shrinks the active set, the master
        ships several held-out parts back-to-back to the same survivor.
        With plain blocking sends the master wedged writing the second
        command (pipe full, worker busy) while the worker wedged writing
        its >64KB probs result for the first (the master, not yet in
        _collect, never drained it) — a deadlock outside the heartbeat's
        reach. Parts here are sized so both the command and the result
        overflow the 64KB pipe buffer."""
        rng = np.random.default_rng(7)
        n = split.train.n_vertices
        a = rng.integers(0, n, size=40000)
        b = rng.integers(0, n, size=40000)
        keep = a != b
        pairs = np.column_stack([a[keep], b[keep]]).astype(np.int64)
        labels = rng.random(len(pairs)) < 0.1
        heldout = HeldoutSplit(split.train, pairs, labels)
        plan = FaultPlan(seed=9, worker_crashes=(WorkerCrash(worker=1, iteration=1),))
        with MultiprocessAMMSBSampler(
            split.train, config, n_workers=2, heldout=heldout, faults=plan, **FAST
        ) as s:
            s.run(2)
            assert s.active_workers == (0,)
            # Both ~20k-pair parts (≈320KB command, ≈160KB result) now
            # go to worker 0 back-to-back.
            for part in s._heldout_parts:
                assert part.pairs.nbytes > 65536
            perp = s.evaluate_perplexity()
            assert np.isfinite(perp) and perp > 1.0


class TestPromptClose:
    def test_close_terminates_wedged_worker_promptly(self, split, config):
        """Regression: close() must not block behind a wedged worker.

        Worker 0 is sent real work while a fault plan wedges it for 30
        simulated-real seconds; close() must return within the shutdown
        timeout (plus slack), not after the stall finishes.
        """
        plan = FaultPlan(
            seed=6, worker_stalls=(WorkerStall(worker=0, iteration=0, seconds=30.0),)
        )
        s = MultiprocessAMMSBSampler(
            split.train,
            config,
            n_workers=2,
            faults=plan,
            heartbeat_timeout=60.0,
            shutdown_timeout=1.0,
        )
        draw = s.master.draw()
        s._send(0, ("phi_compute", 1, draw.shards[0], s.beta, 0.01, 0))
        time.sleep(0.3)  # let worker 0 enter the stall
        t0 = time.monotonic()
        s.close()
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        for proc in s._procs:
            assert proc.exitcode is not None  # all reaped

    def test_close_is_idempotent_and_step_after_close_raises(self, split, config):
        s = MultiprocessAMMSBSampler(split.train, config, n_workers=2)
        s.close()
        s.close()
        with pytest.raises(RuntimeError, match="closed"):
            s.step()


class TestAutoCheckpoint:
    def test_periodic_checkpoints_and_resume(self, split, config, tmp_path):
        ckpt = tmp_path / "auto.npz"
        with MultiprocessAMMSBSampler(
            split.train,
            config,
            n_workers=2,
            checkpoint_path=ckpt,
            checkpoint_every=3,
            **FAST,
        ) as s:
            s.run(6)
            saved = s.state_snapshot()
        assert ckpt.exists()
        state, iteration, cfg = load_state_checkpoint(ckpt)
        assert iteration == 6
        assert cfg == config
        np.testing.assert_array_equal(state.pi, saved.pi)
        with MultiprocessAMMSBSampler.from_checkpoint(
            ckpt, split.train, n_workers=2, **FAST
        ) as resumed:
            assert resumed.iteration == 6
            np.testing.assert_array_equal(resumed.state_snapshot().pi, saved.pi)
            resumed.run(2)
            assert resumed.iteration == 8

    def test_checkpoint_survives_crash_recovery(self, split, config, tmp_path):
        """Auto-checkpointing keeps working after a worker loss."""
        ckpt = tmp_path / "chaos.npz"
        plan = FaultPlan(seed=8, worker_crashes=(WorkerCrash(worker=1, iteration=2),))
        with MultiprocessAMMSBSampler(
            split.train,
            config,
            n_workers=2,
            faults=plan,
            checkpoint_path=ckpt,
            checkpoint_every=2,
            **FAST,
        ) as s:
            s.run(4)
            assert len(s.recoveries) == 1
        state, iteration, _ = load_state_checkpoint(ckpt)
        assert iteration == 4
        state.validate()

    def test_missing_checkpoint_is_typed_error(self, split, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            MultiprocessAMMSBSampler.from_checkpoint(
                tmp_path / "nope.npz", split.train
            )


class TestChaosDrill:
    def test_acceptance_drill_completes(self, split, config):
        """The acceptance scenario: >=1 worker crash (real process),
        >=1 DKV server stall, >=5% RDMA failures — everything completes,
        nothing hangs, degradation is visible in the accounting."""
        from repro.cluster.dkv import timed_read_batch
        from repro.cluster.spec import das5
        from repro.dist.sampler import DistributedAMMSBSampler

        plan = chaos_plan(seed=2026, n_workers=3, crash_iteration=3)
        assert plan.worker_crashes and plan.server_stalls
        assert plan.rdma_failure_rate >= 0.05

        # Real process crash, healed by repartitioning.
        t0 = time.monotonic()
        with MultiprocessAMMSBSampler(
            split.train, config, n_workers=3, faults=plan, **FAST
        ) as s:
            s.run(8)
            assert s.iteration == 8
            assert len(s.recoveries) == 1
            assert len(s.active_workers) == 2
            s.state_snapshot().validate()
        assert time.monotonic() - t0 < 60.0

        # DKV server stall on the simulated cluster: stale degradation.
        sim_plan = FaultPlan(
            seed=plan.seed,
            server_stalls=plan.server_stalls,
            worker_stalls=plan.worker_stalls,
        )
        d = DistributedAMMSBSampler(
            split.train, config, cluster=das5(3), faults=sim_plan
        )
        d.run(6)
        assert d.dkv.fault_stats.stale_batches > 0
        d.state_snapshot().validate()

        # RDMA transport failures on the simulated fabric: slower, done.
        elapsed = timed_read_batch(256, 1024, depth=8, faults=plan)
        assert np.isfinite(elapsed) and elapsed > 0.0
        assert plan.rdma_draws > 0
