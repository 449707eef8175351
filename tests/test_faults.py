"""Fault-injection layer: plans, typed errors, degradation, recovery.

Covers the deterministic :class:`~repro.faults.FaultPlan`, the fault
paths of the simulated fabric / RDMA engine / DKV store / barrier deadline,
and the in-process distributed sampler's degradation guarantees —
including the bit-identity contract: an empty plan must change nothing.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster.dkv import DKVStore, timed_read_batch
from repro.cluster.spec import das5
from repro.config import AMMSBConfig, StepSizeConfig
from repro.dist.sampler import COMM_TIMEOUT, DistributedAMMSBSampler
from repro.faults import (
    ARRIVAL_FAULT_MODES,
    CommTimeout,
    DKVTimeout,
    FaultPlan,
    LinkDegradation,
    PublishFailure,
    ServerStall,
    StreamFaultPlan,
    WorkerCrash,
    WorkerCrashed,
    WorkerStall,
    chaos_plan,
)
from repro.graph.split import split_heldout
from repro.sim.core import Simulator
from repro.sim.network import Network, NetworkParams
from repro.sim.rdma import RdmaEngine


@pytest.fixture(scope="module")
def problem():
    from repro.graph.generators import planted_overlapping_graph

    rng = np.random.default_rng(1234)
    graph, _ = planted_overlapping_graph(
        200, 4, memberships_per_vertex=1, p_in=0.25, p_out=0.004, rng=rng
    )
    split = split_heldout(graph, 0.03, np.random.default_rng(5))
    cfg = AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=32,
        neighbor_sample_size=16,
        seed=42,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    return split, cfg


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().empty
        assert FaultPlan(seed=123).empty
        assert not FaultPlan(rdma_failure_rate=0.01).empty
        assert not FaultPlan(server_stalls=(ServerStall(0, 1),)).empty

    def test_server_stall_window(self):
        plan = FaultPlan(server_stalls=(ServerStall(server=1, start=3, duration=2),))
        assert not plan.server_stalled(1, 2)
        assert plan.server_stalled(1, 3)
        assert plan.server_stalled(1, 4)
        assert not plan.server_stalled(1, 5)
        assert not plan.server_stalled(0, 3)  # other servers untouched

    def test_flaky_stall_clears_after_retries(self):
        """flaky_attempts=2: attempts 0 and 1 time out, attempt 2 succeeds."""
        plan = FaultPlan(server_stalls=(ServerStall(0, 0, flaky_attempts=2),))
        assert plan.server_stalled(0, 0, attempt=0)
        assert plan.server_stalled(0, 0, attempt=1)
        assert not plan.server_stalled(0, 0, attempt=2)

    def test_link_factors_compose(self):
        plan = FaultPlan(
            link_faults=(
                LinkDegradation(node=0, latency_factor=2.0),
                LinkDegradation(node=-1, start=0.0, duration=1.0, bandwidth_factor=0.5),
            )
        )
        lat, bw = plan.link_factors(0, 1, now=0.5)
        assert lat == 2.0 and bw == 0.5
        # After the global window, only the node-0 latency fault remains.
        lat, bw = plan.link_factors(0, 1, now=2.0)
        assert lat == 2.0 and bw == 1.0
        # Traffic not touching node 0 after the window: clean.
        lat, bw = plan.link_factors(1, 2, now=2.0)
        assert lat == 1.0 and bw == 1.0

    def test_rdma_draws_deterministic(self):
        a = FaultPlan(seed=7, rdma_failure_rate=0.3)
        b = FaultPlan(seed=7, rdma_failure_rate=0.3)
        seq_a = [a.rdma_op_fails() for _ in range(200)]
        seq_b = [b.rdma_op_fails() for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_max_worker_lag(self):
        plan = FaultPlan(
            worker_crashes=(WorkerCrash(worker=2, at=5),),
            worker_stalls=(WorkerStall(worker=1, at=3, seconds=2.5),),
        )
        assert plan.max_worker_lag(2) == (-1, 0.0)
        assert plan.max_worker_lag(3) == (1, 2.5)
        worker, lag = plan.max_worker_lag(7)  # crash persists
        assert worker == 2 and math.isinf(lag)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(rdma_failure_rate=1.0)
        with pytest.raises(ValueError):
            ServerStall(server=-1, start=0)
        with pytest.raises(ValueError):
            LinkDegradation(latency_factor=0.5)
        with pytest.raises(ValueError):
            WorkerStall(worker=0, at=0, seconds=-1.0)
        with pytest.raises(ValueError):
            chaos_plan(n_workers=1)

    def test_describe(self):
        assert FaultPlan().describe() == "FaultPlan(empty)"
        assert "crash" in chaos_plan(seed=1).describe()


class TestStreamFaultPlan:
    def _arrivals(self, n=50):
        from repro.stream import EdgeArrival

        return [EdgeArrival(float(i), i, i + 1) for i in range(n)]

    def test_empty_plan_is_a_noop(self):
        plan = StreamFaultPlan(seed=3)
        assert plan.empty
        arrivals = self._arrivals()
        assert plan.mangle_arrivals(arrivals) == arrivals
        assert plan.draws["mangle"] == 0
        assert not plan.scheduled(PublishFailure, generation=0)

    def test_mangling_is_deterministic(self):
        arrivals = self._arrivals()
        a = StreamFaultPlan(seed=9, malformed_rate=0.3, out_of_order_rate=0.2)
        b = StreamFaultPlan(seed=9, malformed_rate=0.3, out_of_order_rate=0.2)
        assert a.mangle_arrivals(arrivals) == b.mangle_arrivals(arrivals)

    def test_malformed_modes_cycle(self):
        arrivals = self._arrivals(200)
        plan = StreamFaultPlan(seed=1, malformed_rate=0.5)
        mangled = plan.mangle_arrivals(arrivals)
        loops = sum(1 for m in mangled if m.src == m.dst)
        negs = sum(1 for m in mangled if m.src < 0)
        overs = sum(1 for m in mangled if m.dst >= 1 << 31)
        assert loops and negs and overs
        assert loops + negs + overs < len(arrivals)  # some survive
        # Originals untouched (replace(), never mutation).
        assert arrivals[0].src == 0

    def test_out_of_order_pushes_timestamps_back(self):
        arrivals = self._arrivals(100)
        plan = StreamFaultPlan(seed=4, out_of_order_rate=0.3)
        mangled = plan.mangle_arrivals(arrivals)
        late = [m for m, a in zip(mangled, arrivals)
                if m.timestamp < a.timestamp]
        assert late and all(m.src >= 0 for m in mangled)

    def test_fault_sequence_independent_of_enabled_faults(self):
        """Two draws per record: adding a second fault type must not
        shift which records the first one hits."""
        arrivals = self._arrivals(200)
        only_bad = StreamFaultPlan(seed=5, malformed_rate=0.2)
        both = StreamFaultPlan(
            seed=5, malformed_rate=0.2, out_of_order_rate=0.4
        )
        bad_a = [i for i, (m, a) in enumerate(
            zip(only_bad.mangle_arrivals(arrivals), arrivals))
            if (m.src, m.dst) != (a.src, a.dst)]
        bad_b = [i for i, (m, a) in enumerate(
            zip(both.mangle_arrivals(arrivals), arrivals))
            if (m.src, m.dst) != (a.src, a.dst)]
        assert bad_a == bad_b

    def test_publish_failures(self):
        plan = StreamFaultPlan(
            seed=0, publish_failures=(PublishFailure(2), PublishFailure(5))
        )
        assert not plan.empty
        assert plan.scheduled(PublishFailure, generation=2)
        assert plan.scheduled(PublishFailure, generation=5)
        assert not plan.scheduled(PublishFailure, generation=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamFaultPlan(malformed_rate=1.0)
        with pytest.raises(ValueError):
            StreamFaultPlan(out_of_order_rate=-0.1)
        with pytest.raises(ValueError):
            PublishFailure(-1)

    def test_describe_and_modes(self):
        assert set(ARRIVAL_FAULT_MODES) == {
            "self-loop", "negative-id", "id-overflow"
        }
        plan = StreamFaultPlan(seed=1, malformed_rate=0.1)
        assert "malformed" in plan.describe()
        assert StreamFaultPlan().describe()


class TestPinnedFaultSequences:
    """Literal fault sequences for fixed seeds.

    Two plans compared with each other cannot see a re-keyed private
    stream; these literals can. Each stream is seeded at
    ``seed + offset`` (``0x5DF0`` RDMA, ``0x5E12`` spikes, ``0xC0DE``
    corruption, ``0x57E4`` mangling), so a fixed plan must keep drawing
    exactly these values.
    """

    def test_rdma_op_fails(self):
        plan = FaultPlan(seed=7, rdma_failure_rate=0.3)
        bits = "".join("1" if plan.rdma_op_fails() else "0" for _ in range(64))
        assert bits == (
            "0011000101000010001110000010011011000000000010010000101000000001"
        )

    def test_engine_delay(self):
        from repro.faults import ServeFaultPlan

        plan = ServeFaultPlan(seed=11, spike_rate=0.25, spike_seconds=0.004)
        delays = [plan.engine_delay() for _ in range(64)]
        assert set(delays) == {0.0, 0.004}
        bits = "".join("1" if d else "0" for d in delays)
        assert bits == (
            "0010010100010100010010000000010001010100101001010000001000011000"
        )

    def test_corrupt_file_flip(self, tmp_path):
        import hashlib

        from repro.faults import ServeFaultPlan

        from repro.store import write_container
        from tests.conftest import member_bytes

        plan = ServeFaultPlan(seed=5)
        pinned = np.frombuffer(bytes(range(256)) * 16, dtype=np.uint8)
        digests = []
        for name in ("a", "b"):  # the second flip continues the stream
            # a 4096-byte member: the 128-byte .npy header, then the payload
            container = write_container(
                tmp_path / name, {"pi": np.zeros(4096 - 128, dtype=np.uint8)}, kind="test/1"
            )
            before = np.frombuffer(member_bytes(container, "pi"), dtype=np.uint8)
            plan.corrupt_file(container, "flip")
            after = np.frombuffer(member_bytes(container, "pi"), dtype=np.uint8)
            # the flip depends on the member's length alone: the same damage
            # to the 4096 bytes these digests were first pinned on
            member = (pinned ^ before ^ after).tobytes()
            digests.append(hashlib.sha256(member).hexdigest()[:16])
        assert digests == ["cc165b4535a44308", "082de5b740117ede"]

    def test_mangle_arrivals(self):
        from repro.stream import EdgeArrival

        arrivals = [EdgeArrival(float(i), i, i + 1) for i in range(50)]
        plan = StreamFaultPlan(seed=9, malformed_rate=0.3, out_of_order_rate=0.2)
        mangled = plan.mangle_arrivals(arrivals)
        changed = [
            (i, m.timestamp, m.src, m.dst)
            for i, (m, a) in enumerate(zip(mangled, arrivals))
            if m != a
        ]
        big = (1 << 31) + 7
        assert changed == [
            (2, -999998.0, 2, 3), (4, 4.0, 4, 4), (6, 6.0, -1, 7),
            (8, 8.0, 8, big), (11, 11.0, 11, 11), (12, -999988.0, 12, 13),
            (19, 19.0, -1, 20), (24, 24.0, 24, big), (29, -999971.0, 29, 30),
            (30, -999970.0, 30, 31), (31, -999969.0, 31, 32),
            (33, 33.0, 33, 33), (35, 35.0, -1, 36), (38, -999962.0, 38, 39),
            (39, 39.0, 39, big), (43, 43.0, 43, 43), (44, -999956.0, 44, 45),
            (45, 45.0, -1, 46), (46, 46.0, 46, big), (47, 47.0, 47, 47),
            (49, -999951.0, 49, 50),
        ]
        assert plan.draws["mangle"] == 100


class TestSimFaults:
    def test_link_degradation_slows_transfer(self):
        def one_transfer(faults):
            sim = Simulator()
            net = Network(sim, n_nodes=2, faults=faults)
            net.transfer(0, 1, 1 << 20)
            sim.run()
            return sim.now

        clean = one_transfer(None)
        degraded = one_transfer(
            FaultPlan(link_faults=(LinkDegradation(latency_factor=4.0, bandwidth_factor=0.25),))
        )
        assert degraded > 2.0 * clean

    def test_empty_plan_leaves_network_untouched(self):
        def one_transfer(faults):
            sim = Simulator()
            net = Network(sim, n_nodes=2, faults=faults)
            net.transfer(0, 1, 4096)
            sim.run()
            return sim.now

        assert one_transfer(FaultPlan()) == one_transfer(None)

    def test_rdma_failures_complete_with_error_cqe(self):
        sim = Simulator()
        net = Network(sim, n_nodes=2)
        plan = FaultPlan(seed=3, rdma_failure_rate=0.5)
        engine = RdmaEngine(sim, net, faults=plan)
        qp = engine.queue_pair(0, 1)
        ops = [qp.post_read(4096) for _ in range(40)]
        sim.run()
        failed = [op for op in ops if op.failed]
        assert engine.failed_ops == len(failed)
        assert 0 < len(failed) < len(ops)
        for op in ops:  # every op completes — error CQE, never a hang
            assert op.completion.fired
            assert np.isfinite(op.t_completed)

    def test_timed_read_batch_degrades_but_completes(self):
        clean = timed_read_batch(128, 1024, depth=8)
        faulty = timed_read_batch(
            128, 1024, depth=8, faults=FaultPlan(seed=9, rdma_failure_rate=0.2)
        )
        again = timed_read_batch(
            128, 1024, depth=8, faults=FaultPlan(seed=9, rdma_failure_rate=0.2)
        )
        assert faulty > clean
        assert faulty == again  # deterministic given the plan seed


class TestDKVFaults:
    def _store(self, plan, **kw):
        store = DKVStore(100, 5, 4, faults=plan, **kw)
        rng = np.random.default_rng(0)
        store.populate(rng.random((100, 5)))
        return store

    def test_stalled_server_serves_stale_reads(self):
        plan = FaultPlan(server_stalls=(ServerStall(server=0, start=1, duration=2),))
        store = self._store(plan)
        keys = np.arange(30)  # touches servers 0 and 1
        before = store.snapshot()[keys].copy()

        store.set_iteration(1)
        # Writes against the stalled server are dropped...
        store.write_batch(0, keys, before + 1.0)
        values, _ = store.read_batch(0, keys)
        owners = store.owners(keys)
        # ...so the stalled server's keys read stale (pre-write) values,
        # while the healthy server's keys see the new write.
        np.testing.assert_array_equal(values[owners == 0], before[owners == 0])
        np.testing.assert_array_equal(values[owners != 0], before[owners != 0] + 1.0)
        assert store.fault_stats.stale_batches > 0
        assert store.fault_stats.dropped_writes > 0
        assert store.fault_stats.retries > 0
        assert store.fault_stats.max_staleness >= 1
        assert store.fault_stats.drain_delay() > 0.0
        assert store.fault_stats.drain_delay() == 0.0  # drained

    def test_recovers_after_stall_window(self):
        plan = FaultPlan(server_stalls=(ServerStall(server=0, start=1, duration=1),))
        store = self._store(plan)
        keys = np.arange(10)
        store.set_iteration(1)
        store.write_batch(0, keys, np.full((10, 5), 7.0))  # dropped
        store.set_iteration(3)  # past the window + breaker cooldown
        store.write_batch(0, keys, np.full((10, 5), 9.0))
        values, _ = store.read_batch(0, keys)
        np.testing.assert_array_equal(values, np.full((10, 5), 9.0))

    def test_flaky_server_rides_out_on_retries(self):
        """A flaky (not hard-stalled) server succeeds within the retry
        budget: no stale data, but retries and delay are accounted."""
        plan = FaultPlan(
            server_stalls=(ServerStall(server=0, start=0, flaky_attempts=2),)
        )
        store = self._store(plan)
        keys = np.arange(10)
        store.write_batch(0, keys, np.full((10, 5), 3.0))
        values, _ = store.read_batch(0, keys)
        np.testing.assert_array_equal(values, np.full((10, 5), 3.0))
        assert store.fault_stats.retries >= 2
        assert store.fault_stats.stale_batches == 0
        assert store.fault_stats.drain_delay() > 0.0

    def test_no_fallback_raises_typed_timeout(self):
        plan = FaultPlan(server_stalls=(ServerStall(server=0, start=0, duration=5),))
        store = self._store(plan, stale_fallback=False)
        with pytest.raises(DKVTimeout) as ei:
            store.read_batch(0, np.arange(10))
        assert ei.value.server == 0
        assert ei.value.attempts >= 1

    def test_circuit_breaker_short_circuits(self):
        plan = FaultPlan(server_stalls=(ServerStall(server=0, start=0, duration=10),))
        store = self._store(plan, breaker_threshold=1, breaker_cooldown=100)
        keys = np.arange(10)
        store.read_batch(0, keys)  # trips the breaker
        assert store.fault_stats.breaker_opens == 1
        retries_before = store.fault_stats.retries
        store.read_batch(0, keys)  # breaker open: no retry ladder at all
        assert store.fault_stats.retries == retries_before

    def test_empty_plan_changes_nothing(self):
        clean = self._store(None)
        armed = self._store(FaultPlan())
        keys = np.arange(50)
        v1, t1 = clean.read_batch(0, keys)
        v2, t2 = armed.read_batch(0, keys)
        np.testing.assert_array_equal(v1, v2)
        assert t1.n_requests == t2.n_requests and t1.bytes_total == t2.bytes_total
        assert armed.fault_stats.simulated_delay == 0.0


class TestDistributedSamplerFaults:
    def test_empty_plan_bit_identical(self, problem):
        split, cfg = problem
        clean = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3))
        armed = DistributedAMMSBSampler(
            split.train, cfg, cluster=das5(3), faults=FaultPlan(seed=99)
        )
        clean.run(6)
        armed.run(6)
        np.testing.assert_array_equal(
            clean.state_snapshot().pi, armed.state_snapshot().pi
        )
        np.testing.assert_array_equal(clean.theta, armed.theta)
        assert clean.timing.total_seconds == armed.timing.total_seconds

    def test_server_stall_degrades_clock_not_math(self, problem):
        split, cfg = problem
        plan = FaultPlan(
            server_stalls=(ServerStall(server=0, start=2, duration=2),)
        )
        clean = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3))
        armed = DistributedAMMSBSampler(
            split.train, cfg, cluster=das5(3), faults=plan
        )
        clean.run(6)
        armed.run(6)
        snap = armed.state_snapshot()
        snap.validate()  # degraded, still a valid model state
        assert armed.timing.total_seconds > clean.timing.total_seconds
        assert armed.dkv.fault_stats.stale_batches > 0

    def test_worker_stall_charged_as_straggler_time(self, problem):
        split, cfg = problem
        plan = FaultPlan(worker_stalls=(WorkerStall(worker=1, at=3, seconds=5.0),))
        clean = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3))
        armed = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3), faults=plan)
        clean.run(6)
        armed.run(6)
        assert armed.timing.total_seconds >= clean.timing.total_seconds + 5.0

    def test_crash_raises_typed_comm_timeout(self, problem):
        split, cfg = problem
        plan = FaultPlan(worker_crashes=(WorkerCrash(worker=1, at=2),))
        armed = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3), faults=plan)
        armed.run(2)
        before = armed.state_snapshot()
        with pytest.raises(CommTimeout) as ei:
            armed.step()
        assert ei.value.op == "barrier" and ei.value.worker == 1
        assert math.isinf(ei.value.lag)
        # Raised at the update_phi barrier: no pi row was written.
        after = armed.state_snapshot()
        np.testing.assert_array_equal(after.pi, before.pi)
        np.testing.assert_array_equal(after.phi_sum, before.phi_sum)
        assert armed.iteration == 2 and len(armed.timing.per_iteration) == 2

    def test_stall_past_deadline_times_out(self, problem):
        split, cfg = problem
        plan = FaultPlan(
            worker_stalls=(WorkerStall(worker=0, at=1, seconds=COMM_TIMEOUT + 30.0),)
        )
        armed = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3), faults=plan)
        armed.step()
        with pytest.raises(CommTimeout):
            armed.step()


class TestTypedErrors:
    def test_comm_timeout_message(self):
        err = CommTimeout("barrier", 3, math.inf, 5.0)
        assert "barrier" in str(err) and "worker 3" in str(err) and "inf" in str(err)

    def test_worker_crashed_sorts_and_labels(self):
        err = WorkerCrashed([2, 0], stalled=True)
        assert err.workers == (0, 2)
        assert "stalled" in str(err)
        assert "crashed" in str(WorkerCrashed([1]))
