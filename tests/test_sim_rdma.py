"""RDMA verb layer tests."""

from __future__ import annotations

import pytest

from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.rdma import ACK_BYTES, READ_REQUEST_BYTES, RdmaEngine, RdmaOpType
from tests.oracles import uncontended_read_time, uncontended_write_time


@pytest.fixture()
def fabric():
    sim = Simulator()
    net = Network(sim, n_nodes=3)
    return sim, net, RdmaEngine(sim, net)


class TestRead:
    def test_completion_time_matches_closed_form(self, fabric):
        sim, net, engine = fabric
        qp = engine.queue_pair(0, 1)
        op = qp.post_read(65536)
        sim.run()
        assert op.completion.fired
        elapsed = op.t_completed - op.t_posted
        assert elapsed == pytest.approx(uncontended_read_time(net, 65536), rel=1e-6)

    def test_request_travels_to_responder(self, fabric):
        sim, net, engine = fabric
        qp = engine.queue_pair(0, 1)
        qp.post_read(1000)
        sim.run()
        # initiator sent only the request packet; responder sent the payload
        assert net.nics[0].bytes_sent == READ_REQUEST_BYTES
        assert net.nics[1].bytes_sent == 1000

    def test_negative_payload_rejected(self, fabric):
        _, _, engine = fabric
        qp = engine.queue_pair(0, 1)
        with pytest.raises(ValueError):
            qp.post_read(-5)


class TestWrite:
    def test_completion_includes_ack(self, fabric):
        sim, net, engine = fabric
        qp = engine.queue_pair(0, 1)
        op = qp.post_write(65536)
        sim.run()
        elapsed = op.t_completed - op.t_posted
        assert elapsed == pytest.approx(uncontended_write_time(net, 65536), rel=1e-6)
        assert net.nics[1].bytes_sent == ACK_BYTES

    def test_read_write_similar_for_large_payloads(self, fabric):
        """Paper Section IV-E: read and write bandwidth nearly identical
        (corroborating Herd) for payloads above 256 B."""
        sim, net, engine = fabric
        t_read = uncontended_read_time(net, 262144)
        t_write = uncontended_write_time(net, 262144)
        assert abs(t_read - t_write) / t_read < 0.05


class TestPipelining:
    def test_pipelined_reads_overlap(self, fabric):
        """Posting a window of reads beats issuing them synchronously."""
        sim, net, engine = fabric
        qp = engine.queue_pair(0, 1)
        # Small payloads: latency dominates, so overlap wins big. (Large
        # payloads are serialization-bound and overlap only hides latency.)
        n, size = 16, 4096

        ops = [qp.post_read(size) for _ in range(n)]
        sim.run()
        assert all(op.completion.fired for op in ops)
        pipelined_time = sim.now
        sync_time = n * uncontended_read_time(net, size)
        assert pipelined_time < 0.8 * sync_time

    def test_batch_event_counts_all(self, fabric):
        sim, _, engine = fabric
        qp = engine.queue_pair(0, 2)
        ops = [qp.post_write(100) for _ in range(5)]
        sim.run()
        assert [op.completion.value for op in ops] == ops

    def test_sync_helpers(self, fabric):
        """One op waited on before the next is posted takes the closed form."""
        sim, net, engine = fabric
        read = engine.queue_pair(0, 1).post_read(4096)
        sim.run()
        t1 = sim.now
        assert t1 == pytest.approx(uncontended_read_time(net, 4096), rel=1e-6)
        assert read.t_completed == t1
        engine.queue_pair(0, 1).post_write(4096)
        sim.run()
        assert sim.now - t1 == pytest.approx(uncontended_write_time(net, 4096), rel=1e-6)


class TestOpBookkeeping:
    def test_engine_counts_ops(self, fabric):
        sim, _, engine = fabric
        qp = engine.queue_pair(0, 1)
        qp.post_read(10)
        qp.post_write(10)
        assert engine.ops == 2
        assert qp.engine is engine

    def test_op_records_endpoints(self, fabric):
        sim, _, engine = fabric
        qp = engine.queue_pair(2, 0)
        op = qp.post_read(77)
        sim.run()
        assert (op.initiator, op.target, op.nbytes) == (2, 0, 77)
        assert op.op_type is RdmaOpType.READ
