"""Network model tests: timing formulas, contention, accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Simulator
from repro.sim.network import Network, NetworkParams
from tests.oracles import uncontended_transfer_time


def make_net(n=3, **kw):
    sim = Simulator()
    return sim, Network(sim, n_nodes=n, params=NetworkParams(**kw) if kw else None)


class TestParams:
    def test_serialization_time(self):
        p = NetworkParams(bandwidth=1e9)
        assert p.serialization_time(1e9) == pytest.approx(1.0)

    def test_presets_differ(self):
        ib = NetworkParams.fdr_infiniband()
        eth = NetworkParams.ethernet_10g()
        assert ib.bandwidth > eth.bandwidth
        assert ib.latency < eth.latency


class TestTransfer:
    def test_single_message_time(self):
        sim, net = make_net()
        proc = net.transfer(0, 1, 1_000_000)
        sim.run()
        p = net.params
        expected = p.per_message_overhead + 1_000_000 / p.bandwidth + p.latency
        assert sim.now == pytest.approx(expected, rel=1e-9)
        assert uncontended_transfer_time(net, 1_000_000) == pytest.approx(expected)

    def test_local_transfer_cheaper(self):
        sim, net = make_net()
        net.transfer(0, 0, 1_000_000)
        sim.run()
        assert sim.now < uncontended_transfer_time(net, 1_000_000)

    def test_zero_bytes_allowed(self):
        sim, net = make_net()
        net.transfer(0, 1, 0)
        sim.run()
        assert sim.now > 0  # latency + overhead still charged

    def test_negative_bytes_rejected(self):
        _, net = make_net()
        with pytest.raises(ValueError):
            net.transfer(0, 1, -1)

    def test_bad_node_rejected(self):
        _, net = make_net()
        with pytest.raises(ValueError):
            net.transfer(0, 99, 10)

    def test_accounting(self):
        sim, net = make_net()
        net.transfer(0, 1, 500)
        net.transfer(0, 2, 300)
        sim.run()
        assert net.nics[0].bytes_sent == 800
        assert net.nics[0].messages_sent == 2
        assert net.nics[1].bytes_received == 500
        assert net.nics[2].bytes_received == 300


class TestContention:
    def test_tx_port_serializes_same_source(self):
        """Two large messages from one node take ~2x one message."""
        sim, net = make_net()
        nbytes = 10_000_000
        net.transfer(0, 1, nbytes)
        net.transfer(0, 2, nbytes)
        sim.run()
        one = uncontended_transfer_time(net, nbytes)
        assert sim.now > 1.8 * one - 1e-6

    def test_disjoint_pairs_parallel(self):
        """0->1 and 2->... wait, use 4 nodes: 0->1 and 2->3 overlap fully."""
        sim = Simulator()
        net = Network(sim, n_nodes=4)
        nbytes = 10_000_000
        net.transfer(0, 1, nbytes)
        net.transfer(2, 3, nbytes)
        sim.run()
        one = uncontended_transfer_time(net, nbytes)
        assert sim.now == pytest.approx(one, rel=0.01)

    def test_rx_port_serializes_same_destination(self):
        """Many-to-one queues at the receiver (the DKV hot-spot effect)."""
        sim = Simulator()
        net = Network(sim, n_nodes=4)
        nbytes = 10_000_000
        for src in (0, 1, 2):
            net.transfer(src, 3, nbytes)
        sim.run()
        one = uncontended_transfer_time(net, nbytes)
        assert sim.now > 2.5 * one

    def test_duplex_tx_rx_independent(self):
        """A->B and B->A big transfers overlap under full duplex."""
        sim, net = make_net(2)
        nbytes = 10_000_000
        net.transfer(0, 1, nbytes)
        net.transfer(1, 0, nbytes)
        sim.run()
        one = uncontended_transfer_time(net, nbytes)
        assert sim.now < 1.2 * one

    def test_log_recording_optional(self):
        sim, net = make_net()
        net.record_log = True
        net.transfer(0, 1, 100, tag="x")
        sim.run()
        assert len(net.log) == 1
        assert net.log[0].tag == "x"
        assert net.log[0].t_complete > net.log[0].t_submit


class TestThroughputProperty:
    @given(nbytes=st.integers(min_value=1, max_value=2**22))
    @settings(max_examples=20, deadline=None)
    def test_bigger_messages_never_faster(self, nbytes):
        sim, net = make_net()
        t_small = uncontended_transfer_time(net, nbytes)
        t_big = uncontended_transfer_time(net, nbytes * 2)
        assert t_big >= t_small

    def test_back_to_back_stream_approaches_bandwidth(self):
        """A saturating stream of 1 MB messages achieves ~bandwidth."""
        sim, net = make_net()
        n, size = 32, 1_000_000

        def stream():
            for _ in range(n):
                proc = net.transfer(0, 1, size)
                yield proc.done

        sim.run_process(stream())
        achieved = n * size / sim.now
        assert achieved > 0.9 * net.params.bandwidth
