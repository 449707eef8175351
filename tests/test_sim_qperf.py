"""qperf micro-benchmark shape tests (paper Figure 5 roofline)."""

from __future__ import annotations

import pytest

from repro.sim.network import NetworkParams
from repro.sim.qperf import run_qperf
from repro.sim.rdma import RdmaOpType


class TestQperf:
    def test_bandwidth_monotone_in_payload(self):
        results = [run_qperf(p, n_ops=64) for p in (256, 1024, 4096, 65536, 1048576)]
        bws = [r.bandwidth for r in results]
        assert bws == sorted(bws)

    def test_large_payload_approaches_line_rate(self):
        r = run_qperf(1048576, n_ops=64)
        assert r.bandwidth > 0.9 * NetworkParams().bandwidth

    def test_small_payload_latency_bound(self):
        r = run_qperf(256, n_ops=64)
        assert r.bandwidth < 0.25 * NetworkParams().bandwidth

    def test_read_write_agree_above_256b(self):
        """Paper: qperf read/write bandwidths nearly identical >= 256 B."""
        for payload in (4096, 65536):
            rd = run_qperf(payload, op_type=RdmaOpType.READ, n_ops=64)
            wr = run_qperf(payload, op_type=RdmaOpType.WRITE, n_ops=64)
            assert abs(rd.bandwidth - wr.bandwidth) / rd.bandwidth < 0.1

    def test_depth_one_slower_than_pipelined(self):
        shallow = run_qperf(4096, n_ops=64, depth=1)
        deep = run_qperf(4096, n_ops=64, depth=16)
        assert deep.bandwidth > 1.5 * shallow.bandwidth

    def test_result_fields_consistent(self):
        r = run_qperf(1024, n_ops=32)
        assert r.n_ops == 32
        assert r.bandwidth == pytest.approx(32 * 1024 / r.elapsed)
        assert r.ops_per_sec == pytest.approx(32 / r.elapsed)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            run_qperf(0)
        with pytest.raises(ValueError):
            run_qperf(100, n_ops=0)
        with pytest.raises(ValueError):
            run_qperf(100, depth=0)

    def test_slower_fabric_lower_bandwidth(self):
        fast = run_qperf(65536, n_ops=32)
        slow = run_qperf(65536, n_ops=32, params=NetworkParams.ethernet_10g())
        assert slow.bandwidth < fast.bandwidth / 3
