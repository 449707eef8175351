"""All-to-all DKV load-test experiments (grounds dkv_read_bw_loaded)."""

from __future__ import annotations

import pytest

from repro.cluster.costmodel import CostModel
from repro.cluster.spec import das5
from repro.sim.loadtest import run_all_to_all
from repro.sim.network import NetworkParams


class TestAllToAll:
    def test_deterministic(self):
        a = run_all_to_all(n_hosts=4, requests_per_client=16)
        b = run_all_to_all(n_hosts=4, requests_per_client=16)
        assert a.elapsed == b.elapsed

    def test_two_hosts_near_line_rate(self):
        """With one client per server there is no hot-spotting."""
        r = run_all_to_all(n_hosts=2, requests_per_client=32)
        assert r.fabric_efficiency > 0.85

    def test_contention_reduces_per_client_bandwidth(self):
        rows = [run_all_to_all(n_hosts=c, requests_per_client=32) for c in (2, 8)]
        assert rows[1].per_client_bandwidth < rows[0].per_client_bandwidth

    def test_loaded_bandwidth_brackets_calibrated_constant(self):
        """The fabric-only all-to-all bandwidth must sit between the
        calibrated loaded constant (which additionally includes host-side
        contention) and the single-stream roofline."""
        r = run_all_to_all(n_hosts=8, requests_per_client=48)
        calibrated = CostModel(das5(8)).dkv_read_bw_loaded
        assert calibrated < r.per_client_bandwidth < NetworkParams().bandwidth

    def test_aggregate_scales_with_hosts(self):
        """A non-blocking switch: aggregate bandwidth grows with hosts even
        though per-client bandwidth drops."""
        rows = [run_all_to_all(n_hosts=c, requests_per_client=32) for c in (4, 16)]
        assert rows[1].aggregate_bandwidth > 2 * rows[0].aggregate_bandwidth

    def test_invalid_hosts(self):
        with pytest.raises(ValueError):
            run_all_to_all(n_hosts=1)

    def test_result_consistency(self):
        r = run_all_to_all(n_hosts=4, requests_per_client=16)
        assert r.aggregate_bandwidth == pytest.approx(4 * r.per_client_bandwidth)
        assert r.elapsed > 0
