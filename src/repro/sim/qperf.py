"""``qperf``-equivalent micro-benchmark inside the simulator.

The paper's Figure 5 compares the bandwidth its DKV store achieves against
``qperf``, the standard InfiniBand benchmark, for payloads from hundreds of
bytes to a megabyte. ``qperf`` streams back-to-back RDMA operations between
one client and one server and reports payload bandwidth.

This module reproduces that roofline inside the simulator: it posts a
window of ``depth`` outstanding RDMA reads (or writes) of a given payload
size, keeps the window full for ``n_ops`` operations, and reports achieved
bandwidth. The DKV benchmark (Figure 5 bench) runs against the same
simulated fabric, so the comparison is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.core import ProcessGen, Simulator
from repro.sim.network import Network, NetworkParams
from repro.sim.rdma import RdmaEngine, RdmaOp, RdmaOpType


@dataclass(frozen=True)
class QperfResult:
    """Outcome of one qperf-style run."""

    op_type: RdmaOpType
    payload_bytes: int
    n_ops: int
    elapsed: float
    bandwidth: float  # payload bytes / second
    ops_per_sec: float


def _stream(
    engine: RdmaEngine,
    op_type: RdmaOpType,
    client: int,
    server: int,
    payload: int,
    n_ops: int,
    depth: int,
) -> ProcessGen:
    """Keep ``depth`` operations in flight until ``n_ops`` have completed."""
    qp = engine.queue_pair(client, server)
    post = qp.post_read if op_type is RdmaOpType.READ else qp.post_write
    inflight: list[RdmaOp] = []
    posted = 0
    completed = 0
    while posted < min(depth, n_ops):
        inflight.append(post(payload))
        posted += 1
    while completed < n_ops:
        op = inflight.pop(0)
        yield op.completion
        completed += 1
        if posted < n_ops:
            inflight.append(post(payload))
            posted += 1
    return completed


def run_qperf(
    payload_bytes: int,
    op_type: RdmaOpType = RdmaOpType.READ,
    n_ops: int = 256,
    depth: int = 16,
    params: NetworkParams | None = None,
) -> QperfResult:
    """Run the micro-benchmark on a fresh 2-node fabric and report bandwidth."""
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    if n_ops <= 0 or depth <= 0:
        raise ValueError("n_ops and depth must be positive")
    sim = Simulator()
    net = Network(sim, n_nodes=2, params=params or NetworkParams.fdr_infiniband())
    engine = RdmaEngine(sim, net)
    t0 = sim.now
    sim.run_process(
        _stream(engine, op_type, client=0, server=1, payload=payload_bytes, n_ops=n_ops, depth=depth),
        name="qperf",
    )
    elapsed = sim.now - t0
    total = payload_bytes * n_ops
    return QperfResult(
        op_type=op_type,
        payload_bytes=payload_bytes,
        n_ops=n_ops,
        elapsed=elapsed,
        bandwidth=total / elapsed if elapsed > 0 else float("inf"),
        ops_per_sec=n_ops / elapsed if elapsed > 0 else float("inf"),
    )
