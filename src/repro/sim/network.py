"""Network model: NICs, links, and a non-blocking switch.

The model matches the DAS5 fabric the paper used (FDR InfiniBand through a
single fat switch): every node owns a full-duplex NIC; the switch core is
non-blocking, so contention happens only at NIC ports. A message therefore
costs:

``wire latency  +  per-message overhead  +  size / bandwidth``

where the ``size / bandwidth`` serialization occupies the sender's TX port
and the receiver's RX port (modeled as FIFO :class:`~repro.sim.core.Resource`
instances), so concurrent transfers through the same NIC queue behind each
other — exactly the effect that makes the master's mini-batch scatter a
serial bottleneck in the paper's strong-scaling curve.

Default constants approximate FDR InfiniBand (56 Gbit/s signaling,
~6.8 GB/s effective payload bandwidth, ~1.7 us one-way small-message
latency, measured by ``qperf`` in the paper's Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.faults import FaultPlan, armed
from repro.sim.core import Event, Process, ProcessGen, Resource, Simulator, Timeout


@dataclass(frozen=True)
class NetworkParams:
    """Fabric constants.

    Attributes:
        bandwidth: effective payload bandwidth per NIC port, bytes/second.
        latency: one-way wire + switch latency, seconds.
        per_message_overhead: fixed CPU/NIC cost charged per message at the
            initiator (doorbell, WQE processing), seconds.
        duplex: if True, TX and RX ports serialize independently.
    """

    bandwidth: float = 6.8e9
    latency: float = 1.7e-6
    per_message_overhead: float = 0.3e-6
    duplex: bool = True

    def serialization_time(self, nbytes: int) -> float:
        return nbytes / self.bandwidth

    @staticmethod
    def fdr_infiniband() -> "NetworkParams":
        """FDR InfiniBand as deployed on DAS5 (paper's testbed)."""
        return NetworkParams()

    @staticmethod
    def ethernet_10g() -> "NetworkParams":
        """10 GbE with kernel TCP — used by ablations as a slow fabric."""
        return NetworkParams(bandwidth=1.1e9, latency=25e-6, per_message_overhead=2e-6)


@dataclass
class Message:
    """A single transfer recorded by the network."""

    src: int
    dst: int
    nbytes: int
    tag: Any = None
    t_submit: float = 0.0
    t_complete: float = 0.0

    @property
    def transfer_time(self) -> float:
        return self.t_complete - self.t_submit


class Nic:
    """A full-duplex NIC with FIFO TX and RX serialization ports."""

    def __init__(self, sim: Simulator, node: int, params: NetworkParams) -> None:
        self.sim = sim
        self.node = node
        self.params = params
        self.tx = Resource(sim, capacity=1, name=f"nic{node}.tx")
        self.rx = self.tx if not params.duplex else Resource(sim, capacity=1, name=f"nic{node}.rx")
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0


class Network:
    """A cluster fabric of ``n_nodes`` NICs behind a non-blocking switch."""

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        params: Optional[NetworkParams] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.params = params or NetworkParams()
        self.nics = [Nic(sim, i, self.params) for i in range(n_nodes)]
        self.log: list[Message] = []
        self.record_log = False
        # Link degradation windows; None or an empty plan leaves the
        # transfer math untouched (bit-identical clocks).
        self.faults = armed(faults)

    @property
    def n_nodes(self) -> int:
        return len(self.nics)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")

    def transfer(self, src: int, dst: int, nbytes: int, tag: Any = None) -> Process:
        """Start a message transfer; the returned process finishes when the
        last byte is delivered at the destination.

        Local (src == dst) transfers are charged memory-copy time only
        (modeled as bandwidth serialization without latency).
        """
        self._check_node(src)
        self._check_node(dst)
        if nbytes < 0:
            raise ValueError("negative message size")
        msg = Message(src=src, dst=dst, nbytes=nbytes, tag=tag, t_submit=self.sim.now)
        return self.sim.process(self._transfer_proc(msg), name=f"xfer{src}->{dst}")

    def _transfer_proc(self, msg: Message) -> ProcessGen:
        # Cut-through model: the bytes are serialized exactly once, occupying
        # the sender's TX port and the receiver's RX port *concurrently*
        # (acquire TX, then RX, hold both during serialization). The last
        # byte lands `latency` after serialization ends. Many-to-one traffic
        # therefore queues at the destination RX port — the effect behind the
        # DKV server hot-spot and the master's scatter bottleneck.
        #
        # Deadlock safety: ports are FIFO and every message acquires TX
        # before RX; with full-duplex NICs (independent TX/RX resources) no
        # cycle of waits can form.
        p = self.params
        ser = p.serialization_time(msg.nbytes)
        latency = p.latency
        if self.faults is not None:
            # Degradation window sampled at submit time: latency spikes
            # multiply the wire latency, bandwidth loss stretches
            # serialization (and therefore port occupancy — degraded links
            # back up the NIC queues exactly like real congestion).
            lat_f, bw_f = self.faults.link_factors(msg.src, msg.dst, self.sim.now)
            ser /= bw_f
            latency *= lat_f
        if msg.src == msg.dst:
            # Local copy: memcpy time, no wire latency, no port usage.
            yield Timeout(ser * 0.5)
        else:
            src_nic = self.nics[msg.src]
            dst_nic = self.nics[msg.dst]
            yield src_nic.tx.request()
            yield dst_nic.rx.request()
            try:
                yield Timeout(p.per_message_overhead + ser)
            finally:
                src_nic.tx.release()
                dst_nic.rx.release()
            src_nic.bytes_sent += msg.nbytes
            src_nic.messages_sent += 1
            dst_nic.bytes_received += msg.nbytes
            yield Timeout(latency)
        msg.t_complete = self.sim.now
        if self.record_log:
            self.log.append(msg)
        return msg

    # -- simple timing helpers (no queuing) -------------------------------

    def uncontended_transfer_time(self, nbytes: int, remote: bool = True) -> float:
        """Closed-form time of one message on an idle fabric."""
        p = self.params
        if not remote:
            return p.serialization_time(nbytes) * 0.5
        return p.per_message_overhead + p.serialization_time(nbytes) + p.latency
