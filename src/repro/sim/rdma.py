"""One-sided RDMA verbs on top of the network model.

The paper builds its DKV store directly on InfiniBand ib-verbs, using
exactly one RDMA read or one RDMA write per key-value operation
(Section III-B). This module models that verb layer:

- an :class:`RdmaEngine` per simulated host owns queue pairs;
- :meth:`QueuePair.post_read` models a one-sided READ: a small request
  packet travels to the responder, whose NIC DMAs the payload back without
  host involvement;
- :meth:`QueuePair.post_write` models a one-sided WRITE: the payload is
  streamed to the responder; completion is raised when the ACK returns.

Operations can be posted back-to-back (pipelined); completions are polled
via the returned events. This is how the DKV client overlaps many reads to
hit the bandwidth roofline (paper Figure 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.faults import FaultPlan, armed
from repro.sim.core import Event, ProcessGen, Simulator, Timeout, all_of
from repro.sim.network import Network

#: Size of the request packet an RDMA READ sends to the responder NIC.
READ_REQUEST_BYTES = 28
#: Size of an ACK packet (RDMA WRITE completion / READ response header).
ACK_BYTES = 12
#: A failed op surfaces its error CQE after this many wire latencies —
#: the transport-level retransmission window before the NIC gives up.
FAILURE_TIMEOUT_LATENCIES = 8.0


class RdmaOpType(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass
class RdmaOp:
    """A posted verb; ``completion`` fires when the CQE would be polled."""

    op_type: RdmaOpType
    initiator: int
    target: int
    nbytes: int
    completion: Event
    t_posted: float
    t_completed: float = float("nan")
    #: True when the op surfaced an error CQE (injected transport fault);
    #: the payload never moved and the caller must repost.
    failed: bool = False

    @property
    def elapsed(self) -> float:
        return self.t_completed - self.t_posted


class QueuePair:
    """A reliable-connection queue pair between two hosts.

    ``post_*`` methods return immediately with an :class:`RdmaOp`; the
    payload transfer is simulated asynchronously. Posting costs a small
    CPU overhead at the initiator (WQE write + doorbell), modeled inside
    the network's per-message overhead.
    """

    def __init__(self, engine: "RdmaEngine", local: int, remote: int) -> None:
        self.engine = engine
        self.local = local
        self.remote = remote
        self.ops_posted = 0

    def post_read(self, nbytes: int) -> RdmaOp:
        return self.engine._post(RdmaOpType.READ, self.local, self.remote, nbytes)

    def post_write(self, nbytes: int) -> RdmaOp:
        return self.engine._post(RdmaOpType.WRITE, self.local, self.remote, nbytes)


class RdmaEngine:
    """Factory for queue pairs over one :class:`~repro.sim.network.Network`."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.ops: int = 0
        self.failed_ops: int = 0
        self.faults = armed(faults)

    def queue_pair(self, local: int, remote: int) -> QueuePair:
        return QueuePair(self, local, remote)

    def _post(self, op_type: RdmaOpType, initiator: int, target: int, nbytes: int) -> RdmaOp:
        if nbytes < 0:
            raise ValueError("negative RDMA payload")
        op = RdmaOp(
            op_type=op_type,
            initiator=initiator,
            target=target,
            nbytes=nbytes,
            completion=self.sim.event(f"rdma.{op_type.value}.{initiator}->{target}"),
            t_posted=self.sim.now,
        )
        self.ops += 1
        self.sim.process(self._op_proc(op), name=f"rdma-{op_type.value}")
        return op

    def _op_proc(self, op: RdmaOp) -> ProcessGen:
        net = self.network
        if self.faults is not None and self.faults.rdma_op_fails():
            # Transport fault: the NIC retries internally, then raises an
            # error CQE. The payload never moves; the caller reposts.
            op.failed = True
            self.failed_ops += 1
            yield Timeout(net.params.latency * FAILURE_TIMEOUT_LATENCIES)
            op.t_completed = self.sim.now
            op.completion.trigger(op)
            return op
        if op.op_type is RdmaOpType.READ:
            # Request packet to responder NIC, payload streamed back.
            req = net.transfer(op.initiator, op.target, READ_REQUEST_BYTES, tag="rdma-read-req")
            yield req.done
            resp = net.transfer(op.target, op.initiator, op.nbytes, tag="rdma-read-resp")
            yield resp.done
        else:
            # Payload to responder, hardware ACK back.
            data = net.transfer(op.initiator, op.target, op.nbytes, tag="rdma-write")
            yield data.done
            ack = net.transfer(op.target, op.initiator, ACK_BYTES, tag="rdma-ack")
            yield ack.done
        op.t_completed = self.sim.now
        op.completion.trigger(op)
        return op

    # -- synchronous convenience ------------------------------------------

    def read_sync(self, initiator: int, target: int, nbytes: int) -> ProcessGen:
        """Generator: post one READ and wait for its completion."""
        op = self._post(RdmaOpType.READ, initiator, target, nbytes)
        yield op.completion

    def write_sync(self, initiator: int, target: int, nbytes: int) -> ProcessGen:
        """Generator: post one WRITE and wait for its completion."""
        op = self._post(RdmaOpType.WRITE, initiator, target, nbytes)
        yield op.completion

    def batch(self, ops: list[RdmaOp]) -> Event:
        """Event firing when every op in the batch has completed."""
        return all_of(self.sim, [op.completion for op in ops])


def uncontended_read_time(net: Network, nbytes: int) -> float:
    """Closed-form time of one RDMA READ on an idle fabric."""
    return net.uncontended_transfer_time(READ_REQUEST_BYTES) + net.uncontended_transfer_time(nbytes)


def uncontended_write_time(net: Network, nbytes: int) -> float:
    """Closed-form time of one RDMA WRITE (including ACK) on an idle fabric."""
    return net.uncontended_transfer_time(nbytes) + net.uncontended_transfer_time(ACK_BYTES)
