"""Discrete-event simulation substrate.

This package replaces the hardware the paper ran on (DAS5: FDR InfiniBand,
16-core Xeon nodes) with a deterministic discrete-event simulator:

- :mod:`repro.sim.core` -- event loop, simulated processes, resources;
- :mod:`repro.sim.network` -- NIC / link / switch model with latency and
  serialization (bandwidth) delays;
- :mod:`repro.sim.rdma` -- one-sided RDMA read/write verbs on top of the
  network model;
- :mod:`repro.sim.qperf` -- a ``qperf``-equivalent micro-benchmark used as
  the roofline in the paper's Figure 5.

The simulator is used by :mod:`repro.cluster` to time the distributed
algorithm's communication, and directly by the Figure 5 benchmark.
"""

from repro.sim.core import Event, EventQueue, Process, Resource, Simulator, Timeout
from repro.sim.network import Nic, Network, NetworkParams, Message
from repro.sim.rdma import QueuePair, RdmaEngine, RdmaOp, RdmaOpType

__all__ = [
    "Event",
    "EventQueue",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
    "Nic",
    "Network",
    "NetworkParams",
    "Message",
    "QueuePair",
    "RdmaEngine",
    "RdmaOp",
    "RdmaOpType",
]
