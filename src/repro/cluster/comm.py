"""In-process MPI-like communicator with message accounting.

The distributed engine is written SPMD-style against this API, which
mirrors the four mpi4py collectives the paper's MVAPICH2 usage maps to
(Section III-A/C): ``scatter``, ``bcast``, ``reduce``, ``barrier``. Ranks run
inside one Python process (the BSP runtime calls each rank's stage
function in turn), so the collectives are implemented functionally; every
call logs the message sizes it *would* put on the fabric, and the cost
model converts those into simulated time.

A real mpi4py backend could implement the same interface one-to-one —
the method names and semantics are deliberately aligned with
``mpi4py.MPI.Comm`` (lowercase object variants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.faults import CommTimeout, FaultPlan, armed


@dataclass
class CommStats:
    """Accumulated traffic of one communicator."""

    messages: int = 0
    bytes_sent: int = 0
    by_op: dict[str, int] = field(default_factory=dict)

    def log(self, op: str, nbytes: int, messages: int = 1) -> None:
        self.messages += messages
        self.bytes_sent += nbytes
        self.by_op[op] = self.by_op.get(op, 0) + nbytes


def _payload_bytes(obj: Any) -> int:
    """Approximate wire size of a payload."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(k) + _payload_bytes(v) for k, v in obj.items())
    if isinstance(obj, (int, float, bool, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode())
    return 64  # conservative default for small objects


class Communicator:
    """A world of ``size`` ranks; rank 0 is the master.

    The collectives are *deferred-functional*: the master (or root) side
    deposits data, worker-side calls pick their slice up. Because the BSP
    runtime executes ranks sequentially within a stage, a collective is
    expressed as a root call returning per-rank values plus per-rank
    accessors — see :class:`PendingScatter`.

    For convenience, the common patterns used by the distributed sampler
    are offered as one-shot helpers operating on rank-indexed lists.
    """

    def __init__(
        self,
        size: int,
        faults: Optional[FaultPlan] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """``faults`` + ``timeout`` arm collective deadlines: a rank whose
        injected lag (stall, or forever for a crash) exceeds ``timeout``
        raises a typed :class:`~repro.faults.CommTimeout` at the next
        barrier/reduce instead of modeling an indefinite hang. Lags at or
        under the deadline are returned so the cost model can charge them
        as straggler time (degradation, not failure)."""
        if size < 1:
            raise ValueError("communicator needs at least one rank")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.size = size
        self.stats = CommStats()
        self.barriers = 0
        self.faults = armed(faults)
        self.timeout = timeout

    def check_deadline(self, op: str, iteration: int) -> float:
        """Worst injected straggler lag at ``iteration`` (seconds).

        Raises :class:`CommTimeout` when the worst lag exceeds the
        configured deadline — the typed alternative to a hung collective.
        """
        if self.faults is None:
            return 0.0
        worker, lag = self.faults.max_worker_lag(iteration)
        if self.timeout is not None and lag > self.timeout:
            raise CommTimeout(op, worker, lag, self.timeout)
        return lag if np.isfinite(lag) else 0.0

    # -- collectives (functional one-shots) ----------------------------------

    def scatter(self, chunks: Sequence[Any], root: int = 0) -> list[Any]:
        """Root sends ``chunks[r]`` to each rank r; returns the list.

        Accounting: the root serializes every non-root chunk through its
        NIC (this serialization is why mini-batch deployment appears as a
        master-side cost in Figure 1).
        """
        if len(chunks) != self.size:
            raise ValueError(f"need {self.size} chunks, got {len(chunks)}")
        nbytes = sum(_payload_bytes(c) for i, c in enumerate(chunks) if i != root)
        self.stats.log("scatter", nbytes, messages=self.size - 1)
        return list(chunks)

    def bcast(self, value: Any, root: int = 0) -> list[Any]:
        """Root broadcasts ``value``; returns per-rank copies (shared)."""
        nbytes = _payload_bytes(value) * max(0, self.size - 1)
        self.stats.log("bcast", nbytes, messages=self.size - 1)
        return [value for _ in range(self.size)]

    def reduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] = np.add,
        root: int = 0,
        iteration: Optional[int] = None,
    ) -> Any:
        """Tree reduction of per-rank values to the root."""
        if len(values) != self.size:
            raise ValueError(f"need {self.size} values, got {len(values)}")
        if iteration is not None:
            self.check_deadline("reduce", iteration)
        nbytes = sum(_payload_bytes(v) for i, v in enumerate(values) if i != root)
        self.stats.log("reduce", nbytes, messages=self.size - 1)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    def barrier(self, iteration: Optional[int] = None) -> float:
        """Synchronization point (counted; charged by the cost model).

        With a fault plan armed and ``iteration`` given, enforces the
        collective deadline; returns the straggler lag to charge.
        """
        self.barriers += 1
        if iteration is None:
            return 0.0
        return self.check_deadline("barrier", iteration)

    # -- point to point ----------------------------------------------------------

    def send(self, src: int, dst: int, payload: Any) -> Any:
        """Record a point-to-point message; returns the payload (delivered)."""
        if not (0 <= src < self.size and 0 <= dst < self.size):
            raise ValueError("rank out of range")
        if src != dst:
            self.stats.log("p2p", _payload_bytes(payload))
        return payload
