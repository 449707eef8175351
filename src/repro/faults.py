"""Deterministic fault injection for every tier of the runtime.

The paper's 65-node DAS5 runs assume a fault-free cluster; a production
deployment cannot. Li/Ahn/Welling's SG-MCMC sampler tolerates stale pi
reads, which is exactly the property a deployment should exploit for
graceful degradation: a slow, stalled, or dead component should cost
throughput, never correctness.

This module is the single source of truth for *what goes wrong and when*.
One seeded plan core carries three vocabularies, one per tier:

- :class:`FaultPlan` (training): link latency spikes, bandwidth
  degradation and RDMA op failures on the simulated fabric
  (:mod:`repro.sim.network`, :mod:`repro.sim.rdma`); DKV server stalls,
  answered with per-batch timeouts, bounded exponential-backoff retries,
  per-server circuit breaking and stale-snapshot fallback
  (:mod:`repro.cluster.dkv`); barrier deadlines that raise a typed
  :class:`CommTimeout` instead of hanging (the simulated clock of
  :mod:`repro.dist.sampler`);
  and worker-process crashes and stalls at a given iteration, detected by
  the master's heartbeat and healed by re-partitioning the dead worker's
  shard across survivors (:mod:`repro.dist.mp`).
- :class:`ServeFaultPlan` (serving): artifact corruption/truncation on
  disk, worker-*thread* crashes and stalls inside
  :class:`~repro.serve.server.ModelServer`, engine latency spikes, and
  swap-time publish failures. The consumers mirror the training
  discipline — typed errors, watchdog respawn, last-known-good rollback
  — see :mod:`repro.serve.server` and DESIGN.md §8.
- :class:`StreamFaultPlan` (streaming): malformed and out-of-order edge
  arrivals mangled into the stream before ingestion, publish failures,
  injected process kills at the trainer's durable-write phase boundaries
  (:data:`CRASH_PHASES`), torn journal frame writes, and transient source
  I/O errors. :class:`repro.stream.trainer.StreamTrainer`,
  :class:`repro.stream.journal.IngestJournal` and
  :class:`repro.stream.follow.FollowSupervisor` quarantine bad records,
  recover from the journal + manifest, and keep the last-known-good
  artifact serving — see DESIGN.md §11.

The core (:class:`_SeededPlan`) is the seed, the private streams, the
tuple of scheduled events, the i.i.d. fault rates, ``empty``,
``describe`` and one lookup, :meth:`~_SeededPlan.scheduled`; a tier adds
a method only where its meaning is the tier's own. :class:`WorkerCrash`
and :class:`WorkerStall` serve the mp tier (``at`` = iteration) and the
serve tier (``at`` = per-slot batch) alike.

Determinism: each private stream is seeded at a fixed offset from the
plan's seed, so a fixed plan produces a fixed fault sequence,
independent of the model's streams. An *empty* plan (nothing scheduled)
is a no-op: every consumer keeps what :func:`armed` returns, so it takes
no fault path and runs bit-identical to a build without this module.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.store import member_extent
from repro.store.provider import read_npy_header


# -- typed failures ---------------------------------------------------------


class FaultError(RuntimeError):
    """Base class for failures surfaced by the fault-tolerance layer."""


class CommTimeout(FaultError):
    """A barrier/collective deadline expired waiting on a rank."""

    def __init__(self, op: str, worker: int, lag: float, timeout: float) -> None:
        self.op = op
        self.worker = worker
        self.lag = lag
        self.timeout = timeout
        lag_s = "inf" if math.isinf(lag) else f"{lag:.3g}s"
        super().__init__(
            f"{op}: worker {worker} lagged {lag_s} past the {timeout:.3g}s deadline"
        )


class DKVTimeout(FaultError):
    """A DKV batch exhausted its retries and stale fallback was disabled."""

    def __init__(self, server: int, attempts: int) -> None:
        self.server = server
        self.attempts = attempts
        super().__init__(
            f"DKV server {server} unresponsive after {attempts} attempts"
        )


class WorkerCrashed(FaultError):
    """One or more worker processes died (or were fenced as dead)."""

    def __init__(self, workers: Sequence[int], stalled: bool = False) -> None:
        self.workers = tuple(sorted(workers))
        self.stalled = stalled
        kind = "stalled past heartbeat deadline" if stalled else "crashed"
        super().__init__(f"worker(s) {list(self.workers)} {kind}")


class InjectedCrash(FaultError):
    """A scheduled process kill fired (stands in for ``kill -9``).

    Raised by the streaming tier's durability drills at an injected
    crash point: the process state past this point is considered gone,
    and recovery must come from what was already durable on disk
    (journal segments, manifest, checkpoints). Tests and the
    ``chaos-stream`` drill catch it at the top level and then resume
    from disk, exactly as a supervisor restarting a dead process would.
    """

    def __init__(self, where: str) -> None:
        self.where = where
        super().__init__(f"injected crash at {where}")


# -- fault event types ------------------------------------------------------


def _check_floors(owner: str, values: dict, floors: dict) -> None:
    """The one range check of a plan's numbers: each numeric value must
    be >= its floor (0 unless ``floors`` names another)."""
    for name, value in values.items():
        floor = floors.get(name, 0)
        if isinstance(value, (int, float)) and value < floor:
            raise ValueError(f"{owner}.{name} must be >= {floor}")


@dataclass(frozen=True)
class _Event:
    """A scheduled fault. Its numeric fields are ids, indices, counts and
    durations, each held to its floor in ``FLOORS`` (0 when unnamed)."""

    FLOORS: ClassVar[dict] = {}

    def __post_init__(self) -> None:
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        _check_floors(type(self).__name__, values, self.FLOORS)


@dataclass(frozen=True)
class ServerStall(_Event):
    """DKV server ``server`` is unresponsive during an iteration window.

    ``flaky_attempts > 0`` models transient slowness instead of a hard
    stall: within the window, retry attempt ``flaky_attempts`` (0-based)
    and later succeed — so a bounded backoff ladder rides it out.
    """

    FLOORS: ClassVar[dict] = {"duration": 1}

    server: int
    start: int
    duration: int = 1
    flaky_attempts: int = 0

    def blocks(self, iteration: int, attempt: int) -> bool:
        if not self.start <= iteration < self.start + self.duration:
            return False
        return self.flaky_attempts == 0 or attempt < self.flaky_attempts


@dataclass(frozen=True)
class LinkDegradation(_Event):
    """Degrade traffic touching ``node`` (``-1`` = every node) during a
    simulated-time window: latency multiplied, bandwidth divided."""

    FLOORS: ClassVar[dict] = {"node": -1, "latency_factor": 1.0}

    node: int = -1
    start: float = 0.0
    duration: float = math.inf
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def active(self, node: int, now: float) -> bool:
        if self.node >= 0 and self.node != node:
            return False
        return self.start <= now < self.start + self.duration


@dataclass(frozen=True)
class WorkerCrash(_Event):
    """Worker ``worker`` dies at step ``at``: an mp worker process on
    entering iteration ``at``, a serve worker thread starting its
    ``at``-th batch.

    Serve batch counters are per worker *slot* and survive a respawn
    (the replacement thread inherits the counter), so a scheduled crash
    fires exactly once.
    """

    worker: int
    at: int


@dataclass(frozen=True)
class WorkerStall(_Event):
    """Worker ``worker`` stalls ``seconds`` at step ``at`` (iteration or
    per-slot batch, as for :class:`WorkerCrash`): real seconds in the
    multiprocess backend and the server, simulated lag elsewhere."""

    worker: int
    at: int
    seconds: float


#: supported on-disk artifact corruption modes (see ServeFaultPlan.corrupt_file).
ARTIFACT_FAULT_MODES = ("flip", "truncate", "payload")


@dataclass(frozen=True)
class ArtifactFault(_Event):
    """Corrupt the artifact container used by the ``publish``-th publish
    attempt, through its ``pi.npy`` member.

    ``mode`` selects the damage: ``truncate`` cuts the member short
    (caught when it is opened: the header promises more bytes), ``flip``
    XORs bytes mid-payload and ``payload`` swaps two ``pi`` rows — both
    leave a well-formed member that only its sha256 digest in the sealed
    manifest can catch, which is why a publish verifies in full.
    """

    publish: int
    mode: str = "flip"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ARTIFACT_FAULT_MODES:
            raise ValueError(f"mode must be one of {ARTIFACT_FAULT_MODES}")


@dataclass(frozen=True)
class SwapFailure(_Event):
    """The server's ``publish``-th accepted publish fails mid-swap
    (after the new artifact is installed, before the swap commits)."""

    publish: int


#: arrival corruption modes StreamFaultPlan.mangle_arrivals cycles through.
ARRIVAL_FAULT_MODES = ("self-loop", "negative-id", "id-overflow")


@dataclass(frozen=True)
class PublishFailure(_Event):
    """The trainer's publish for ``generation`` fails mid-generation.

    The generation still trains and checkpoints; only the artifact
    rewrite is suppressed, so the serving tier keeps answering from the
    last successfully published generation.
    """

    generation: int


#: the trainer's durable-generation phases at which a crash can be injected,
#: in execution order (see repro.stream.trainer.StreamTrainer.run_generation).
CRASH_PHASES = (
    "post-journal-append",
    "mid-compaction",
    "post-checkpoint-pre-publish",
    "post-publish-pre-manifest",
)


@dataclass(frozen=True)
class TrainerCrash(_Event):
    """The streaming trainer dies (:class:`InjectedCrash`) when generation
    ``generation`` reaches phase ``phase``.

    Phases are the durable-write boundaries of
    :meth:`~repro.stream.trainer.StreamTrainer.run_generation`; killing at
    each one exercises a distinct recovery path (see DESIGN.md §11
    recovery matrix). ``mid-compaction`` fires *inside*
    :meth:`~repro.stream.journal.IngestJournal.compact`, after the active
    segment is sealed but before obsolete segments are unlinked.
    """

    phase: str
    generation: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.phase not in CRASH_PHASES:
            raise ValueError(f"phase must be one of {CRASH_PHASES}")


@dataclass(frozen=True)
class JournalTear(_Event):
    """The journal's ``append``-th frame write is torn: a partial frame
    reaches the segment file (no fsync) and the process dies
    (:class:`InjectedCrash`) before the append is acknowledged.

    Models a kill mid-``write(2)``. The torn tail must be detected and
    truncated on the next :class:`~repro.stream.journal.IngestJournal`
    open; because the append was never acknowledged, the caller re-feeds
    the batch and overlay dedup keeps the semantics exactly-once.
    """

    append: int


@dataclass(frozen=True)
class SourceFault(_Event):
    """Polls ``poll`` .. ``poll + errors - 1`` of the live source raise
    ``OSError`` (transient I/O failure; poll counters are the follow
    supervisor's attempt indices). The supervisor must ride it out with
    jittered exponential backoff, or raise a typed ``SourceStalled``
    once the stall deadline expires.
    """

    FLOORS: ClassVar[dict] = {"errors": 1}

    poll: int
    errors: int = 1

    def hits(self, poll: int) -> bool:
        return self.poll <= poll < self.poll + self.errors


# -- the plan core ----------------------------------------------------------

_EventT = TypeVar("_EventT", bound=_Event)


class _SeededPlan:
    """A seeded, immutable schedule of faults: what every tier's plan is.

    ``STREAMS`` names a tier's private RNG streams and their offsets from
    ``seed``, so a fixed plan draws a fixed sequence on every run
    (``tests/test_faults.py::TestPinnedFaultSequences`` holds literals).
    Every draw takes one lock: serve worker threads draw concurrently,
    and the *sequence* of draws stays the plan's. ``draws`` counts the
    numbers each stream has handed out.

    Args:
        seed: seed of the plan's private streams.
        events: the scheduled :class:`_Event` s, in the order given.
        rates: i.i.d. per-draw fault probabilities, each in ``[0, 1)``.
    """

    STREAMS: ClassVar[dict] = {}

    def __init__(self, seed: int, events: Iterable[_Event], rates: dict) -> None:
        for name, rate in rates.items():
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        self.seed = int(seed)
        self.events = tuple(events)
        self.rates = {name: float(rate) for name, rate in rates.items()}
        self.draws = dict.fromkeys(self.STREAMS, 0)
        self._streams = {
            name: np.random.default_rng(self.seed + offset)
            for name, offset in self.STREAMS.items()
        }
        self._lock = threading.Lock()

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing (see :func:`armed`)."""
        return not self.events and not any(self.rates.values())

    def scheduled(self, kind: type[_EventT], **where) -> tuple[_EventT, ...]:
        """The scheduled ``kind`` events whose fields equal ``where``,
        e.g. ``scheduled(SwapFailure, publish=3)``."""
        return tuple(
            e for e in self.events
            if type(e) is kind and all(getattr(e, k) == v for k, v in where.items())
        )

    def crash_due(self, worker: int, at: int) -> bool:
        """Should ``worker`` die at step ``at`` (see :class:`WorkerCrash`)?"""
        return bool(self.scheduled(WorkerCrash, worker=worker, at=at))

    def stall_seconds(self, worker: int, at: int) -> float:
        """Total injected stall for ``worker`` at step ``at``."""
        return sum(s.seconds for s in self.scheduled(WorkerStall, worker=worker, at=at))

    def describe(self) -> str:
        """One line: the tier, seed, events counted by kind, nonzero rates."""
        name = type(self).__name__
        if self.empty:
            return f"{name}(empty)"
        kinds = Counter(re.sub(r"(?<!^)(?=[A-Z])", " ", type(e).__name__).lower()
                        for e in self.events)
        parts = [f"seed={self.seed}"]
        parts += [f"{kind} x{n}" for kind, n in kinds.items()]
        parts += [f"{rate}={value:g}" for rate, value in self.rates.items() if value]
        return f"{name}(" + ", ".join(parts) + ")"

    __repr__ = describe

    def _draw(self, stream: str, n: int, method: str = "random", *bounds) -> np.ndarray:
        """``n`` values of ``Generator.<method>(*bounds)`` from private
        stream ``stream``."""
        with self._lock:
            self.draws[stream] += n
            return getattr(self._streams[stream], method)(*bounds, size=n)


_PlanT = TypeVar("_PlanT", bound=_SeededPlan)


def armed(plan: Optional[_PlanT]) -> Optional[_PlanT]:
    """``plan``, or None when there is none or it schedules nothing.

    The one place the empty-plan bypass is decided: a consumer keeps what
    this returns and tests it against None, so an empty plan takes no
    fault path and a run is bit-identical to one without a plan.
    """
    return None if plan is None or plan.empty else plan


# -- training tier ------------------------------------------------------------


class FaultPlan(_SeededPlan):
    """Faults of the training runtime, simulated and multiprocess.

    Args:
        seed: seed of the plan's private RNG stream (RDMA failure draws).
        server_stalls: DKV server stall windows.
        link_faults: fabric latency/bandwidth degradation windows.
        worker_crashes: process deaths at a given iteration.
        worker_stalls: process stalls at a given iteration.
        rdma_failure_rate: i.i.d. probability that a posted RDMA op fails
            at the transport level (retried by the DKV client).
    """

    STREAMS: ClassVar[dict] = {"rdma": 0x5DF0}

    def __init__(
        self,
        seed: int = 0,
        server_stalls: Iterable[ServerStall] = (),
        link_faults: Iterable[LinkDegradation] = (),
        worker_crashes: Iterable[WorkerCrash] = (),
        worker_stalls: Iterable[WorkerStall] = (),
        rdma_failure_rate: float = 0.0,
    ) -> None:
        super().__init__(
            seed,
            (*server_stalls, *link_faults, *worker_crashes, *worker_stalls),
            {"rdma_failure_rate": rdma_failure_rate},
        )

    def server_stalled(self, server: int, iteration: int, attempt: int = 0) -> bool:
        """Would attempt ``attempt`` against ``server`` time out now?"""
        return any(
            s.blocks(iteration, attempt) for s in self.scheduled(ServerStall, server=server)
        )

    def link_factors(self, src: int, dst: int, now: float) -> tuple[float, float]:
        """(latency multiplier, bandwidth divisor) for a transfer between
        ``src`` and ``dst`` at simulated time ``now``. Overlapping faults
        compose multiplicatively."""
        lat = 1.0
        bw = 1.0
        for f in self.scheduled(LinkDegradation):
            if f.active(src, now) or f.active(dst, now):
                lat *= f.latency_factor
                bw *= f.bandwidth_factor
        return lat, bw

    def rdma_op_fails(self) -> bool:
        """Deterministic Bernoulli draw from the plan's private stream."""
        rate = self.rates["rdma_failure_rate"]
        return rate > 0.0 and bool(self._draw("rdma", 1)[0] < rate)

    def max_worker_lag(self, iteration: int) -> tuple[int, float]:
        """(worker, lag seconds) of the worst laggard at ``iteration``.

        A crashed worker lags forever (``inf``); a stalled one lags its
        stall. The simulated clock's barrier deadline
        (:class:`~repro.dist.sampler.SimulatedClock`) reads it.
        """
        for c in self.scheduled(WorkerCrash):
            if c.at <= iteration:
                return c.worker, math.inf
        worst = (-1, 0.0)
        for s in self.scheduled(WorkerStall, at=iteration):
            if s.seconds > worst[1]:
                worst = (s.worker, s.seconds)
        return worst


#: the chaos drill's DKV server stall: server 0, iterations 2 and 3
CHAOS_STALL = ServerStall(server=0, start=2, duration=2)


def chaos_plan(
    seed: int = 0,
    n_workers: int = 4,
    crash_iteration: int = 5,
    rdma_failure_rate: float = 0.05,
) -> FaultPlan:
    """A canonical chaos drill: one worker crash, the
    :data:`CHAOS_STALL` DKV server stall, and a background RDMA failure
    rate — the acceptance scenario for the chaos tests and the
    ``repro chaos`` CLI drill."""
    if n_workers < 2:
        raise ValueError("chaos drill needs >= 2 workers to survive a crash")
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(n_workers))
    return FaultPlan(
        seed=seed,
        server_stalls=(CHAOS_STALL,),
        worker_crashes=(WorkerCrash(victim, crash_iteration),),
        rdma_failure_rate=rdma_failure_rate,
    )


# -- serving tier -------------------------------------------------------------


class ServeFaultPlan(_SeededPlan):
    """Faults of the serving tier.

    Consumed by :class:`~repro.serve.server.ModelServer` (worker
    crashes/stalls, swap failures), :class:`~repro.serve.engine.QueryEngine`
    (latency spikes), and the chaos-serve drill
    (:func:`repro.bench.chaosbench.run_chaos_serve`, artifact
    corruption).

    Args:
        seed: seed of the plan's private RNG streams.
        artifact_faults: on-disk corruption of publish payloads,
            indexed by the *drill's* publish-attempt counter.
        worker_crashes: serve worker-thread deaths at a per-slot batch
            index.
        worker_stalls: serve worker-thread stalls at a per-slot batch
            index.
        swap_failures: mid-swap failures, indexed by the *server's*
            accepted-publish counter.
        spike_rate: i.i.d. probability that one engine call sleeps
            ``spike_seconds`` (latency spike).
        spike_seconds: duration of one injected latency spike; a spike
            needs both, so either at zero schedules none.
    """

    STREAMS: ClassVar[dict] = {"spike": 0x5E12, "corrupt": 0xC0DE}

    def __init__(
        self,
        seed: int = 0,
        artifact_faults: Iterable[ArtifactFault] = (),
        worker_crashes: Iterable[WorkerCrash] = (),
        worker_stalls: Iterable[WorkerStall] = (),
        swap_failures: Iterable[SwapFailure] = (),
        spike_rate: float = 0.0,
        spike_seconds: float = 0.0,
    ) -> None:
        super().__init__(
            seed,
            (*artifact_faults, *worker_crashes, *worker_stalls, *swap_failures),
            {"spike_rate": spike_rate},
        )
        _check_floors(type(self).__name__, {"spike_seconds": spike_seconds}, {})
        self.spike_seconds = float(spike_seconds)
        if not self.spike_seconds:
            self.rates["spike_rate"] = 0.0

    def engine_delay(self) -> float:
        """Seconds of injected latency for one engine call (usually 0)."""
        rate = self.rates["spike_rate"]
        if rate <= 0.0:
            return 0.0
        return self.spike_seconds if self._draw("spike", 1)[0] < rate else 0.0

    def corrupt_file(self, path: Union[str, Path], mode: str) -> None:
        """Apply ``mode`` damage to the artifact container at ``path`` —
        to its ``pi`` member's byte range, in place (a hard-linked second
        name of the container sees it too).

        Deterministic: the damaged bytes come from the plan's private
        corruption stream, so a fixed plan applied to fixed bytes
        produces a fixed corrupted member.
        """
        if mode not in ARTIFACT_FAULT_MODES:
            raise ValueError(f"mode must be one of {ARTIFACT_FAULT_MODES}")
        fpath, offset, length = member_extent(path, "pi")
        if mode == "payload":
            # A well-formed member that no longer matches the manifest:
            # swap two pi rows (header, shape and simplex invariants all
            # hold). Only the sha256 digest can catch this one.
            with open(fpath, "rb") as fh:
                layout = read_npy_header(fh, offset, length)
            pi = np.memmap(fpath, dtype=layout.dtype, mode="r+",
                           offset=layout.data_offset, shape=layout.shape)
            pi[[0, 1]] = pi[[1, 0]]
            pi.flush()
            return
        if mode == "truncate":
            os.truncate(fpath, offset + max(1, int(length * 0.6)))
            return
        # "flip": mid-payload, so the header still parses and maps
        with open(fpath, "r+b") as fh:
            fh.seek(offset)
            data = bytearray(fh.read(length))
            lo, hi = len(data) // 4, max(len(data) // 4 + 1, len(data) // 2)
            offsets = self._draw("corrupt", 64, "integers", lo, hi)
            masks = self._draw("corrupt", 64, "integers", 1, 256)
            for off, mask in zip(offsets, masks):
                data[int(off)] ^= int(mask)
            fh.seek(offset)
            fh.write(data)


#: the serving drill's crashed worker dies at this per-slot batch index
CHAOS_SERVE_CRASH_BATCH = 3
#: the serving drill's engine latency spikes: rate and seconds of each
CHAOS_SERVE_SPIKE_RATE = 0.05
CHAOS_SERVE_SPIKE_SECONDS = 0.002


def chaos_serve_plan(seed: int = 0, n_workers: int = 2) -> ServeFaultPlan:
    """The canonical serving chaos drill: two corrupt publish payloads
    (one caught by the archive/CRC layer, one only by the SHA-256
    verify), one mid-swap failure on the first publish the server
    actually accepts, one worker-thread crash, and background engine
    latency spikes — the acceptance scenario for ``repro chaos-serve``
    and ``tests/test_serve_faults.py``."""
    if n_workers < 1:
        raise ValueError("serve chaos drill needs >= 1 worker thread")
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(n_workers))
    return ServeFaultPlan(
        seed=seed,
        artifact_faults=(
            ArtifactFault(publish=0, mode="truncate"),
            ArtifactFault(publish=1, mode="payload"),
        ),
        swap_failures=(SwapFailure(publish=0),),
        worker_crashes=(WorkerCrash(victim, CHAOS_SERVE_CRASH_BATCH),),
        spike_rate=CHAOS_SERVE_SPIKE_RATE,
        spike_seconds=CHAOS_SERVE_SPIKE_SECONDS,
    )


# -- streaming tier -----------------------------------------------------------


class StreamFaultPlan(_SeededPlan):
    """Faults of the streaming tier.

    Consumed by :class:`repro.stream.trainer.StreamTrainer`, which runs
    every arrival batch through :meth:`mangle_arrivals` before ingestion
    and looks up :class:`PublishFailure` / :class:`TrainerCrash` at each
    generation, by :class:`repro.stream.journal.IngestJournal`
    (:class:`JournalTear`) and by
    :class:`repro.stream.follow.FollowSupervisor`
    (:meth:`source_io_fails`).

    The mangler is duck-typed over arrival records — any frozen
    dataclass with ``(timestamp, src, dst)`` fields (i.e.
    :class:`repro.stream.source.EdgeArrival`) works — so this module
    never imports :mod:`repro.stream`.

    Args:
        seed: seed of the plan's private RNG stream.
        malformed_rate: i.i.d. probability that an arrival is corrupted
            into a malformed record (mode cycled deterministically
            through ``ARRIVAL_FAULT_MODES``).
        out_of_order_rate: i.i.d. probability that an arrival's timestamp
            is pushed far into the past.
        publish_failures: generations whose publish is suppressed.
        trainer_crashes: injected process kills at durable-write phase
            boundaries of the generation loop (see :data:`CRASH_PHASES`).
        journal_tears: torn journal frame writes, indexed by the
            journal's lifetime append counter.
        source_faults: transient ``OSError`` windows on live-source
            polls, indexed by the follow supervisor's poll counter.
    """

    STREAMS: ClassVar[dict] = {"mangle": 0x57E4}

    def __init__(
        self,
        seed: int = 0,
        malformed_rate: float = 0.0,
        out_of_order_rate: float = 0.0,
        publish_failures: Iterable[PublishFailure] = (),
        trainer_crashes: Iterable[TrainerCrash] = (),
        journal_tears: Iterable[JournalTear] = (),
        source_faults: Iterable[SourceFault] = (),
    ) -> None:
        super().__init__(
            seed,
            (*publish_failures, *trainer_crashes, *journal_tears, *source_faults),
            {"malformed_rate": malformed_rate, "out_of_order_rate": out_of_order_rate},
        )

    def mangle_arrivals(self, arrivals: Sequence) -> list:
        """Return ``arrivals`` with scheduled corruption applied.

        Each record independently draws malformed-then-out-of-order from
        the plan's private stream (two draws per record, so the fault
        sequence is independent of which faults are enabled). Corruption
        rebuilds records via :func:`dataclasses.replace`; the originals
        are never mutated.
        """
        if self.empty or not arrivals:
            return list(arrivals)
        draws = self._draw("mangle", 2 * len(arrivals)).reshape(-1, 2)
        out = []
        n_mangled = 0
        for a, (u_bad, u_late) in zip(arrivals, draws):
            if u_bad < self.rates["malformed_rate"]:
                mode = ARRIVAL_FAULT_MODES[n_mangled % len(ARRIVAL_FAULT_MODES)]
                n_mangled += 1
                if mode == "self-loop":
                    a = dataclasses.replace(a, dst=a.src)
                elif mode == "negative-id":
                    a = dataclasses.replace(a, src=-1)
                else:  # id-overflow
                    a = dataclasses.replace(a, dst=(1 << 31) + 7)
            elif u_late < self.rates["out_of_order_rate"]:
                a = dataclasses.replace(a, timestamp=a.timestamp - 1e6)
            out.append(a)
        return out

    def source_io_fails(self, poll_index: int) -> bool:
        """Does the live source's ``poll_index``-th poll raise OSError?"""
        return any(f.hits(poll_index) for f in self.scheduled(SourceFault))
