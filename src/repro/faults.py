"""Deterministic fault injection for the distributed runtime.

The paper's 65-node DAS5 runs assume a fault-free cluster; a production
deployment cannot. Li/Ahn/Welling's SG-MCMC sampler tolerates stale pi
reads, which is exactly the property a deployment should exploit for
graceful degradation: a slow, stalled, or dead component should cost
throughput, never correctness.

This module is the single source of truth for *what goes wrong and when*.
A :class:`FaultPlan` is a seeded, immutable schedule of faults that every
distributed layer consumes:

- :mod:`repro.sim.network` / :mod:`repro.sim.rdma` — link latency spikes,
  bandwidth degradation, and RDMA op failures on the simulated fabric;
- :mod:`repro.cluster.dkv` — DKV server stalls, answered with per-batch
  timeouts, bounded exponential-backoff retries, per-server circuit
  breaking, and stale-snapshot fallback;
- :mod:`repro.cluster.comm` — barrier/collective deadlines that raise a
  typed :class:`CommTimeout` instead of hanging;
- :mod:`repro.dist.mp` — worker crashes and stalls at a given iteration,
  detected by the master's heartbeat and healed by re-partitioning the
  dead worker's shard across survivors.

The streaming tier has its own fault domain too (:class:`StreamFaultPlan`):
malformed and out-of-order edge arrivals mangled into the stream before
ingestion, mid-generation publish failures, injected process kills at
the trainer's durable-write phase boundaries (:data:`CRASH_PHASES`),
torn journal frame writes, and transient source I/O errors. The
consumers (:class:`repro.stream.trainer.StreamTrainer`,
:class:`repro.stream.journal.IngestJournal`,
:class:`repro.stream.follow.FollowSupervisor`,
:class:`repro.stream.delta.DeltaOverlay`) quarantine bad records,
recover from the journal + manifest, and keep the last-known-good
artifact serving — see DESIGN.md §11.

The serving tier has its own fault domain (:class:`ServeFaultPlan`):
artifact corruption/truncation on disk, worker-*thread* crashes and
stalls inside :class:`~repro.serve.server.ModelServer`, engine latency
spikes, and swap-time publish failures. The serve consumers mirror the
training discipline — typed errors, watchdog respawn, last-known-good
rollback — see :mod:`repro.serve.server` and DESIGN.md §8.

Determinism: each plan owns its own RNG streams (seeded at
construction), so a fixed plan produces a fixed fault sequence,
independent of the model RNG streams. An *empty* plan (no faults
configured) is guaranteed to be a no-op: every consumer bypasses the
fault paths entirely, so runs are bit-identical to a build without this
module.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np


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


@dataclass(frozen=True)
class ServerStall:
    """DKV server ``server`` is unresponsive during an iteration window.

    ``flaky_attempts > 0`` models transient slowness instead of a hard
    stall: within the window, retry attempt ``flaky_attempts`` (0-based)
    and later succeed — so a bounded backoff ladder rides it out.
    """

    server: int
    start: int
    duration: int = 1
    flaky_attempts: int = 0

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ValueError("server must be >= 0")
        if self.start < 0 or self.duration < 1:
            raise ValueError("need start >= 0 and duration >= 1")
        if self.flaky_attempts < 0:
            raise ValueError("flaky_attempts must be >= 0")

    def blocks(self, iteration: int, attempt: int) -> bool:
        if not self.start <= iteration < self.start + self.duration:
            return False
        return self.flaky_attempts == 0 or attempt < self.flaky_attempts


@dataclass(frozen=True)
class LinkDegradation:
    """Degrade traffic touching ``node`` (``-1`` = every node) during a
    simulated-time window: latency multiplied, bandwidth divided."""

    node: int = -1
    start: float = 0.0
    duration: float = math.inf
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def active(self, node: int, now: float) -> bool:
        if self.node >= 0 and self.node != node:
            return False
        return self.start <= now < self.start + self.duration


@dataclass(frozen=True)
class WorkerCrash:
    """Worker process ``worker`` dies when it begins iteration ``iteration``."""

    worker: int
    iteration: int

    def __post_init__(self) -> None:
        if self.worker < 0 or self.iteration < 0:
            raise ValueError("worker and iteration must be >= 0")


@dataclass(frozen=True)
class WorkerStall:
    """Worker ``worker`` stalls ``seconds`` at iteration ``iteration``
    (real seconds in the multiprocess backend, simulated lag elsewhere)."""

    worker: int
    iteration: int
    seconds: float

    def __post_init__(self) -> None:
        if self.worker < 0 or self.iteration < 0:
            raise ValueError("worker and iteration must be >= 0")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")


# -- the plan ---------------------------------------------------------------


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    Args:
        seed: seed of the plan's private RNG streams (RDMA failure draws).
        server_stalls: DKV server stall windows.
        link_faults: fabric latency/bandwidth degradation windows.
        worker_crashes: process deaths at a given iteration.
        worker_stalls: process stalls at a given iteration.
        rdma_failure_rate: i.i.d. probability that a posted RDMA op fails
            at the transport level (retried by the DKV client).
    """

    def __init__(
        self,
        seed: int = 0,
        server_stalls: Iterable[ServerStall] = (),
        link_faults: Iterable[LinkDegradation] = (),
        worker_crashes: Iterable[WorkerCrash] = (),
        worker_stalls: Iterable[WorkerStall] = (),
        rdma_failure_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= rdma_failure_rate < 1.0:
            raise ValueError("rdma_failure_rate must be in [0, 1)")
        self.seed = int(seed)
        self.server_stalls = tuple(server_stalls)
        self.link_faults = tuple(link_faults)
        self.worker_crashes = tuple(worker_crashes)
        self.worker_stalls = tuple(worker_stalls)
        self.rdma_failure_rate = float(rdma_failure_rate)
        self._rdma_rng = np.random.default_rng(self.seed + 0x5DF0)
        self.rdma_draws = 0

    # -- classification ----------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing — consumers must bypass
        every fault path, keeping runs bit-identical to a plain build."""
        return not (
            self.server_stalls
            or self.link_faults
            or self.worker_crashes
            or self.worker_stalls
            or self.rdma_failure_rate > 0.0
        )

    # -- DKV server stalls --------------------------------------------------

    def server_stalled(self, server: int, iteration: int, attempt: int = 0) -> bool:
        """Would attempt ``attempt`` against ``server`` time out now?"""
        return any(
            s.server == server and s.blocks(iteration, attempt)
            for s in self.server_stalls
        )

    # -- fabric degradation -------------------------------------------------

    def link_factors(self, src: int, dst: int, now: float) -> tuple[float, float]:
        """(latency multiplier, bandwidth divisor) for a transfer between
        ``src`` and ``dst`` at simulated time ``now``. Overlapping faults
        compose multiplicatively."""
        lat = 1.0
        bw = 1.0
        for f in self.link_faults:
            if f.active(src, now) or f.active(dst, now):
                lat *= f.latency_factor
                bw *= f.bandwidth_factor
        return lat, bw

    # -- RDMA op failures ---------------------------------------------------

    def rdma_op_fails(self) -> bool:
        """Deterministic Bernoulli draw from the plan's private stream."""
        if self.rdma_failure_rate <= 0.0:
            return False
        self.rdma_draws += 1
        return bool(self._rdma_rng.random() < self.rdma_failure_rate)

    # -- worker lifecycle ---------------------------------------------------

    def crash_due(self, worker: int, iteration: int) -> bool:
        """Should ``worker`` die on entering ``iteration``?"""
        return any(
            c.worker == worker and c.iteration == iteration
            for c in self.worker_crashes
        )

    def worker_stall_seconds(self, worker: int, iteration: int) -> float:
        """Total injected stall for ``worker`` at ``iteration``."""
        return sum(
            s.seconds
            for s in self.worker_stalls
            if s.worker == worker and s.iteration == iteration
        )

    def max_worker_lag(self, iteration: int) -> tuple[int, float]:
        """(worker, lag seconds) of the worst laggard at ``iteration``.

        A crashed worker lags forever (``inf``); a stalled one lags its
        stall. Used by :class:`~repro.cluster.comm.Communicator` deadlines.
        """
        worst = (-1, 0.0)
        for c in self.worker_crashes:
            if c.iteration <= iteration:
                return c.worker, math.inf
        for s in self.worker_stalls:
            if s.iteration == iteration and s.seconds > worst[1]:
                worst = (s.worker, s.seconds)
        return worst

    # -- display ------------------------------------------------------------

    def describe(self) -> str:
        if self.empty:
            return "FaultPlan(empty)"
        parts = [f"seed={self.seed}"]
        if self.server_stalls:
            parts.append(f"{len(self.server_stalls)} server stall(s)")
        if self.link_faults:
            parts.append(f"{len(self.link_faults)} link fault(s)")
        if self.worker_crashes:
            parts.append(f"{len(self.worker_crashes)} worker crash(es)")
        if self.worker_stalls:
            parts.append(f"{len(self.worker_stalls)} worker stall(s)")
        if self.rdma_failure_rate:
            parts.append(f"rdma_failure_rate={self.rdma_failure_rate:g}")
        return "FaultPlan(" + ", ".join(parts) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()


def chaos_plan(
    seed: int = 0,
    n_workers: int = 4,
    crash_iteration: int = 5,
    stall_server: int = 0,
    stall_start: int = 2,
    stall_duration: int = 2,
    rdma_failure_rate: float = 0.05,
) -> FaultPlan:
    """A canonical chaos drill: one worker crash, one DKV server stall,
    and a background RDMA failure rate — the acceptance scenario for the
    chaos tests and the ``repro chaos`` CLI drill."""
    if n_workers < 2:
        raise ValueError("chaos drill needs >= 2 workers to survive a crash")
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(n_workers))
    return FaultPlan(
        seed=seed,
        server_stalls=(ServerStall(stall_server, stall_start, stall_duration),),
        worker_crashes=(WorkerCrash(victim, crash_iteration),),
        rdma_failure_rate=rdma_failure_rate,
    )


# -- serving-tier fault domain ----------------------------------------------

#: supported on-disk artifact corruption modes (see ServeFaultPlan.corrupt_file).
ARTIFACT_FAULT_MODES = ("flip", "truncate", "payload")


@dataclass(frozen=True)
class ArtifactFault:
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
        if self.publish < 0:
            raise ValueError("publish must be >= 0")
        if self.mode not in ARTIFACT_FAULT_MODES:
            raise ValueError(f"mode must be one of {ARTIFACT_FAULT_MODES}")


@dataclass(frozen=True)
class ServeWorkerCrash:
    """Serve worker thread ``worker`` dies starting its ``batch``-th batch.

    Batch counters are per worker *slot* and survive a respawn (the
    replacement thread inherits the counter), so a scheduled crash fires
    exactly once.
    """

    worker: int
    batch: int

    def __post_init__(self) -> None:
        if self.worker < 0 or self.batch < 0:
            raise ValueError("worker and batch must be >= 0")


@dataclass(frozen=True)
class ServeWorkerStall:
    """Serve worker thread ``worker`` stalls ``seconds`` at its
    ``batch``-th batch (real wall-clock seconds, holding the batch)."""

    worker: int
    batch: int
    seconds: float

    def __post_init__(self) -> None:
        if self.worker < 0 or self.batch < 0:
            raise ValueError("worker and batch must be >= 0")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")


@dataclass(frozen=True)
class SwapFailure:
    """The server's ``publish``-th accepted publish fails mid-swap
    (after the new artifact is installed, before the swap commits)."""

    publish: int

    def __post_init__(self) -> None:
        if self.publish < 0:
            raise ValueError("publish must be >= 0")


class ServeFaultPlan:
    """A seeded, deterministic schedule of serving-tier faults.

    Consumed by :class:`~repro.serve.server.ModelServer` (worker
    crashes/stalls, swap failures), :class:`~repro.serve.engine.QueryEngine`
    (latency spikes), and the chaos-serve drill
    (:func:`repro.bench.chaosbench.run_chaos_serve`, artifact
    corruption). Mirrors :class:`FaultPlan`: private RNG streams, an
    empty plan is a guaranteed no-op, and a fixed plan reproduces a
    fixed fault sequence (``tests/test_serve_faults.py`` pins this with
    hypothesis).

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
        spike_seconds: duration of one injected latency spike.
    """

    def __init__(
        self,
        seed: int = 0,
        artifact_faults: Iterable[ArtifactFault] = (),
        worker_crashes: Iterable[ServeWorkerCrash] = (),
        worker_stalls: Iterable[ServeWorkerStall] = (),
        swap_failures: Iterable[SwapFailure] = (),
        spike_rate: float = 0.0,
        spike_seconds: float = 0.0,
    ) -> None:
        if not 0.0 <= spike_rate < 1.0:
            raise ValueError("spike_rate must be in [0, 1)")
        if spike_seconds < 0.0:
            raise ValueError("spike_seconds must be >= 0")
        self.seed = int(seed)
        self.artifact_faults = tuple(artifact_faults)
        self.worker_crashes = tuple(worker_crashes)
        self.worker_stalls = tuple(worker_stalls)
        self.swap_failures = tuple(swap_failures)
        self.spike_rate = float(spike_rate)
        self.spike_seconds = float(spike_seconds)
        # Private streams; the lock makes draws safe from concurrent serve
        # worker threads (the *sequence* of draws stays deterministic).
        self._rng_lock = threading.Lock()
        self._spike_rng = np.random.default_rng(self.seed + 0x5E12)
        self._corrupt_rng = np.random.default_rng(self.seed + 0xC0DE)
        self.spike_draws = 0

    @property
    def empty(self) -> bool:
        """True when nothing is scheduled — consumers must bypass every
        fault path, keeping serving bit-identical to a plain build."""
        return not (
            self.artifact_faults
            or self.worker_crashes
            or self.worker_stalls
            or self.swap_failures
            or (self.spike_rate > 0.0 and self.spike_seconds > 0.0)
        )

    # -- engine latency spikes ----------------------------------------------

    def engine_delay(self) -> float:
        """Seconds of injected latency for one engine call (usually 0)."""
        if self.spike_rate <= 0.0 or self.spike_seconds <= 0.0:
            return 0.0
        with self._rng_lock:
            self.spike_draws += 1
            hit = bool(self._spike_rng.random() < self.spike_rate)
        return self.spike_seconds if hit else 0.0

    # -- worker-thread lifecycle --------------------------------------------

    def worker_crash_due(self, worker: int, batch: int) -> bool:
        """Should serve worker ``worker`` die starting batch ``batch``?"""
        return any(
            c.worker == worker and c.batch == batch for c in self.worker_crashes
        )

    def worker_stall_seconds(self, worker: int, batch: int) -> float:
        """Total injected stall for serve worker ``worker`` at ``batch``."""
        return sum(
            s.seconds
            for s in self.worker_stalls
            if s.worker == worker and s.batch == batch
        )

    # -- publish / artifact faults ------------------------------------------

    def swap_fails(self, publish: int) -> bool:
        """Does the server's ``publish``-th accepted publish fail mid-swap?"""
        return any(f.publish == publish for f in self.swap_failures)

    def artifact_fault(self, publish: int) -> Optional[str]:
        """Corruption mode scheduled for publish attempt ``publish``, if any."""
        for f in self.artifact_faults:
            if f.publish == publish:
                return f.mode
        return None

    def corrupt_file(self, path: Union[str, Path], mode: str) -> None:
        """Apply ``mode`` damage to the artifact container at ``path`` —
        to its ``pi.npy`` member, in place (a hard-linked second name of
        the container sees it too).

        Deterministic: the damaged bytes come from the plan's private
        corruption stream, so a fixed plan applied to fixed bytes
        produces a fixed corrupted member.
        """
        member = Path(path) / "pi.npy"
        if mode not in ARTIFACT_FAULT_MODES:
            raise ValueError(f"mode must be one of {ARTIFACT_FAULT_MODES}")
        if mode == "payload":
            # A well-formed member that no longer matches the manifest:
            # swap two pi rows (header, shape and simplex invariants all
            # hold). Only the sha256 digest can catch this one.
            pi = np.lib.format.open_memmap(member, mode="r+")
            pi[[0, 1]] = pi[[1, 0]]
            pi.flush()
            return
        data = bytearray(member.read_bytes())
        if mode == "truncate":
            del data[max(1, int(len(data) * 0.6)) :]
        else:  # "flip": mid-payload, so the header still parses and maps
            with self._rng_lock:
                lo, hi = len(data) // 4, max(len(data) // 4 + 1, len(data) // 2)
                offsets = self._corrupt_rng.integers(lo, hi, size=64)
                masks = self._corrupt_rng.integers(1, 256, size=64)
            for off, mask in zip(offsets, masks):
                data[int(off)] ^= int(mask)
        member.write_bytes(bytes(data))

    # -- display ------------------------------------------------------------

    def describe(self) -> str:
        if self.empty:
            return "ServeFaultPlan(empty)"
        parts = [f"seed={self.seed}"]
        if self.artifact_faults:
            modes = ",".join(f.mode for f in self.artifact_faults)
            parts.append(f"{len(self.artifact_faults)} artifact fault(s) [{modes}]")
        if self.worker_crashes:
            parts.append(f"{len(self.worker_crashes)} worker crash(es)")
        if self.worker_stalls:
            parts.append(f"{len(self.worker_stalls)} worker stall(s)")
        if self.swap_failures:
            parts.append(f"{len(self.swap_failures)} swap failure(s)")
        if self.spike_rate > 0.0 and self.spike_seconds > 0.0:
            parts.append(
                f"spikes {self.spike_rate:g}x{self.spike_seconds * 1e3:g}ms"
            )
        return "ServeFaultPlan(" + ", ".join(parts) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()


# -- streaming-tier fault domain ---------------------------------------------

#: arrival corruption modes StreamFaultPlan.mangle_arrivals cycles through.
ARRIVAL_FAULT_MODES = ("self-loop", "negative-id", "id-overflow")


@dataclass(frozen=True)
class PublishFailure:
    """The trainer's publish for ``generation`` fails mid-generation.

    The generation still trains and checkpoints; only the artifact
    rewrite is suppressed, so the serving tier keeps answering from the
    last successfully published generation.
    """

    generation: int

    def __post_init__(self) -> None:
        if self.generation < 0:
            raise ValueError("generation must be >= 0")


#: the trainer's durable-generation phases at which a crash can be injected,
#: in execution order (see repro.stream.trainer.StreamTrainer.run_generation).
CRASH_PHASES = (
    "post-journal-append",
    "mid-compaction",
    "post-checkpoint-pre-publish",
    "post-publish-pre-manifest",
)


@dataclass(frozen=True)
class TrainerCrash:
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
        if self.phase not in CRASH_PHASES:
            raise ValueError(f"phase must be one of {CRASH_PHASES}")
        if self.generation < 0:
            raise ValueError("generation must be >= 0")


@dataclass(frozen=True)
class JournalTear:
    """The journal's ``append``-th frame write is torn: a partial frame
    reaches the segment file (no fsync) and the process dies
    (:class:`InjectedCrash`) before the append is acknowledged.

    Models a kill mid-``write(2)``. The torn tail must be detected and
    truncated on the next :class:`~repro.stream.journal.IngestJournal`
    open; because the append was never acknowledged, the caller re-feeds
    the batch and overlay dedup keeps the semantics exactly-once.
    """

    append: int

    def __post_init__(self) -> None:
        if self.append < 0:
            raise ValueError("append must be >= 0")


@dataclass(frozen=True)
class SourceFault:
    """Polls ``poll`` .. ``poll + errors - 1`` of the live source raise
    ``OSError`` (transient I/O failure; poll counters are the follow
    supervisor's attempt indices). The supervisor must ride it out with
    jittered exponential backoff, or raise a typed ``SourceStalled``
    once the stall deadline expires.
    """

    poll: int
    errors: int = 1

    def __post_init__(self) -> None:
        if self.poll < 0:
            raise ValueError("poll must be >= 0")
        if self.errors < 1:
            raise ValueError("errors must be >= 1")

    def hits(self, poll: int) -> bool:
        return self.poll <= poll < self.poll + self.errors


class StreamFaultPlan:
    """A seeded, deterministic schedule of streaming-tier faults.

    Consumed by :class:`repro.stream.trainer.StreamTrainer`, which runs
    every arrival batch through :meth:`mangle_arrivals` before ingestion
    and consults :meth:`publish_fails` before publishing. Mirrors the
    other plans: private RNG stream, an empty plan is a guaranteed no-op,
    and a fixed plan mangles a fixed stream identically.

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
        if not 0.0 <= malformed_rate < 1.0:
            raise ValueError("malformed_rate must be in [0, 1)")
        if not 0.0 <= out_of_order_rate < 1.0:
            raise ValueError("out_of_order_rate must be in [0, 1)")
        self.seed = int(seed)
        self.malformed_rate = float(malformed_rate)
        self.out_of_order_rate = float(out_of_order_rate)
        self.publish_failures = tuple(publish_failures)
        self.trainer_crashes = tuple(trainer_crashes)
        self.journal_tears = tuple(journal_tears)
        self.source_faults = tuple(source_faults)
        self._rng = np.random.default_rng(self.seed + 0x57E4)
        self.mangle_draws = 0

    @property
    def empty(self) -> bool:
        """True when nothing is scheduled — consumers must bypass every
        fault path, keeping streaming bit-identical to a plain build."""
        return not (
            self.malformed_rate > 0.0
            or self.out_of_order_rate > 0.0
            or self.publish_failures
            or self.trainer_crashes
            or self.journal_tears
            or self.source_faults
        )

    # -- arrival mangling ----------------------------------------------------

    def mangle_arrivals(self, arrivals: Sequence) -> list:
        """Return ``arrivals`` with scheduled corruption applied.

        Each record independently draws malformed-then-out-of-order from
        the plan's private stream (two draws per record, so the fault
        sequence is independent of which faults are enabled). Corruption
        rebuilds records via :func:`dataclasses.replace`; the originals
        are never mutated.
        """
        import dataclasses

        if self.empty or not arrivals:
            return list(arrivals)
        out = []
        n_mangled = 0
        for a in arrivals:
            self.mangle_draws += 2
            bad = self._rng.random() < self.malformed_rate
            late = self._rng.random() < self.out_of_order_rate
            if bad:
                mode = ARRIVAL_FAULT_MODES[n_mangled % len(ARRIVAL_FAULT_MODES)]
                n_mangled += 1
                if mode == "self-loop":
                    a = dataclasses.replace(a, dst=a.src)
                elif mode == "negative-id":
                    a = dataclasses.replace(a, src=-1)
                else:  # id-overflow
                    a = dataclasses.replace(a, dst=(1 << 31) + 7)
            elif late:
                a = dataclasses.replace(a, timestamp=a.timestamp - 1e6)
            out.append(a)
        return out

    # -- publish suppression -------------------------------------------------

    def publish_fails(self, generation: int) -> bool:
        """Is the publish for ``generation`` scheduled to fail?"""
        return any(f.generation == generation for f in self.publish_failures)

    # -- durability faults ---------------------------------------------------

    def crash_due(self, phase: str, generation: int) -> bool:
        """Should the trainer die at ``phase`` of ``generation``?"""
        return any(
            c.phase == phase and c.generation == generation
            for c in self.trainer_crashes
        )

    def journal_tear_due(self, append_index: int) -> bool:
        """Is the journal's ``append_index``-th frame write torn?"""
        return any(t.append == append_index for t in self.journal_tears)

    def source_io_fails(self, poll_index: int) -> bool:
        """Does the live source's ``poll_index``-th poll raise OSError?"""
        return any(f.hits(poll_index) for f in self.source_faults)

    # -- display ------------------------------------------------------------

    def describe(self) -> str:
        if self.empty:
            return "StreamFaultPlan(empty)"
        parts = [f"seed={self.seed}"]
        if self.malformed_rate:
            parts.append(f"malformed_rate={self.malformed_rate:g}")
        if self.out_of_order_rate:
            parts.append(f"out_of_order_rate={self.out_of_order_rate:g}")
        if self.publish_failures:
            gens = ",".join(str(f.generation) for f in self.publish_failures)
            parts.append(f"publish failure(s) @ gen {gens}")
        if self.trainer_crashes:
            where = ",".join(
                f"{c.phase}@g{c.generation}" for c in self.trainer_crashes
            )
            parts.append(f"trainer crash(es) [{where}]")
        if self.journal_tears:
            idx = ",".join(str(t.append) for t in self.journal_tears)
            parts.append(f"journal tear(s) @ append {idx}")
        if self.source_faults:
            polls = ",".join(
                f"{f.poll}x{f.errors}" for f in self.source_faults
            )
            parts.append(f"source fault(s) @ poll {polls}")
        return "StreamFaultPlan(" + ", ".join(parts) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()


def chaos_serve_plan(
    seed: int = 0,
    n_workers: int = 2,
    crash_batch: int = 3,
    spike_rate: float = 0.05,
    spike_seconds: float = 0.002,
) -> ServeFaultPlan:
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
        worker_crashes=(ServeWorkerCrash(victim, crash_batch),),
        spike_rate=spike_rate,
        spike_seconds=spike_seconds,
    )
