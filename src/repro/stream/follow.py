"""Supervised live tailing: poll → ingest → trigger → generation, forever.

``repro stream --follow`` turns the replay-only CLI into a deployment
mode: a :class:`FollowSupervisor` drives
:meth:`repro.stream.source.FileTailSource.poll` with transient-fault
discipline (ride out I/O errors with jittered exponential backoff,
surface a typed :class:`SourceStalled` once a stall deadline expires),
and :func:`follow_stream` feeds the arrivals to a
:class:`~repro.stream.trainer.StreamTrainer`, firing a generation
whenever a pluggable :class:`TriggerPolicy` says so:

- ``max_edges`` — N accepted (novel) edges are pending;
- ``max_seconds`` — T wall seconds since the last generation (as long as
  anything at all is pending);
- ``drift_threshold`` — the pending delta is a large enough *fraction*
  of the base graph's edges (a structural drift proxy: retraining cost
  is justified when the graph itself moved, not merely when time
  passed).

Shutdown is graceful: SIGTERM/SIGINT (or a caller-owned stop event)
drains — one final generation if anything is pending, so every
journaled edge is digested and the manifest is current — then returns.
A kill -9 instead of a drain loses nothing either: the write-ahead
journal holds every acknowledged arrival, and ``repro stream --resume``
replays the suffix (see :mod:`repro.stream.journal`).
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.faults import armed
from repro.stream.delta import IngestReport, StreamError
from repro.stream.source import EdgeArrival
from repro.stream.trainer import GenerationReport, StreamTrainer


class SourceStalled(StreamError):
    """The live source kept failing past the supervisor's stall deadline."""

    def __init__(self, seconds: float, failures: int, last_error: str) -> None:
        self.seconds = float(seconds)
        self.failures = int(failures)
        self.last_error = last_error
        super().__init__(
            f"source unreadable for {seconds:.1f}s after {failures}"
            f" consecutive failures (last: {last_error})"
        )


@dataclass(frozen=True)
class TriggerPolicy:
    """When does pending work justify a retrain generation?

    Any subset of the three triggers may be armed; the first to fire
    wins (checked in the order edges, seconds, drift). With none armed,
    every poll that accepted at least one edge triggers — the degenerate
    one-generation-per-batch policy the replay CLI uses.

    Args:
        max_edges: fire once this many novel edges are pending.
        max_seconds: fire once this much wall time passed since the last
            generation *and* something is pending.
        drift_threshold: fire once pending novel edges exceed this
            fraction of the base graph's edge count (structural drift
            proxy — cheap, available before training, and monotone in
            how much the graph changed).
    """

    max_edges: Optional[int] = None
    max_seconds: Optional[float] = None
    drift_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_edges is not None and self.max_edges < 1:
            raise ValueError("max_edges must be >= 1")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be > 0")
        if self.drift_threshold is not None and not 0.0 < self.drift_threshold:
            raise ValueError("drift_threshold must be > 0")

    @property
    def armed(self) -> bool:
        return (
            self.max_edges is not None
            or self.max_seconds is not None
            or self.drift_threshold is not None
        )

    def due(
        self,
        n_pending: int,
        seconds_since_generation: float,
        base_edges: int,
    ) -> Optional[str]:
        """The name of the trigger that fired, or ``None``."""
        if n_pending <= 0:
            return None
        if not self.armed:
            return "every-batch"
        if self.max_edges is not None and n_pending >= self.max_edges:
            return "edges"
        if (
            self.max_seconds is not None
            and seconds_since_generation >= self.max_seconds
        ):
            return "seconds"
        if (
            self.drift_threshold is not None
            and base_edges > 0
            and n_pending / base_edges >= self.drift_threshold
        ):
            return "drift"
        return None


class FollowSupervisor:
    """Retry/timeout/backoff wrapper around a live source's ``poll``.

    One :meth:`poll` call makes exactly one attempt against the source.
    A transient failure (``OSError`` — missing file during rotation,
    transient NFS error, injected fault) is absorbed: the supervisor
    sleeps a jittered exponential backoff and reports an empty batch,
    letting the caller's loop continue. Once failures have persisted
    past ``stall_deadline_s`` of wall time, the typed
    :class:`SourceStalled` escapes instead — "keep retrying forever" is
    how deployments hang silently.

    Args:
        source: anything with ``poll() -> list[EdgeArrival]``
            (:class:`~repro.stream.source.FileTailSource`).
        poll_interval_s: sleep after an *empty* successful poll (a
            non-empty poll returns immediately, so a busy stream is
            consumed at full speed).
        backoff_initial_s / backoff_max_s: exponential backoff ladder for
            consecutive failures.
        backoff_jitter: uniform jitter fraction applied to each backoff
            sleep (0.2 = ±20%), decorrelating restarts across replicas.
        stall_deadline_s: consecutive-failure wall-time budget before
            :class:`SourceStalled` (``None`` = retry forever).
        faults: optional :class:`repro.faults.StreamFaultPlan` whose
            ``source_io_fails`` schedule injects poll ``OSError``\\ s.
        seed: jitter RNG seed.
        sleep / clock: injectable for tests (defaults: ``time.sleep``,
            ``time.monotonic``).

    Attributes:
        polls: poll attempts so far (the fault-schedule index).
        failures: total failed attempts.
        consecutive_failures: current failure streak.
        backoffs: backoff sleeps taken.
        rotations_seen: source rotations observed (when the source counts
            them).
    """

    def __init__(
        self,
        source,
        poll_interval_s: float = 0.5,
        backoff_initial_s: float = 0.1,
        backoff_max_s: float = 5.0,
        backoff_jitter: float = 0.2,
        stall_deadline_s: Optional[float] = 30.0,
        faults=None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if poll_interval_s < 0:
            raise ValueError("poll_interval_s must be >= 0")
        if backoff_initial_s <= 0 or backoff_max_s < backoff_initial_s:
            raise ValueError("need 0 < backoff_initial_s <= backoff_max_s")
        if not 0.0 <= backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")
        if stall_deadline_s is not None and stall_deadline_s <= 0:
            raise ValueError("stall_deadline_s must be > 0")
        self.source = source
        self.poll_interval_s = float(poll_interval_s)
        self.backoff_initial_s = float(backoff_initial_s)
        self.backoff_max_s = float(backoff_max_s)
        self.backoff_jitter = float(backoff_jitter)
        self.stall_deadline_s = stall_deadline_s
        self._faults = armed(faults)
        self._rng = np.random.default_rng(seed + 0xF011)
        self._sleep = sleep
        self._clock = clock
        self.polls = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.backoffs = 0
        self._first_failure_at: Optional[float] = None
        self._last_error = ""

    def poll(self) -> list[EdgeArrival]:
        """One supervised poll attempt (see class docstring)."""
        index = self.polls
        self.polls += 1
        try:
            if self._faults is not None and self._faults.source_io_fails(index):
                raise OSError(f"injected source I/O fault (poll {index})")
            arrivals = self.source.poll()
        except OSError as exc:
            now = self._clock()
            self.failures += 1
            self.consecutive_failures += 1
            self._last_error = str(exc)
            if self._first_failure_at is None:
                self._first_failure_at = now
            stalled_for = now - self._first_failure_at
            if (
                self.stall_deadline_s is not None
                and stalled_for >= self.stall_deadline_s
            ):
                raise SourceStalled(
                    stalled_for, self.consecutive_failures, self._last_error
                ) from exc
            self._sleep(self._backoff_seconds())
            return []
        self.consecutive_failures = 0
        self._first_failure_at = None
        return arrivals

    def _backoff_seconds(self) -> float:
        self.backoffs += 1
        base = min(
            self.backoff_max_s,
            self.backoff_initial_s * (2.0 ** (self.consecutive_failures - 1)),
        )
        if self.backoff_jitter:
            base *= 1.0 + self.backoff_jitter * float(self._rng.uniform(-1, 1))
        return base


@dataclass
class FollowReport:
    """What one :func:`follow_stream` run did."""

    generations: list[GenerationReport] = field(default_factory=list)
    polls: int = 0
    arrivals: int = 0
    ingest: IngestReport = field(default_factory=IngestReport)
    triggers: list[str] = field(default_factory=list)
    drained: bool = False
    stop_reason: str = ""


def follow_stream(
    trainer: StreamTrainer,
    supervisor: FollowSupervisor,
    policy: Optional[TriggerPolicy] = None,
    max_generations: Optional[int] = None,
    max_wall_s: Optional[float] = None,
    stop_event: Optional[threading.Event] = None,
    install_signal_handlers: bool = False,
    n_iterations: Optional[int] = None,
    on_generation: Optional[Callable[[GenerationReport, str], None]] = None,
    idle_exit_polls: Optional[int] = None,
) -> FollowReport:
    """Tail a live source through ``trainer`` until told to stop.

    The loop: supervised poll → :meth:`StreamTrainer.ingest` (journal
    first, then overlay) → fire :meth:`StreamTrainer.run_generation`
    when ``policy`` says the pending delta justifies it. On SIGTERM or
    SIGINT (when ``install_signal_handlers``), or when ``stop_event``
    is set, the loop *drains*: one final generation if anything is
    pending — so the journal compacts and the manifest is current —
    then returns. Bounds (``max_generations``, ``max_wall_s``,
    ``idle_exit_polls``) exist for drills and tests; a deployment runs
    unbounded.

    Args:
        policy: trigger policy (default: fire on every non-empty poll).
        max_generations: stop after this many generations.
        max_wall_s: stop after this much wall time.
        stop_event: caller-owned stop flag (checked every iteration).
        install_signal_handlers: route SIGTERM/SIGINT into a drain
            (main thread only; handlers are restored on exit).
        n_iterations: per-generation training budget override.
        on_generation: called as ``callback(report, trigger_reason)``
            after each generation (CLI progress lines).
        idle_exit_polls: stop after this many consecutive empty polls
            (lets drills follow a finite file to completion).

    Returns:
        A :class:`FollowReport`; ``drained`` is True when the final
        pending delta was flushed through a generation.
    """
    policy = policy or TriggerPolicy()
    stop = stop_event or threading.Event()
    report = FollowReport()
    signaled: list[str] = []

    def _handler(signum, frame):  # pragma: no cover - exercised via tests
        signaled.append(signal.Signals(signum).name)
        stop.set()

    previous_handlers = {}
    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[sig] = signal.signal(sig, _handler)

    clock = supervisor._clock
    started = clock()
    last_generation_at = started
    idle_polls = 0
    since_last = IngestReport()

    def _run_generation(trigger: str) -> None:
        nonlocal last_generation_at, since_last
        gen_report = trainer.run_generation(None, n_iterations=n_iterations)
        # Ingestion happened at poll time, so the trainer's own per-call
        # ingest is empty here; credit this generation with everything
        # polled in since the previous one.
        gen_report = replace(gen_report, ingest=gen_report.ingest + since_last)
        since_last = IngestReport()
        report.generations.append(gen_report)
        report.triggers.append(trigger)
        last_generation_at = clock()
        if on_generation is not None:
            on_generation(gen_report, trigger)

    try:
        while True:
            if stop.is_set():
                report.stop_reason = (
                    f"signal:{signaled[0]}" if signaled else "stop-event"
                )
                break
            if max_wall_s is not None and clock() - started >= max_wall_s:
                report.stop_reason = "max-wall"
                break
            if (
                max_generations is not None
                and len(report.generations) >= max_generations
            ):
                report.stop_reason = "max-generations"
                break

            arrivals = supervisor.poll()
            report.polls += 1
            if arrivals:
                idle_polls = 0
                report.arrivals += len(arrivals)
                batch_report = trainer.ingest(arrivals)
                report.ingest = report.ingest + batch_report
                since_last = since_last + batch_report
            else:
                idle_polls += 1
                if (
                    idle_exit_polls is not None
                    and idle_polls >= idle_exit_polls
                ):
                    report.stop_reason = "idle"
                    break

            trigger = policy.due(
                trainer.overlay.n_pending,
                clock() - last_generation_at,
                trainer.overlay.base.n_edges,
            )
            if trigger is not None:
                _run_generation(trigger)
            elif not arrivals and supervisor.consecutive_failures == 0:
                supervisor._sleep(supervisor.poll_interval_s)
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)

    # Graceful drain: flush the pending delta through one last
    # generation so every journaled edge is digested and the manifest
    # is the complete record of the run.
    if trainer.overlay.n_pending > 0:
        _run_generation("drain")
        report.drained = True
    return report
