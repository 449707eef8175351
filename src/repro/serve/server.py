"""Micro-batching model server: queueing, coalescing, caching, hot-swap.

The online half of the train->serve stack. Clients submit queries and get
:class:`concurrent.futures.Future` handles back immediately; worker
threads coalesce queued requests into batches and answer them through a
per-thread :class:`~repro.serve.engine.QueryEngine`. NumPy releases the
GIL inside the batched kernels, so the worker pool overlaps scoring with
request admission — the same chunked-thread-pool trick
:mod:`repro.parallel` uses for training.

The flush rule: a free worker takes every live request queued, up to
``max_batch``, and answers them as one batch; it waits only while
the queue is empty. Requests that arrive while a batch executes form the
next one, so batches grow with load and nothing waits on a timer for a
batch that cannot grow (in a closed loop the clients are blocked on
futures inside the batch).

Operational semantics:

- **Backpressure**: the request queue is bounded; a submit against a full
  queue raises a typed :class:`ServerOverloaded` *immediately* (callers
  shed load or retry; the server never builds an unbounded backlog).
- **Load shedding** (opt-in via :class:`ShedPolicy`): *before* the queue
  fills, admission control starts refusing work — typed
  :class:`RequestShed` — when the queue passes a high-water fraction or
  the observed p99 breaches the SLO. Membership queries can instead be
  answered **degraded** straight from the artifact's precomputed top-K
  table (bit-identical to the engine fast path for ``k`` within it),
  keeping the cheapest endpoint alive while the kernel path is
  saturated.
- **Deadlines**: requests may carry a deadline (or inherit
  ``default_deadline_ms``); a request still queued past its deadline is
  failed with a typed :class:`DeadlineExceeded` instead of occupying a
  batch slot — late answers are worthless, don't compute them.
- **Watchdog**: a supervisor thread detects dead or stalled worker
  threads (mirroring :mod:`repro.dist.mp`'s heartbeat fencing), fails
  their in-flight futures with :class:`~repro.faults.WorkerCrashed`,
  fences the zombie, and respawns a replacement that inherits the slot's
  batch counter — no request ever hangs on a dead thread.
- **Result cache**: an LRU keyed by (artifact generation, endpoint,
  canonical payload) with hit/miss/eviction accounting. Hits complete
  without touching the queue. An answer is cached under the generation
  whose artifact computed it, and only while that generation serves;
  stale-generation entries are purged eagerly on every hot-swap instead
  of squatting on capacity.
- **Zero-downtime hot-swap**: :meth:`publish` atomically installs a new
  artifact mid-traffic. In-flight batches finish on the engine they
  started with; later batches (and cache keys, via the generation
  counter) see only the new model. No request is dropped or errored by a
  swap. :meth:`publish_path` adds the durability story: the file is
  loaded with full SHA-256 verification, damage is quarantined
  (:func:`~repro.serve.artifact.quarantine_artifact`), and a swap that
  fails mid-flight rolls back to the last-known-good artifact tracked in
  an :class:`~repro.serve.artifact.ArtifactRegistry` — a bad publish can
  never poison the server.
- **Probes**: :meth:`health` (liveness: workers up, artifact identity,
  rollback history) and :meth:`ready` (accepting new work right now)
  for load balancers and the chaos drill.
- **Metrics**: every answer is recorded into a
  :class:`~repro.serve.metrics.ServerMetrics` (per-endpoint QPS +
  latency histograms, queue depth, cache, batching, and the resilience
  taxonomy) exported by :meth:`stats`.

Fault injection: a seeded :class:`~repro.faults.ServeFaultPlan` drives
worker-thread crashes/stalls, swap-time failures, and engine latency
spikes through the same code paths real failures take
(``tests/test_serve_faults.py``, ``repro chaos-serve``). ``faults=None``
or an empty plan bypasses every injection branch.

``n_workers=0`` runs no threads (and no watchdog); callers drain the
queue explicitly with :meth:`process_once` — deterministic single-step
mode for tests.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.faults import ServeFaultPlan, SwapFailure, WorkerCrashed, armed
from repro.serve.artifact import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactRegistry,
    ModelArtifact,
    PathLike,
    load_artifact,
    quarantine_artifact,
)
from repro.serve.engine import QueryEngine
from repro.serve.metrics import ServerMetrics
from repro.store import StoreError

ENDPOINTS = (
    "link_probability",
    "membership",
    "community_members",
    "recommend_edges",
    "membership_drift",
)


class ServerOverloaded(RuntimeError):
    """The bounded request queue is full; the caller must back off."""

    def __init__(self, queue_limit: int) -> None:
        self.queue_limit = queue_limit
        super().__init__(
            f"request queue full ({queue_limit} pending); retry with backoff"
        )


class RequestShed(RuntimeError):
    """Admission control refused the request before it entered the queue
    (SLO protection, not a hard queue overflow). Typed so clients can
    distinguish "back off, the server is protecting its tail latency"
    from :class:`ServerOverloaded`."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(f"request shed: {reason}")


class DeadlineExceeded(RuntimeError):
    """The request's deadline expired while it was still queued."""

    def __init__(self, endpoint: str, waited_ms: float, deadline_ms: float) -> None:
        self.endpoint = endpoint
        self.waited_ms = waited_ms
        self.deadline_ms = deadline_ms
        super().__init__(
            f"{endpoint}: queued {waited_ms:.3g}ms past its "
            f"{deadline_ms:.3g}ms deadline"
        )


class SwapFailed(RuntimeError):
    """A ``publish`` failed mid-swap; the server rolled back to the
    last-known-good artifact and kept serving."""

    def __init__(self, failed_version: str, serving_version: str) -> None:
        self.failed_version = failed_version
        self.serving_version = serving_version
        super().__init__(
            f"publish of {failed_version!r} failed mid-swap; "
            f"rolled back to last-known-good {serving_version!r}"
        )


@dataclass(frozen=True)
class ShedPolicy:
    """SLO-aware admission control knobs (opt-in; ``None`` disables).

    Shedding triggers when the queue passes ``queue_high_fraction`` of
    its limit *or* the windowed p99 exceeds ``slo_p99_ms`` (a stale/empty
    latency window never triggers — see
    :meth:`~repro.serve.metrics.ServerMetrics.observed_p99_ms`).
    """

    slo_p99_ms: float = 50.0
    queue_high_fraction: float = 0.8
    degraded_membership: bool = True
    p99_window: int = 256

    def __post_init__(self) -> None:
        if self.slo_p99_ms <= 0:
            raise ValueError("slo_p99_ms must be > 0")
        if not 0.0 < self.queue_high_fraction <= 1.0:
            raise ValueError("queue_high_fraction must be in (0, 1]")
        if self.p99_window < 1:
            raise ValueError("p99_window must be >= 1")


@dataclass
class _Request:
    endpoint: str
    payload: Any
    key: Optional[tuple]  # cache key without its generation; None = uncached
    queries: int
    deadline: Optional[float] = None  # absolute perf_counter seconds
    future: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=time.perf_counter)


class _WorkerSlot:
    """One worker position: the live thread plus its fencing state.

    ``batches`` counts batches *started* in this slot across respawns
    (the replacement thread inherits it, so a fault scheduled at batch
    ``b`` fires exactly once). All fields are guarded by the server
    lock.
    """

    def __init__(self, index: int, batches: int = 0) -> None:
        self.index = index
        self.batches = batches
        self.thread: Optional[threading.Thread] = None
        self.inflight: Optional[list["_Request"]] = None
        self.busy_since = 0.0
        self.fenced = False


class ModelServer:
    """Serves one :class:`ModelArtifact` behind a micro-batching queue.

    Args:
        artifact: the snapshot to serve first (hot-swappable later).
        n_workers: worker threads (0 = manual :meth:`process_once` mode).
        max_batch: most requests one batch takes from the queue.
        queue_limit: bounded-queue capacity; beyond it submits raise
            :class:`ServerOverloaded`.
        cache_size: LRU result-cache capacity (0 disables caching).
        default_deadline_ms: deadline applied to requests that don't
            carry their own (``None`` = no default deadline).
        shed_policy: opt-in SLO admission control (``None`` = only the
            hard :class:`ServerOverloaded` backpressure applies).
        faults: optional seeded :class:`~repro.faults.ServeFaultPlan`;
            ``None``/empty bypasses every injection branch.
        stall_timeout_s: watchdog fences a worker holding one batch
            longer than this.
        watchdog_interval_s: watchdog poll period.
        drift_window: generations of aligned membership history retained
            for the ``membership_drift`` endpoint (0 disables it). The
            history (:class:`repro.stream.tracking.MembershipHistory`)
            survives hot-swaps: each successful publish is aligned and
            recorded, so drift answers span artifact generations.
        history_path: optional checkpoint (a store container) for the
            drift history. When it exists at startup the history is *reloaded* from it
            — drift answers survive a server restart, staying in the
            same canonical label space — and every subsequent record is
            checkpointed back atomically. The startup artifact is only
            recorded if the reloaded history doesn't already end on it
            (matched by content version).
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        n_workers: int = 2,
        max_batch: int = 64,
        queue_limit: int = 1024,
        cache_size: int = 4096,
        default_deadline_ms: Optional[float] = None,
        shed_policy: Optional[ShedPolicy] = None,
        faults: Optional[ServeFaultPlan] = None,
        stall_timeout_s: float = 5.0,
        watchdog_interval_s: float = 0.25,
        drift_window: int = 0,
        history_path: Optional[PathLike] = None,
    ) -> None:
        if n_workers < 0 or max_batch < 1 or queue_limit < 1 or cache_size < 0:
            raise ValueError("invalid server sizing parameter")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0")
        if stall_timeout_s <= 0 or watchdog_interval_s <= 0:
            raise ValueError("watchdog timings must be > 0")
        self.max_batch = int(max_batch)
        self.queue_limit = int(queue_limit)
        self.cache_size = int(cache_size)
        self.default_deadline = (
            None if default_deadline_ms is None else float(default_deadline_ms) / 1e3
        )
        self.shed_policy = shed_policy
        self.stall_timeout = float(stall_timeout_s)
        self.watchdog_interval = float(watchdog_interval_s)
        self._faults = armed(faults)

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()
        self._cache: OrderedDict[tuple, Any] = OrderedDict()
        self._artifact = artifact
        self._generation = 0
        self._publishes = 0  # accepted publish() calls (swap-fault index)
        self._registry = ArtifactRegistry()
        self._registry.record(0, artifact)
        self._history = None
        self._history_path = Path(history_path) if history_path else None
        self._history_save_lock = threading.Lock()
        if drift_window:
            # Lazy import: serve must stay importable without the
            # streaming tier (and vice versa — stream imports serve).
            from repro.stream.tracking import MembershipHistory

            if self._history_path is not None and self._history_path.exists():
                self._history = MembershipHistory.load(self._history_path)
                if self._history.last_version != artifact.version:
                    self._history.record_next(artifact)
                    self._save_history()
            else:
                self._history = MembershipHistory(window=int(drift_window))
                self._history.record(artifact, 0)
                self._save_history()
        self._stopped = False
        self.n_workers = int(n_workers)
        self.metrics = ServerMetrics(
            queue_depth=lambda: len(self._queue),
            p99_window=shed_policy.p99_window if shed_policy else 256,
        )

        self._slots = [_WorkerSlot(i) for i in range(n_workers)]
        for slot in self._slots:
            slot.thread = self._spawn_worker(slot)
        self._wd_stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if n_workers > 0:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, daemon=True, name="serve-watchdog"
            )
            self._watchdog.start()

    def _spawn_worker(self, slot: _WorkerSlot) -> threading.Thread:
        t = threading.Thread(
            target=self._worker_loop,
            args=(slot,),
            daemon=True,
            name=f"serve-{slot.index}",
        )
        t.start()
        return t

    # -- lifecycle ------------------------------------------------------------

    def close(self, drain_timeout_s: float = 10.0) -> None:
        """Stop accepting work, drain the queue, join the workers.

        Deterministic teardown: every queued or in-flight future ends
        *resolved* — answered by a draining worker, failed with
        :class:`~repro.faults.WorkerCrashed` if its worker is stuck past
        ``drain_timeout_s``, or cancelled (with ``n_workers=0``, where
        nothing will ever drain leftovers). No future is left hanging
        for a caller to block on forever.
        """
        with self._not_empty:
            if self._stopped:
                return
            self._stopped = True
            self._not_empty.notify_all()
        self._wd_stop.set()
        if self._watchdog is not None:
            self._watchdog.join()
        deadline = time.monotonic() + drain_timeout_s
        stuck = []
        for slot in self._slots:
            assert slot.thread is not None
            slot.thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.thread.is_alive():
                stuck.append(slot)
        to_fail: list[tuple[int, list[_Request]]] = []
        with self._not_empty:
            for slot in stuck:
                slot.fenced = True
                if slot.inflight is not None:
                    to_fail.append((slot.index, slot.inflight))
                    slot.inflight = None
            leftovers = list(self._queue)
            self._queue.clear()
        for index, batch in to_fail:
            exc = WorkerCrashed([index], stalled=True)
            for req in batch:
                self._fail(req, exc)
        for req in leftovers:
            req.future.cancel()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- artifact hot-swap ----------------------------------------------------

    def _save_history(self) -> None:
        """Checkpoint the drift history beside the artifact (atomic; a
        failed save degrades durability, never serving). Never called
        with the queue lock held — the write is O(window * N) — and one
        save at a time: a container path has one writer."""
        if self._history is None or self._history_path is None:
            return
        with self._history_save_lock:
            try:
                self._history.save(self._history_path)
            except (OSError, StoreError):  # disk full, unwritable path
                pass

    @property
    def artifact(self) -> ModelArtifact:
        return self._artifact

    @property
    def generation(self) -> int:
        return self._generation

    def publish(self, artifact: ModelArtifact) -> int:
        """Install a new artifact with zero downtime; returns the generation.

        In-flight batches complete on the previous snapshot; every batch
        started after this call (and every cache key) uses the new one.
        A swap that fails mid-flight (fault-injected here; an allocator
        or mmap failure in real life) rolls back to the last-known-good
        artifact — with a *second* generation bump, so nothing keyed to
        the failed snapshot survives — and raises :class:`SwapFailed`.
        """
        artifact.validate()
        return self._swap(artifact)

    def _swap(self, artifact: ModelArtifact) -> int:
        """:meth:`publish` for an artifact whose invariants the caller has
        just checked (artifacts are immutable: once is enough)."""
        rollback_to: Optional[ModelArtifact] = None
        with self._not_empty:
            swap_index = self._publishes
            self._publishes += 1
            previous = self._artifact
            self._artifact = artifact
            self._generation += 1
            gen = self._generation
            if self._faults is not None and self._faults.scheduled(SwapFailure, publish=swap_index):
                good = self._registry.previous(artifact.version) or previous
                self._artifact = good
                self._generation += 1
                rollback_to = good
            else:
                self._registry.record(gen, artifact)
                if self._history is not None:
                    # Recorded under the lock so history generations stay
                    # strictly increasing across concurrent publishers.
                    # record_next (not the server's gen counter) keeps a
                    # history reloaded from disk monotone: a restarted
                    # server's counter restarts at 0, the history's
                    # doesn't. Saved below, once submits and workers can
                    # have the lock back.
                    self._history.record_next(artifact)
            purged = self._purge_stale_cache_locked()
        if rollback_to is None:
            self._save_history()
        if purged:
            self.metrics.record_stale_eviction(purged)
        if rollback_to is not None:
            self.metrics.record_rollback()
            self.metrics.record_publish_failure()
            raise SwapFailed(artifact.version, rollback_to.version)
        self.metrics.record_hot_swap()
        return gen

    def publish_path(self, path: PathLike) -> int:
        """Load, verify, and publish an artifact file.

        A file that fails integrity checks is quarantined on disk
        (``<name>.quarantined``) so no later load can pick it up, and
        the server keeps serving its current artifact. Raises
        :class:`~repro.serve.artifact.ArtifactCorrupt` (quarantined
        path in ``exc.quarantined``), plain
        :class:`~repro.serve.artifact.ArtifactError`, or
        :class:`SwapFailed`.
        """
        try:
            # "full" forces every per-array digest the default load
            # defers: a server must find corruption at publish time,
            # never mid-query. The load ran validate() on the frozen
            # object, so the swap does not repeat it.
            artifact = load_artifact(path, verify="full")
        except ArtifactCorrupt as exc:
            exc.quarantined = quarantine_artifact(path)
            self.metrics.record_quarantine()
            self.metrics.record_publish_failure()
            raise
        except ArtifactError:
            self.metrics.record_publish_failure()
            raise
        return self._swap(artifact)

    def rollback(self) -> int:
        """Manually re-install the previous known-good artifact.

        Returns the new generation; raises ``RuntimeError`` when the
        registry holds no artifact with a different content version.
        """
        with self._not_empty:
            good = self._registry.previous(self._artifact.version)
            if good is None:
                raise RuntimeError("no previous known-good artifact to roll back to")
            self._artifact = good
            self._generation += 1
            gen = self._generation
            self._registry.record(gen, good)
            purged = self._purge_stale_cache_locked()
        if purged:
            self.metrics.record_stale_eviction(purged)
        self.metrics.record_rollback()
        return gen

    def _purge_stale_cache_locked(self) -> int:
        """Drop cache entries keyed to any generation but the current one."""
        if not self._cache:
            return 0
        stale = [k for k in self._cache if k[0] != self._generation]
        for k in stale:
            del self._cache[k]
        return len(stale)

    # -- probes ---------------------------------------------------------------

    def health(self) -> dict:
        """Liveness probe: workers, queue, artifact identity, rollbacks."""
        with self._not_empty:
            alive = sum(
                1
                for s in self._slots
                if s.thread is not None and s.thread.is_alive() and not s.fenced
            )
            stopped = self._stopped
            depth = len(self._queue)
            gen = self._generation
            version = self._artifact.version
            known_good = self._registry.versions()
        healthy = not stopped and (alive > 0 or self.n_workers == 0)
        return {
            "healthy": healthy,
            "ready": self.ready(),
            "workers_alive": alive,
            "workers_expected": self.n_workers,
            "queue_depth": depth,
            "queue_limit": self.queue_limit,
            "observed_p99_ms": self.metrics.observed_p99_ms(),
            "generation": gen,
            "artifact_version": version,
            "known_good_versions": known_good,
        }

    def ready(self) -> bool:
        """Readiness probe: would a plain submit be admitted right now?"""
        with self._not_empty:
            if self._stopped or len(self._queue) >= self.queue_limit:
                return False
            return self._shed_reason_locked() is None

    # -- submission -----------------------------------------------------------

    def link_probability(
        self, pairs: np.ndarray, deadline_ms: Optional[float] = None
    ) -> Future:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (B, 2)")
        return self._submit(
            "link_probability",
            pairs,
            ("lp", pairs.tobytes()),
            queries=len(pairs),
            deadline_ms=deadline_ms,
        )

    def membership(
        self, node: int, k: Optional[int] = None, deadline_ms: Optional[float] = None
    ) -> Future:
        return self._submit(
            "membership", (int(node), k), ("mb", int(node), k), deadline_ms=deadline_ms
        )

    def community_members(
        self, community: int, top_n: int = 10, deadline_ms: Optional[float] = None
    ) -> Future:
        return self._submit(
            "community_members",
            (int(community), int(top_n)),
            ("cm", int(community), int(top_n)),
            deadline_ms=deadline_ms,
        )

    def recommend_edges(
        self, node: int, top_n: int = 10, deadline_ms: Optional[float] = None
    ) -> Future:
        return self._submit(
            "recommend_edges",
            (int(node), int(top_n)),
            ("re", int(node), int(top_n)),
            deadline_ms=deadline_ms,
        )

    def membership_drift(
        self,
        node: int,
        last: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> Future:
        if self._history is None:
            raise ValueError(
                "membership_drift requires drift_window > 0 at server construction"
            )
        return self._submit(
            "membership_drift",
            (int(node), last),
            ("md", int(node), last),
            deadline_ms=deadline_ms,
        )

    def query(self, endpoint: str, *args, timeout: Optional[float] = None):
        """Blocking convenience: submit to ``endpoint`` and wait."""
        if endpoint not in ENDPOINTS:
            raise ValueError(f"unknown endpoint {endpoint!r}; known: {ENDPOINTS}")
        return getattr(self, endpoint)(*args).result(timeout=timeout)

    def _shed_reason_locked(self) -> Optional[str]:
        """Why admission control would refuse right now (None = admit)."""
        policy = self.shed_policy
        if policy is None:
            return None
        high = policy.queue_high_fraction * self.queue_limit
        if len(self._queue) >= high:
            return (
                f"queue depth {len(self._queue)} past high-water "
                f"{policy.queue_high_fraction:g} of {self.queue_limit}"
            )
        p99 = self.metrics.observed_p99_ms()
        if p99 > policy.slo_p99_ms:
            return f"observed p99 {p99:.3g}ms past SLO {policy.slo_p99_ms:g}ms"
        return None

    def _degraded_membership(self, payload: tuple, start: float) -> Optional[Future]:
        """Answer a membership query from the precomputed top-K table.

        Bit-identical to the engine's fast path for ``k`` within the
        stored table; returns ``None`` when it cannot honor the request
        (larger ``k``), in which case the caller sheds.
        """
        node, k = payload
        art = self._artifact
        stored = art.top_communities.shape[1]
        k = stored if k is None else int(k)
        fut: Future = Future()
        if k < 1:
            fut.set_exception(ValueError("k must be >= 1"))
            return fut
        if k > stored:
            return None
        try:
            row = art.row_of(node)
        except KeyError as exc:
            self.metrics.record_error("membership")
            fut.set_exception(exc)
            return fut
        result = [
            (int(c), float(w))
            for c, w in zip(art.top_communities[row, :k], art.top_weights[row, :k])
        ]
        self.metrics.record_degraded_answer()
        self.metrics.record_request("membership", time.perf_counter() - start)
        fut.set_result(result)
        return fut

    def _submit(
        self,
        endpoint: str,
        payload: Any,
        key_suffix: tuple,
        queries: int = 1,
        deadline_ms: Optional[float] = None,
    ) -> Future:
        start = time.perf_counter()
        deadline_s = (
            float(deadline_ms) / 1e3 if deadline_ms is not None else self.default_deadline
        )
        shed_reason = None
        with self._not_empty:
            if self._stopped:
                raise RuntimeError("server is closed")
            if self.cache_size > 0:
                key = (self._generation, *key_suffix)
                if key in self._cache:
                    self._cache.move_to_end(key)
                    value = self._cache[key]
                    self.metrics.record_cache(True)
                    self.metrics.record_request(
                        endpoint, time.perf_counter() - start, queries
                    )
                    fut: Future = Future()
                    fut.set_result(value)
                    return fut
                self.metrics.record_cache(False)
            shed_reason = self._shed_reason_locked()
            if shed_reason is None:
                if len(self._queue) >= self.queue_limit:
                    self.metrics.record_rejected()
                    raise ServerOverloaded(self.queue_limit)
                req = _Request(endpoint, payload, key_suffix if self.cache_size else None, queries)
                if deadline_s is not None:
                    req.deadline = req.enqueued + deadline_s
                self._queue.append(req)
                self._not_empty.notify()
                return req.future
            # shedding: try the degraded path, else refuse with a typed error
            if (
                endpoint == "membership"
                and self.shed_policy is not None
                and self.shed_policy.degraded_membership
            ):
                degraded = self._degraded_membership(payload, start)
                if degraded is not None:
                    return degraded
        self.metrics.record_shed()
        raise RequestShed(shed_reason)

    # -- batching -------------------------------------------------------------

    def process_once(self) -> int:
        """Coalesce and answer one batch synchronously (``n_workers=0`` mode).

        Returns the number of requests answered (deadline expiries do
        not count); 0 when the queue is empty (an empty flush is a
        no-op, never an error).
        """
        taken = self._take_batch(wait=False)
        if taken is None:
            return 0
        batch, artifact, gen = taken
        if not batch:
            return 0
        self._execute(batch, self._engine(artifact), gen)
        return len(batch)

    def _engine(self, artifact: ModelArtifact) -> QueryEngine:
        engine = QueryEngine(artifact, faults=self._faults)
        engine.on_recommend = self.metrics.record_recommend
        return engine

    def _worker_loop(self, slot: _WorkerSlot) -> None:
        engine: Optional[QueryEngine] = None
        engine_gen = -1
        try:
            while True:
                taken = self._take_batch(wait=True, slot=slot)
                if taken is None:
                    return
                batch, artifact, gen = taken
                if not batch:
                    continue
                if self._faults is not None:
                    stall = self._faults.stall_seconds(slot.index, slot.batches)
                    if stall > 0.0:
                        time.sleep(stall)
                    if self._faults.crash_due(slot.index, slot.batches):
                        raise WorkerCrashed([slot.index])
                if engine is None or engine_gen != gen:
                    engine = self._engine(artifact)
                    engine_gen = gen
                self._execute(batch, engine, gen)
                with self._not_empty:
                    if slot.fenced:
                        return  # a watchdog replacement owns this index now
                    slot.inflight = None
                    slot.batches += 1
        except BaseException as exc:  # noqa: BLE001 - worker safety net
            self._handle_worker_death(slot, exc)

    def _handle_worker_death(self, slot: _WorkerSlot, exc: BaseException) -> None:
        """Dying worker's last act: fail its in-flight batch with a typed
        error so no client blocks on a future nobody will complete. The
        watchdog handles the respawn once the thread is observably dead."""
        with self._not_empty:
            if slot.fenced:
                return  # watchdog already failed the batch and moved on
            batch = slot.inflight
            slot.inflight = None
            if batch is not None:
                slot.batches += 1  # count the doomed batch: faults never refire
        if batch:
            if isinstance(exc, WorkerCrashed):
                wrapped = exc
            else:
                wrapped = WorkerCrashed([slot.index])
                wrapped.__cause__ = exc
            for req in batch:
                self._fail(req, wrapped)

    def _watchdog_loop(self) -> None:
        while not self._wd_stop.wait(self.watchdog_interval):
            self._check_workers()

    def _check_workers(self) -> None:
        """Fence dead/stalled workers, fail their batches, respawn."""
        to_fail: list[tuple[int, list[_Request], bool]] = []
        respawned = 0
        with self._not_empty:
            if self._stopped:
                return
            now = time.perf_counter()
            for i, slot in enumerate(self._slots):
                assert slot.thread is not None
                dead = not slot.thread.is_alive()
                stalled = (
                    not dead
                    and slot.inflight is not None
                    and now - slot.busy_since > self.stall_timeout
                )
                if not (dead or stalled):
                    continue
                batch = slot.inflight
                slot.inflight = None
                if batch is not None:
                    slot.batches += 1
                slot.fenced = True
                replacement = _WorkerSlot(i, batches=slot.batches)
                self._slots[i] = replacement
                replacement.thread = self._spawn_worker(replacement)
                respawned += 1
                if batch:
                    to_fail.append((i, batch, stalled))
        for index, batch, stalled in to_fail:
            exc = WorkerCrashed([index], stalled=stalled)
            for req in batch:
                self._fail(req, exc)
        for _ in range(respawned):
            self.metrics.record_worker_respawn()

    def _take_batch(self, wait: bool, slot: Optional[_WorkerSlot] = None):
        """Pop every live request queued, up to ``max_batch``; expired-
        deadline requests are failed, never batched.

        Waits (untimed) only while the queue is empty, never for a batch
        to grow. Returns ``(batch, artifact, generation)``; ``None`` means
        shutdown (or this worker was fenced) — the caller must exit.
        With ``wait=False`` (manual mode) an empty queue yields an empty
        batch immediately.
        """
        expired: list[_Request] = []
        batch: list[_Request] = []
        try:
            with self._not_empty:
                while True:
                    if slot is not None and slot.fenced:
                        return None
                    now = time.perf_counter()
                    while self._queue and len(batch) < self.max_batch:
                        req = self._queue.popleft()
                        if req.deadline is not None and now > req.deadline:
                            expired.append(req)
                        else:
                            batch.append(req)
                    if batch:
                        break
                    if self._stopped:
                        return None
                    if not wait:
                        return [], self._artifact, self._generation
                    if expired:
                        # Fail already-expired requests *before* blocking —
                        # this thread may sleep indefinitely and the expiry
                        # must not wait for the next batch to come along.
                        for req in expired:
                            self._expire(req)
                        expired.clear()
                    self._not_empty.wait()
                if slot is not None:
                    slot.inflight = batch
                    slot.busy_since = time.perf_counter()
                artifact, gen = self._artifact, self._generation
        finally:
            for req in expired:
                self._expire(req)
        self.metrics.record_batch(len(batch))
        return batch, artifact, gen

    # -- execution ------------------------------------------------------------

    def _execute(self, batch: list[_Request], engine: QueryEngine, gen: int) -> None:
        # Coalesce all link-probability pairs into one kernel call; the
        # point of micro-batching (per-request Python overhead amortizes
        # over the batch, the gather+kernel is one shot).
        links = [r for r in batch if r.endpoint == "link_probability"]
        if links:
            try:
                stacked = np.concatenate([r.payload for r in links])
                probs = engine.link_probability(stacked)
                offset = 0
                for r in links:
                    n = len(r.payload)
                    self._finish(r, probs[offset:offset + n], gen)
                    offset += n
            except Exception as exc:  # noqa: BLE001 - fault isolation
                for r in links:
                    self._fail(r, exc)
        # Recommendations coalesce the same way: one pass over pi filters
        # the whole batch and ONE link_probability kernel call scores the
        # survivors; the engine returns per-slot exceptions so bad
        # requests fail alone.
        recs = [r for r in batch if r.endpoint == "recommend_edges"]
        if recs:
            try:
                outcomes = engine.recommend_edges_batch(
                    [(r.payload[0], r.payload[1], None) for r in recs]
                )
                for r, outcome in zip(recs, outcomes):
                    if isinstance(outcome, Exception):
                        self._fail(r, outcome)
                    else:
                        self._finish(r, outcome, gen)
            except Exception as exc:  # noqa: BLE001 - fault isolation
                for r in recs:
                    self._fail(r, exc)
        for r in batch:
            if r.endpoint in ("link_probability", "recommend_edges"):
                continue
            try:
                if r.endpoint == "membership":
                    node, k = r.payload
                    result = engine.membership(node, k)
                elif r.endpoint == "community_members":
                    result = engine.community_members(*r.payload)
                elif r.endpoint == "membership_drift":
                    node, last = r.payload
                    result = engine.membership_drift(node, self._history, last)
                else:  # pragma: no cover - submit() filters endpoints
                    raise RuntimeError(f"unknown endpoint {r.endpoint!r}")
                self._finish(r, result, gen)
            except Exception as exc:  # noqa: BLE001 - fault isolation
                self._fail(r, exc)

    def _finish(self, req: _Request, result: Any, gen: int) -> None:
        """Answer ``req`` with what generation ``gen``'s artifact computed."""
        # A fenced zombie may race the watchdog, which already failed
        # this future; completion is first-writer-wins, silently.
        if req.future.done():
            return
        self.metrics.record_request(
            req.endpoint, time.perf_counter() - req.enqueued, req.queries
        )
        evicted = 0
        if req.key is not None:
            with self._lock:
                # Keyed by the generation that computed the answer, and
                # only while it serves: a swap since then has purged its
                # generation, and no lookup could hit the entry.
                if gen == self._generation:
                    key = (gen, *req.key)
                    self._cache[key] = result
                    self._cache.move_to_end(key)
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
                        evicted += 1
        if evicted:
            self.metrics.record_eviction(evicted)
        try:
            req.future.set_result(result)
        except InvalidStateError:  # pragma: no cover - lost a tight race
            pass

    def _fail(self, req: _Request, exc: BaseException) -> None:
        if req.future.done():
            return
        self.metrics.record_error(req.endpoint)
        try:
            req.future.set_exception(exc)
        except InvalidStateError:  # pragma: no cover - lost a tight race
            pass

    def _expire(self, req: _Request) -> None:
        if req.future.done():
            return
        waited_ms = (time.perf_counter() - req.enqueued) * 1e3
        deadline_ms = (
            (req.deadline - req.enqueued) * 1e3 if req.deadline is not None else 0.0
        )
        self.metrics.record_deadline_exceeded()
        try:
            req.future.set_exception(
                DeadlineExceeded(req.endpoint, waited_ms, deadline_ms)
            )
        except InvalidStateError:  # pragma: no cover - lost a tight race
            pass

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Metrics snapshot plus the serving artifact's identity."""
        snap = self.metrics.snapshot()
        snap["artifact"] = {
            "version": self._artifact.version,
            "iteration": self._artifact.iteration,
            "generation": self._generation,
            "n_nodes": self._artifact.n_nodes,
            "n_communities": self._artifact.n_communities,
            "known_good_versions": self._registry.versions(),
        }
        return snap
