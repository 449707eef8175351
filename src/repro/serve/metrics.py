"""Serving metrics: per-endpoint QPS, latency histograms, queue and cache.

The serving loop records every answered request into a
:class:`ServerMetrics` instance; :meth:`ServerMetrics.snapshot` exports
the whole thing as one JSON-ready dict (what ``ModelServer.stats()``
returns and the ``chaos-serve`` drill report embeds).

Latency is tracked in a fixed geometric-bucket histogram
(:class:`LatencyHistogram`) rather than a reservoir: constant memory, a
single lock-protected increment per observation, and p50/p99 read out by
linear interpolation inside the winning bucket — the standard
Prometheus-style trade-off (quantiles are approximate to within one
bucket's width, ~26% here, which is plenty to tell 50 microseconds from 5
milliseconds).

All methods are thread-safe; the hot-path cost is one lock + two adds.

Resilience counters (deadline misses, shed requests, degraded answers,
worker respawns, rollbacks, publish failures, quarantines, stale cache
evictions) live next to the throughput counters so one snapshot pins
the full error taxonomy. The admission-control loop reads
:meth:`ServerMetrics.observed_p99_ms` — an *exact* p99 over a small
sliding window of recent requests with a staleness horizon, so a burst
of slow requests raises it immediately and an idle (or fully shedding)
server decays back to "no data" instead of shedding forever on a stale
signal.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Callable, Optional

#: observations older than this never count toward the windowed p99.
_WINDOW_HORIZON_SECONDS = 5.0

#: histogram bucket upper bounds (seconds): 1 us .. ~85 s, geometric x1.26.
_BUCKET_BASE = 1e-6
_BUCKET_GROWTH = 1.26
_N_BUCKETS = 80


def _bucket_index(seconds: float) -> int:
    if seconds <= _BUCKET_BASE:
        return 0
    idx = int(math.log(seconds / _BUCKET_BASE) / math.log(_BUCKET_GROWTH)) + 1
    return min(idx, _N_BUCKETS - 1)


def _bucket_upper(idx: int) -> float:
    return _BUCKET_BASE * _BUCKET_GROWTH**idx


class LatencyHistogram:
    """Fixed geometric-bucket latency histogram with quantile readout."""

    def __init__(self) -> None:
        self._counts = [0] * _N_BUCKETS
        self.count = 0
        self.total_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self._counts[_bucket_index(seconds)] += 1
        self.count += 1
        self.total_seconds += seconds

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (seconds); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for idx, c in enumerate(self._counts):
            if c == 0:
                continue
            if seen + c >= target:
                lo = _bucket_upper(idx - 1) if idx > 0 else 0.0
                hi = _bucket_upper(idx)
                frac = (target - seen) / c
                return lo + frac * (hi - lo)
            seen += c
        return _bucket_upper(_N_BUCKETS - 1)  # pragma: no cover - defensive

    @property
    def mean(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.quantile(0.5) * 1e3,
            "p99_ms": self.quantile(0.99) * 1e3,
        }


class EndpointMetrics:
    """Counters + latency for one endpoint (``membership``, ...)."""

    def __init__(self) -> None:
        self.requests = 0
        self.queries = 0  # unit items answered, e.g. pairs scored
        self.errors = 0
        self.latency = LatencyHistogram()

    def record(self, latency_seconds: float, queries: int = 1) -> None:
        self.requests += 1
        self.queries += int(queries)
        self.latency.observe(latency_seconds)

    def snapshot(self, elapsed: float) -> dict[str, Any]:
        out: dict[str, Any] = {
            "requests": self.requests,
            "queries": self.queries,
            "errors": self.errors,
            "qps": self.requests / elapsed if elapsed > 0 else 0.0,
            "queries_per_s": self.queries / elapsed if elapsed > 0 else 0.0,
        }
        out.update(self.latency.snapshot())
        return out


class ServerMetrics:
    """Thread-safe aggregate of everything the server reports.

    Args:
        queue_depth: optional callable returning the live queue depth;
            sampled at snapshot time (a gauge, not a counter).
        p99_window: sliding-window size for :meth:`observed_p99_ms`.
    """

    def __init__(
        self,
        queue_depth: Optional[Callable[[], int]] = None,
        p99_window: int = 256,
    ) -> None:
        if p99_window < 1:
            raise ValueError("p99_window must be >= 1")
        self._lock = threading.Lock()
        self._endpoints: dict[str, EndpointMetrics] = {}
        self._queue_depth = queue_depth
        self._started = time.perf_counter()
        self._window: deque[tuple[float, float]] = deque(maxlen=p99_window)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.stale_cache_evictions = 0
        self.rejected = 0
        self.hot_swaps = 0
        self.batches = 0
        self.batched_requests = 0
        self.deadline_exceeded = 0
        self.shed = 0
        self.degraded_answers = 0
        self.worker_respawns = 0
        self.rollbacks = 0
        self.publish_failures = 0
        self.quarantines = 0
        self.recommend = {"candidates": 0, "survivors": 0, "returned": 0}

    def record_request(
        self, endpoint: str, latency_seconds: float, queries: int = 1
    ) -> None:
        with self._lock:
            self._endpoint(endpoint).record(latency_seconds, queries)
            self._window.append((time.perf_counter(), latency_seconds))

    def record_error(self, endpoint: str) -> None:
        with self._lock:
            self._endpoint(endpoint).errors += 1

    def record_batch(self, n_requests: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += int(n_requests)

    def record_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def record_eviction(self, n: int = 1) -> None:
        with self._lock:
            self.cache_evictions += int(n)

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_hot_swap(self) -> None:
        with self._lock:
            self.hot_swaps += 1

    def record_stale_eviction(self, n: int = 1) -> None:
        with self._lock:
            self.stale_cache_evictions += int(n)

    def record_deadline_exceeded(self) -> None:
        with self._lock:
            self.deadline_exceeded += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_degraded_answer(self) -> None:
        with self._lock:
            self.degraded_answers += 1

    def record_worker_respawn(self) -> None:
        with self._lock:
            self.worker_respawns += 1

    def record_rollback(self) -> None:
        with self._lock:
            self.rollbacks += 1

    def record_publish_failure(self) -> None:
        with self._lock:
            self.publish_failures += 1

    def record_quarantine(self) -> None:
        with self._lock:
            self.quarantines += 1

    def record_recommend(self, candidates: int, survivors: int, returned: int) -> None:
        """One recommend batch: candidates considered by the filter,
        survivors scored exactly by the refine, edges returned."""
        with self._lock:
            self.recommend["candidates"] += int(candidates)
            self.recommend["survivors"] += int(survivors)
            self.recommend["returned"] += int(returned)

    def observed_p99_ms(self) -> float:
        """Exact p99 (ms) over the recent-request window; 0.0 means "no
        fresh data" and must never be read as "fast" *or* "slow" — the
        shed policy treats it as insufficient signal and does not shed
        on latency, which is what lets a fully-shedding server recover.
        """
        horizon = time.perf_counter() - _WINDOW_HORIZON_SECONDS
        with self._lock:
            while self._window and self._window[0][0] < horizon:
                self._window.popleft()
            if not self._window:
                return 0.0
            lat = sorted(v for _, v in self._window)
        idx = min(len(lat) - 1, int(math.ceil(0.99 * len(lat))) - 1)
        return lat[max(idx, 0)] * 1e3

    def _endpoint(self, name: str) -> EndpointMetrics:
        ep = self._endpoints.get(name)
        if ep is None:
            ep = self._endpoints[name] = EndpointMetrics()
        return ep

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def snapshot(self) -> dict[str, Any]:
        """One JSON-ready dict: endpoints, queue, cache, batching, swaps."""
        with self._lock:
            elapsed = time.perf_counter() - self._started
            return {
                "elapsed_seconds": elapsed,
                "endpoints": {
                    name: ep.snapshot(elapsed)
                    for name, ep in sorted(self._endpoints.items())
                },
                "queue_depth": self._queue_depth() if self._queue_depth else 0,
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "evictions": self.cache_evictions,
                    "stale_evictions": self.stale_cache_evictions,
                    "hit_rate": self.cache_hit_rate,
                },
                "batching": {
                    "batches": self.batches,
                    "batched_requests": self.batched_requests,
                    "mean_batch_size": (
                        self.batched_requests / self.batches if self.batches else 0.0
                    ),
                },
                # Refine efficiency: ~1 survivor per returned edge on a
                # trained model; far above 1 means a tie-heavy model (e.g.
                # uniform pi) on which the refine scores every candidate.
                "recommend": {
                    **self.recommend,
                    "survivors_per_returned": (
                        self.recommend["survivors"] / max(self.recommend["returned"], 1)
                    ),
                },
                "rejected": self.rejected,
                "hot_swaps": self.hot_swaps,
                "resilience": {
                    "deadline_exceeded": self.deadline_exceeded,
                    "shed": self.shed,
                    "degraded_answers": self.degraded_answers,
                    "worker_respawns": self.worker_respawns,
                    "rollbacks": self.rollbacks,
                    "publish_failures": self.publish_failures,
                    "quarantines": self.quarantines,
                },
            }
