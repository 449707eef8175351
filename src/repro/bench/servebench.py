"""Serving-layer benchmark: seeded closed-loop load generator.

``run_serve_bench`` stands up a :class:`~repro.serve.server.ModelServer`
over a synthetic artifact (acceptance workload: N=10k nodes, K=64) and
drives it with closed-loop client threads issuing Zipf-skewed
link-probability requests (a small hot set dominates, as real query
traffic does — this is what exercises the LRU cache). Each client keeps a
bounded pipeline of outstanding futures, so admission, batching and
scoring overlap like they would behind a real RPC front end.

Mid-run, a perturbed artifact is **hot-swapped** in while the clients
keep hammering; the report proves the swap completed with zero dropped
and zero errored queries — the serving layer's equivalent of the chaos
drill. After the link-probability load drains, a second phase drives
coalesced ``recommend_edges`` traffic (each request considers N-1
candidates; one filtering pass and one kernel call per server
micro-batch) and reports candidate-pairs/sec next to the
link-probability numbers.

A third **storage phase** (schema v4) measures what the out-of-core
artifact format buys: cold-start-to-first-answer and peak RSS for the
same model saved as a legacy v1 ``.npz`` versus a v2 store-container
directory, each timed in a fresh subprocess (clean ``ru_maxrss``), plus
client-observed p99 latency immediately after a live
``publish_path`` hot-swap onto the memory-mapped v2 artifact. The
acceptance bar: the mapped v2 cold start must be at least 10x faster
than the v1 decompress-everything path.

The JSON report (``BENCH_serve.json``) embeds the full
:class:`~repro.serve.metrics.ServerMetrics` snapshot (per-endpoint QPS,
p50/p99 latency, cache hit rate, batching stats) plus the acceptance
verdict: sustained batched link-probability queries/sec against the 50k/s
target. Every terminal request outcome is counted in a typed taxonomy
(completed / errored / shed / deadline-exceeded / overloaded /
degraded-answer) so resilience overhead on the happy path stays pinned
next to throughput. Everything is seeded; quick mode shrinks the
workload for CI but keeps the same shape.

``run_chaos_serve`` is the serving counterpart of the training chaos
drill: a seeded :class:`~repro.faults.ServeFaultPlan` (two corrupt
publish payloads, a mid-swap failure, a worker-thread crash, engine
latency spikes) runs against a live server under this load generator,
and the report asserts the recovery invariants the ISSUE demands —
server survives, rolls back to last-known-good, respawns the dead
worker, quarantines the damage, and accounts for every request with a
typed error (zero silent drops).
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.config import AMMSBConfig

SCHEMA = "repro-serve-bench/4"
CHAOS_SCHEMA = "repro-chaos-serve/1"

#: acceptance target: sustained batched link-probability queries/sec.
TARGET_QUERIES_PER_S = 50_000.0

#: acceptance target: v2 (mapped dir) cold-start-to-first-answer must be
#: at least this many times faster than v1 (compressed .npz).
TARGET_COLD_START_SPEEDUP = 10.0


@dataclass(frozen=True)
class ServeWorkload:
    """Sizing of one load-generator run."""

    n_vertices: int = 10_000
    n_communities: int = 64
    n_clients: int = 4
    requests_per_client: int = 1500
    pairs_per_request: int = 64
    pool_size: int = 512  # distinct requests (Zipf-sampled -> cache hits)
    pipeline_depth: int = 8
    zipf_exponent: float = 1.1
    swap_after_fraction: float = 0.5
    # Storage phase: artifact size is independent of the load-gen size —
    # the cold-start gap only shows at sizes where the v1 decompress
    # actually costs something (pi alone is storage_n_vertices * K * 8B).
    storage_n_vertices: int = 50_000
    storage_reps: int = 2
    storage_requests: int = 300

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client

    @property
    def total_queries(self) -> int:
        return self.total_requests * self.pairs_per_request


FULL = ServeWorkload()
QUICK = ServeWorkload(
    n_vertices=2000,
    n_communities=32,
    n_clients=2,
    requests_per_client=300,
    pairs_per_request=32,
    pool_size=128,
    storage_n_vertices=8_000,
    storage_requests=120,
)


def synthetic_artifact(n_vertices: int, n_communities: int, seed: int):
    """A model-shaped artifact without training (random gamma posterior)."""
    from repro.core.state import init_state
    from repro.serve.artifact import build_artifact

    config = AMMSBConfig(n_communities=n_communities, seed=seed)
    state = init_state(n_vertices, config, np.random.default_rng(seed))
    return build_artifact(state, config, iteration=0)


def perturbed_artifact(artifact, seed: int):
    """A distinct-version snapshot of the same shape (the hot-swap payload)."""
    from repro.core.state import ModelState
    from repro.serve.artifact import build_artifact

    rng = np.random.default_rng(seed)
    pi = artifact.pi * rng.uniform(0.9, 1.1, size=artifact.pi.shape)
    state = ModelState(
        pi=pi / pi.sum(axis=1, keepdims=True),
        phi_sum=np.ones(artifact.n_nodes),
        theta=artifact.theta.copy(),
    )
    return build_artifact(state, artifact.config, iteration=artifact.iteration + 1)


def _zipf_indices(
    rng: np.random.Generator, n: int, size: int, exponent: float
) -> np.ndarray:
    """``size`` draws from a Zipf law over ``range(n)`` (rank 0 hottest)."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    return rng.choice(n, size=size, p=weights)


def _request_pool(rng: np.random.Generator, w: ServeWorkload) -> list[np.ndarray]:
    """Distinct (B, 2) pair requests over Zipf-popular nodes."""
    pool = []
    for _ in range(w.pool_size):
        a = _zipf_indices(rng, w.n_vertices, w.pairs_per_request, w.zipf_exponent)
        b = (a + 1 + rng.integers(0, w.n_vertices - 1, size=a.shape)) % w.n_vertices
        pool.append(np.column_stack([a, b]).astype(np.int64))
    return pool


@dataclass
class _ClientResult:
    completed: int = 0
    queries: int = 0
    errors: int = 0
    overloads: int = 0
    sheds: int = 0
    deadline_exceeded: int = 0
    error_types: set = field(default_factory=set)


def _client_loop(
    server,
    schedule: list[np.ndarray],
    depth: int,
    result: _ClientResult,
    answered: threading.Event,
    answer_threshold: int,
    answered_counter: list[int],
    counter_lock: threading.Lock,
) -> None:
    """Closed-loop client: bounded pipeline of outstanding requests.

    Every terminal outcome lands in exactly one taxonomy bucket:
    completed, deadline-exceeded (typed, no retry — the answer is
    already worthless), or errored (with the exception type recorded).
    Backpressure (:class:`ServerOverloaded`) and shedding
    (:class:`RequestShed`) are retried with backoff and *counted*, but a
    request that exhausts its retry budget becomes a counted error —
    never a silent drop.
    """
    from repro.serve.server import DeadlineExceeded, RequestShed, ServerOverloaded

    outstanding: list[tuple] = []

    def drain(block_all: bool = False) -> None:
        while outstanding and (block_all or len(outstanding) >= depth):
            fut, n_pairs = outstanding.pop(0)
            try:
                probs = fut.result(timeout=60.0)
                ok = (
                    len(probs) == n_pairs
                    and bool(np.all(np.isfinite(probs)))
                    and bool(np.all((probs > 0) & (probs < 1)))
                )
                if not ok:
                    result.errors += 1
                    result.error_types.add("BadAnswer")
                    continue
                result.completed += 1
                result.queries += n_pairs
                with counter_lock:
                    answered_counter[0] += 1
                    if answered_counter[0] >= answer_threshold:
                        answered.set()
            except DeadlineExceeded:
                result.deadline_exceeded += 1
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                result.errors += 1
                result.error_types.add(type(exc).__name__)

    for pairs in schedule:
        fut = None
        for _attempt in range(2000):  # bounded: a dead server can't hang us
            try:
                fut = server.link_probability(pairs)
                break
            except ServerOverloaded:
                result.overloads += 1
            except RequestShed:
                result.sheds += 1
            drain(block_all=False)
            time.sleep(0.0005)
        if fut is None:  # retry budget exhausted: counted, not dropped
            result.errors += 1
            result.error_types.add("RetriesExhausted")
            continue
        outstanding.append((fut, len(pairs)))
        drain(block_all=False)
    drain(block_all=True)


def _recommend_phase(server, w: ServeWorkload, seed: int) -> dict[str, Any]:
    """Coalesced recommend_edges throughput over distinct (uncached) nodes.

    Every request considers ``n_vertices - 1`` candidates; the server
    answers a micro-batch of them with one filtering pass over ``pi`` and
    ONE ``link_probability`` kernel call on the survivors
    (``QueryEngine.recommend_edges_batch``), which is what this phase
    measures. Requests use distinct nodes so the LRU cache cannot answer
    any of them.
    """
    from repro.serve.server import ServerOverloaded

    rng = np.random.default_rng(seed + 7)
    n_requests = min(w.n_vertices, 4 * w.pool_size)
    top_n = 10
    nodes = rng.choice(w.n_vertices, size=n_requests, replace=False)
    pending: deque = deque()
    completed = errors = 0

    def consume(fut) -> None:
        nonlocal completed, errors
        try:
            if len(fut.result(timeout=60.0)) == top_n:
                completed += 1
            else:
                errors += 1
        except Exception:  # noqa: BLE001 - counted, not raised
            errors += 1

    start = time.perf_counter()
    for node in nodes:
        while True:
            try:
                pending.append(server.recommend_edges(int(node), top_n))
                break
            except ServerOverloaded:
                if pending:
                    consume(pending.popleft())
                else:  # pragma: no cover - queue full with nothing in flight
                    time.sleep(0.0005)
        if len(pending) >= 2 * w.pipeline_depth:
            consume(pending.popleft())
    while pending:
        consume(pending.popleft())
    elapsed = time.perf_counter() - start

    candidates_per_request = w.n_vertices - 1
    return {
        "requests": int(n_requests),
        "top_n": top_n,
        "completed": completed,
        "errors": errors,
        "elapsed_seconds": elapsed,
        "requests_per_s": completed / elapsed if elapsed > 0 else 0.0,
        "candidate_pairs_per_s": (
            completed * candidates_per_request / elapsed if elapsed > 0 else 0.0
        ),
    }


# Storage-phase child: load an artifact by path, answer one small
# link-probability batch, report time-to-first-answer and peak RSS
# (VmHWM — exec-fresh, see membench.PEAK_RSS_SNIPPET). ``baseline``
# mode imports the stack but loads nothing, pinning the
# interpreter+NumPy RSS floor so deltas isolate the artifact's cost.
_COLD_SCRIPT_BODY = r"""
import json, sys, time
t0 = time.perf_counter()
import numpy as np
from repro.serve.artifact import load_artifact
from repro.serve.engine import QueryEngine
t1 = time.perf_counter()
path = sys.argv[1]
if path != "baseline":
    art = load_artifact(path)
    eng = QueryEngine(art)
    n = art.n_nodes
    pairs = np.column_stack(
        [np.arange(64) % n, (np.arange(64) + 1) % n]
    ).astype(np.int64)
    probs = eng.link_probability(pairs)
    assert probs.shape == (64,) and np.all((probs > 0) & (probs < 1))
t2 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "first_answer_s": t2 - t1,
    "maxrss_bytes": _peak_rss_bytes(),
}))
"""


def _cold_script() -> str:
    from repro.bench.membench import PEAK_RSS_SNIPPET

    return PEAK_RSS_SNIPPET + _COLD_SCRIPT_BODY


def _storage_phase(w: ServeWorkload, seed: int) -> dict[str, Any]:
    """Cold-start + RSS for v1 ``.npz`` vs v2 container, and post-swap p99.

    Cold start is measured in fresh subprocesses (min over
    ``storage_reps``): time from "imports done" to the first verified
    link-probability answer, which charges v1 for its full decompress
    and v2 only for the pages the answer touches. The post-swap section
    then hot-swaps the v2 directory into a live server via
    ``publish_path`` (full digest verify before the swap) and reports
    client-observed latency percentiles for traffic served *by the
    mapped artifact*.
    """
    from repro.bench.membench import measure_subprocess, trim_heap
    from repro.serve.artifact import load_artifact, save_artifact
    from repro.serve.server import ModelServer

    artifact = synthetic_artifact(w.storage_n_vertices, w.n_communities, seed + 3)
    swap = perturbed_artifact(artifact, seed + 4)
    swap_version = swap.version

    with tempfile.TemporaryDirectory(prefix="repro-servebench-") as tmpdir:
        v1_path = Path(tmpdir) / "model_v1.npz"
        v2_path = Path(tmpdir) / "model_v2"
        swap_path = Path(tmpdir) / "model_swap"
        save_artifact(v1_path, artifact, format="npz")  # same payload both
        save_artifact(v2_path, artifact, format="dir")  # formats: fair race
        save_artifact(swap_path, swap, format="dir")
        v1_bytes = v1_path.stat().st_size
        v2_bytes = sum(f.stat().st_size for f in v2_path.iterdir())

        # cold-start children are forked from this process: drop the
        # in-memory artifacts first so their ru_maxrss floor stays low.
        del artifact, swap
        trim_heap()
        cold_script = _cold_script()

        base_rss = min(
            measure_subprocess(cold_script, ["baseline"])["maxrss_bytes"]
            for _ in range(w.storage_reps)
        )
        cold: dict[str, Any] = {}
        for name, path in (("v1_npz", v1_path), ("v2_dir", v2_path)):
            samples = [
                measure_subprocess(cold_script, [str(path)])
                for _ in range(w.storage_reps)
            ]
            rss = min(s["maxrss_bytes"] for s in samples)
            cold[name] = {
                "first_answer_s": min(s["first_answer_s"] for s in samples),
                "maxrss_bytes": rss,
                "rss_delta_bytes": max(0, rss - base_rss),
            }

        # Post-swap latency: a live server starts on the v1 artifact,
        # hot-swaps to the mapped v2 directory, then serves a sequential
        # burst whose per-request latency we time client-side.
        rng = np.random.default_rng(seed + 5)
        pool = [
            np.column_stack([a, (a + 1 + rng.integers(1, 97)) % w.storage_n_vertices])
            for a in (
                rng.integers(0, w.storage_n_vertices, size=(8, 64)).astype(np.int64)
            )
        ]
        latencies = np.empty(w.storage_requests)
        with ModelServer(load_artifact(v1_path), n_workers=2, max_batch=32,
                         max_delay_ms=0.2) as server:
            t_swap = time.perf_counter()
            generation = server.publish_path(swap_path)
            swap_s = time.perf_counter() - t_swap
            for i in range(w.storage_requests):
                t0 = time.perf_counter()
                server.link_probability(pool[i % len(pool)]).result(timeout=60.0)
                latencies[i] = time.perf_counter() - t0
            swapped_version = server.artifact.version

    tiny = 1e-9
    speedup = cold["v1_npz"]["first_answer_s"] / max(
        cold["v2_dir"]["first_answer_s"], tiny
    )
    return {
        "artifact": {
            "n_vertices": w.storage_n_vertices,
            "n_communities": w.n_communities,
            "v1_npz_bytes": v1_bytes,
            "v2_dir_bytes": v2_bytes,
        },
        "reps": w.storage_reps,
        "baseline_rss_bytes": base_rss,
        "cold_start": cold,
        "cold_start_speedup": speedup,
        # v2 pages touched by one answer, as a fraction of what the v1
        # decompress-everything path held resident.
        "cold_rss_fraction": cold["v2_dir"]["rss_delta_bytes"]
        / max(cold["v1_npz"]["rss_delta_bytes"], 1),
        "post_swap": {
            "swap_installed": swapped_version == swap_version,
            "swap_generation": generation,
            "publish_path_s": swap_s,
            "requests": int(w.storage_requests),
            "p50_ms": float(np.percentile(latencies, 50) * 1e3),
            "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        },
    }


def run_serve_bench(
    quick: bool = False,
    seed: int = 0,
    workload: Optional[ServeWorkload] = None,
    faults=None,
    shed_policy=None,
    default_deadline_ms: Optional[float] = None,
) -> dict[str, Any]:
    """Run the load generator; returns the JSON-ready report.

    ``faults`` / ``shed_policy`` / ``default_deadline_ms`` pass straight
    through to :class:`~repro.serve.server.ModelServer`; the defaults
    keep the happy-path bench bit-identical to a plain server.
    """
    from repro.serve.server import ModelServer

    w = workload if workload is not None else (QUICK if quick else FULL)
    rng = np.random.default_rng(seed)
    artifact = synthetic_artifact(w.n_vertices, w.n_communities, seed)
    swap_artifact = perturbed_artifact(artifact, seed + 1)

    pool = _request_pool(rng, w)
    schedules = [
        [
            pool[i]
            for i in _zipf_indices(
                np.random.default_rng(seed + 100 + c),
                w.pool_size,
                w.requests_per_client,
                w.zipf_exponent,
            )
        ]
        for c in range(w.n_clients)
    ]

    results = [_ClientResult() for _ in range(w.n_clients)]
    answered = threading.Event()
    answered_counter = [0]
    counter_lock = threading.Lock()
    swap_threshold = max(1, int(w.total_requests * w.swap_after_fraction))

    server = ModelServer(
        artifact,
        n_workers=2,
        max_batch=max(16, 4 * w.n_clients),
        max_delay_ms=0.2,
        queue_limit=max(256, 4 * w.n_clients * w.pipeline_depth),
        cache_size=2 * w.pool_size,
        faults=faults,
        shed_policy=shed_policy,
        default_deadline_ms=default_deadline_ms,
    )
    swap_info: dict[str, Any] = {"performed": False}

    def swapper() -> None:
        if answered.wait(timeout=120.0):
            gen = server.publish(swap_artifact)
            swap_info.update(
                performed=True,
                generation=gen,
                at_request=answered_counter[0],
                new_version=swap_artifact.version,
            )

    threads = [
        threading.Thread(
            target=_client_loop,
            args=(
                server, schedules[c], w.pipeline_depth, results[c],
                answered, swap_threshold, answered_counter, counter_lock,
            ),
            name=f"client-{c}",
        )
        for c in range(w.n_clients)
    ]
    swap_thread = threading.Thread(target=swapper, name="publisher")

    start = time.perf_counter()
    swap_thread.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    swap_thread.join(timeout=5.0)
    recommend = _recommend_phase(server, w, seed)
    stats = server.stats()
    server.close()
    storage = _storage_phase(w, seed)

    completed = sum(r.completed for r in results)
    queries = sum(r.queries for r in results)
    errors = sum(r.errors for r in results)
    overloads = sum(r.overloads for r in results)
    sheds = sum(r.sheds for r in results)
    deadline_exceeded = sum(r.deadline_exceeded for r in results)
    error_types = sorted(set().union(*(r.error_types for r in results)))
    dropped = w.total_requests - completed - errors - deadline_exceeded
    queries_per_s = queries / elapsed if elapsed > 0 else 0.0
    lp = stats["endpoints"].get("link_probability", {})

    from repro.core import kernels as _kernels

    return {
        "schema": SCHEMA,
        "quick": bool(quick),
        "seed": int(seed),
        # The backend the serving engines actually resolved (artifact
        # configs may name a backend this host lacks; they fall soft).
        "kernel_backend": _kernels.resolve_backend(
            artifact.config.kernel_backend, allow_fallback=True
        ).name,
        "workload": {
            "n_vertices": w.n_vertices,
            "n_communities": w.n_communities,
            "n_clients": w.n_clients,
            "requests_per_client": w.requests_per_client,
            "pairs_per_request": w.pairs_per_request,
            "pool_size": w.pool_size,
            "pipeline_depth": w.pipeline_depth,
            "zipf_exponent": w.zipf_exponent,
        },
        "results": {
            "elapsed_seconds": elapsed,
            "requests_completed": completed,
            "queries_completed": queries,
            "requests_per_s": completed / elapsed if elapsed > 0 else 0.0,
            "queries_per_s": queries_per_s,
            "errors": errors,
            "error_types": error_types,
            "dropped": dropped,
            "overload_rejections": overloads,
            "shed_rejections": sheds,
            "deadline_exceeded": deadline_exceeded,
            "degraded_answers": stats["resilience"]["degraded_answers"],
            "p50_ms": lp.get("p50_ms", 0.0),
            "p99_ms": lp.get("p99_ms", 0.0),
            "cache_hit_rate": stats["cache"]["hit_rate"],
        },
        "recommend_edges": recommend,
        "storage": storage,
        "hot_swap": {
            **swap_info,
            "errors_after_swap": errors,  # zero-total implies zero after swap
            "zero_dropped_or_errored": errors == 0 and dropped == 0,
        },
        "server": stats,
        "acceptance": {
            "target_queries_per_s": TARGET_QUERIES_PER_S,
            "achieved_queries_per_s": queries_per_s,
            "meets_target": queries_per_s >= TARGET_QUERIES_PER_S,
            "target_cold_start_speedup": TARGET_COLD_START_SPEEDUP,
            "achieved_cold_start_speedup": storage["cold_start_speedup"],
            "meets_cold_start_target": (
                storage["cold_start_speedup"] >= TARGET_COLD_START_SPEEDUP
            ),
        },
    }


def report_rows(report: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten for :func:`repro.bench.harness.format_table`."""
    r = report["results"]
    hs = report["hot_swap"]
    return [
        {"metric": "queries/s", "value": r["queries_per_s"]},
        {"metric": "requests/s", "value": r["requests_per_s"]},
        {"metric": "p50 latency (ms)", "value": r["p50_ms"]},
        {"metric": "p99 latency (ms)", "value": r["p99_ms"]},
        {"metric": "cache hit rate", "value": r["cache_hit_rate"]},
        {"metric": "errors", "value": r["errors"]},
        {"metric": "dropped", "value": r["dropped"]},
        {"metric": "overload rejections", "value": r["overload_rejections"]},
        {"metric": "shed rejections", "value": r["shed_rejections"]},
        {"metric": "deadline exceeded", "value": r["deadline_exceeded"]},
        {"metric": "degraded answers", "value": r["degraded_answers"]},
        {
            "metric": "recommend candidate pairs/s",
            "value": report.get("recommend_edges", {}).get(
                "candidate_pairs_per_s", 0.0
            ),
        },
        {"metric": "hot-swap clean", "value": str(hs["zero_dropped_or_errored"])},
        {
            "metric": f"meets {TARGET_QUERIES_PER_S:.0f} q/s target",
            "value": str(report["acceptance"]["meets_target"]),
        },
    ]
    st = report.get("storage")
    if st:
        rows += [
            {
                "metric": "cold start v1 npz (ms)",
                "value": st["cold_start"]["v1_npz"]["first_answer_s"] * 1e3,
            },
            {
                "metric": "cold start v2 dir (ms)",
                "value": st["cold_start"]["v2_dir"]["first_answer_s"] * 1e3,
            },
            {"metric": "cold start speedup", "value": st["cold_start_speedup"]},
            {"metric": "cold RSS fraction (v2/v1)", "value": st["cold_rss_fraction"]},
            {"metric": "post-swap p99 (ms)", "value": st["post_swap"]["p99_ms"]},
            {
                "metric": f"meets {TARGET_COLD_START_SPEEDUP:.0f}x cold-start target",
                "value": str(report["acceptance"]["meets_cold_start_target"]),
            },
        ]
    return rows


def compare_reports(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    threshold: float = 0.5,
) -> list[dict[str, Any]]:
    """Regression rows for ``repro bench-check --suite serve``.

    Only *ratio* metrics are gated (the cold-start speedup is v1-time
    over v2-time on the same machine), so the committed full-size
    ``BENCH_serve.json`` checks cleanly against a quick CI run on
    different hardware. Absolute throughput and latency stay informative
    but ungated — they move with core count and clock speed.
    """
    rows: list[dict[str, Any]] = []
    base = baseline.get("storage", {}).get("cold_start_speedup")
    now = fresh.get("storage", {}).get("cold_start_speedup")
    if base is not None and now is not None:
        # The speedup grows with artifact size (v1 decompression is
        # O(bytes), the v2 map is O(manifest)), so the ratio gate only
        # applies between runs of the same storage workload size. A
        # quick CI run against the committed full-size baseline is
        # instead held to the absolute acceptance target.
        b_n = baseline.get("storage", {}).get("artifact", {}).get("n_vertices")
        f_n = fresh.get("storage", {}).get("artifact", {}).get("n_vertices")
        if b_n == f_n:
            ratio = now / base if base else float("inf")
            rows.append(
                {
                    "metric": "storage/cold_start_speedup",
                    "baseline": base,
                    "fresh": now,
                    "ratio": ratio,
                    "regressed": ratio < 1.0 - threshold,
                }
            )
        else:
            target = float(
                baseline.get("acceptance", {}).get(
                    "target_cold_start_speedup", TARGET_COLD_START_SPEEDUP
                )
            )
            rows.append(
                {
                    "metric": "storage/cold_start_speedup (vs target; "
                    f"workload {f_n} != baseline {b_n})",
                    "baseline": target,
                    "fresh": now,
                    "ratio": now / target if target else float("inf"),
                    "regressed": now < target,
                }
            )
    for flag in ("meets_target", "meets_cold_start_target"):
        b = baseline.get("acceptance", {}).get(flag)
        rows.append(
            {
                "metric": f"acceptance/{flag} (baseline)",
                "baseline": b,
                "fresh": fresh.get("acceptance", {}).get(flag),
                "ratio": 1.0,
                # the committed baseline itself must pass; fresh quick
                # runs on weaker CI hardware are informative only.
                "regressed": b is not True,
            }
        )
    return rows


def run_chaos_serve(quick: bool = True, seed: int = 2026) -> dict[str, Any]:
    """The serving chaos drill: a seeded fault plan against a live server.

    While the closed-loop clients hammer link-probability, the drill
    attempts four publishes: a truncated file (archive-layer corruption),
    a payload-swapped file (only the SHA-256 verify can catch it), a
    clean file whose swap fails mid-flight (rolls back to last-known-
    good), and a clean file that must install. Meanwhile the fault plan
    crashes a worker thread (the watchdog must respawn it) and injects
    engine latency spikes; a post-load burst of microscopic deadlines
    proves deadline enforcement. The report's ``invariants`` section is
    the acceptance contract — ``passed`` is their conjunction.
    """
    from repro.faults import chaos_serve_plan
    from repro.serve.artifact import ArtifactCorrupt, save_artifact
    from repro.serve.server import (
        DeadlineExceeded,
        ModelServer,
        ShedPolicy,
        SwapFailed,
    )

    w = ServeWorkload(
        n_vertices=600 if quick else 2000,
        n_communities=16 if quick else 32,
        n_clients=2,
        requests_per_client=250 if quick else 1000,
        pairs_per_request=16 if quick else 32,
        pool_size=64 if quick else 128,
    )
    plan = chaos_serve_plan(seed=seed, n_workers=2)
    artifact = synthetic_artifact(w.n_vertices, w.n_communities, seed)
    v0 = artifact.version

    rng = np.random.default_rng(seed)
    pool = _request_pool(rng, w)
    schedules = [
        [
            pool[i]
            for i in _zipf_indices(
                np.random.default_rng(seed + 100 + c),
                w.pool_size,
                w.requests_per_client,
                w.zipf_exponent,
            )
        ]
        for c in range(w.n_clients)
    ]
    results = [_ClientResult() for _ in range(w.n_clients)]
    never = threading.Event()  # the drill performs its own swaps

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmpdir:
        server = ModelServer(
            artifact,
            n_workers=2,
            max_batch=16,
            max_delay_ms=0.2,
            queue_limit=512,
            cache_size=4 * w.pool_size,
            faults=plan,
            shed_policy=ShedPolicy(),
            stall_timeout_s=2.0,
            watchdog_interval_s=0.05,
        )
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(
                    server, schedules[c], w.pipeline_depth, results[c],
                    never, w.total_requests + 1, [0], threading.Lock(),
                ),
                name=f"chaos-client-{c}",
            )
            for c in range(w.n_clients)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)  # let traffic build before the first publish

        outcomes: list[dict[str, Any]] = []
        version_after_rollback = None
        final_version = None
        for attempt in range(4):
            payload = perturbed_artifact(artifact, seed + 10 + attempt)
            path = save_artifact(Path(tmpdir) / f"swap{attempt}.npz", payload)
            mode = plan.artifact_fault(attempt)
            if mode is not None:
                plan.corrupt_file(path, mode)
            try:
                gen = server.publish_path(path)
                outcomes.append(
                    {"attempt": attempt, "outcome": "published", "generation": gen}
                )
                final_version = payload.version
            except ArtifactCorrupt as exc:
                outcomes.append(
                    {
                        "attempt": attempt,
                        "outcome": "quarantined",
                        "mode": mode,
                        "quarantined_as": Path(exc.quarantined).name,
                    }
                )
            except SwapFailed as exc:
                outcomes.append(
                    {
                        "attempt": attempt,
                        "outcome": "rolled_back",
                        "serving_version": exc.serving_version,
                    }
                )
                version_after_rollback = server.artifact.version
            time.sleep(0.05)

        for t in threads:
            t.join()

        # deadline burst: microscopic deadlines on distinct (uncached)
        # membership queries — queue wait alone must expire most of them.
        burst = [
            server.membership(i % w.n_vertices, deadline_ms=0.005)
            for i in range(100)
        ]
        deadline_hits = completed_in_burst = 0
        for fut in burst:
            try:
                fut.result(timeout=30.0)
                completed_in_burst += 1
            except DeadlineExceeded:
                deadline_hits += 1

        health = server.health()
        final_answer_ok = server.query("membership", 0, timeout=30.0) is not None
        stats = server.stats()
        quarantined_files = sorted(
            p.name for p in Path(tmpdir).glob("*.quarantined*")
        )
        server.close()
    elapsed = time.perf_counter() - start

    completed = sum(r.completed for r in results)
    errors = sum(r.errors for r in results)
    deadline_exceeded = sum(r.deadline_exceeded for r in results)
    error_types = sorted(set().union(*(r.error_types for r in results)))
    dropped = w.total_requests - completed - errors - deadline_exceeded
    res = stats["resilience"]

    by_attempt = {o["attempt"]: o["outcome"] for o in outcomes}
    invariants = {
        "server_survived": bool(health["healthy"]) and final_answer_ok,
        "corrupt_publishes_quarantined": (
            by_attempt.get(0) == "quarantined"
            and by_attempt.get(1) == "quarantined"
            and len(quarantined_files) == 2
            and res["quarantines"] == 2
        ),
        "rolled_back_to_last_known_good": (
            by_attempt.get(2) == "rolled_back"
            and version_after_rollback == v0
            and res["rollbacks"] >= 1
        ),
        "final_publish_installed": (
            by_attempt.get(3) == "published"
            and stats["artifact"]["version"] == final_version
        ),
        "worker_respawned": res["worker_respawns"] >= 1,
        "deadline_enforced": deadline_hits >= 1,
        "zero_silent_drops": dropped == 0,
        "typed_errors_only": set(error_types) <= {"WorkerCrashed"},
    }
    return {
        "schema": CHAOS_SCHEMA,
        "quick": bool(quick),
        "seed": int(seed),
        "plan": plan.describe(),
        "elapsed_seconds": elapsed,
        "passed": all(invariants.values()),
        "invariants": invariants,
        "publish_attempts": outcomes,
        "quarantined_files": quarantined_files,
        "client": {
            "requests": w.total_requests,
            "completed": completed,
            "errors": errors,
            "error_types": error_types,
            "deadline_exceeded": deadline_exceeded,
            "shed_rejections": sum(r.sheds for r in results),
            "overload_rejections": sum(r.overloads for r in results),
            "dropped": dropped,
        },
        "deadline_burst": {
            "sent": len(burst),
            "deadline_exceeded": deadline_hits,
            "completed": completed_in_burst,
        },
        "server": stats,
    }


def chaos_report_rows(report: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten the drill verdicts for :func:`repro.bench.harness.format_table`."""
    rows = [
        {"metric": f"invariant: {name}", "value": str(ok)}
        for name, ok in report["invariants"].items()
    ]
    c = report["client"]
    rows += [
        {"metric": "requests completed", "value": c["completed"]},
        {"metric": "typed errors", "value": c["errors"]},
        {"metric": "deadline exceeded", "value": c["deadline_exceeded"]},
        {"metric": "worker respawns", "value": report["server"]["resilience"]["worker_respawns"]},
        {"metric": "drill passed", "value": str(report["passed"])},
    ]
    return rows


def save_report(report: dict[str, Any], path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path) -> dict[str, Any]:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, got {report.get('schema')!r}"
        )
    return report
