"""Chaos drills for the streaming and serving tiers: break it, then prove recovery.

``run_chaos_stream`` replays one deterministic arrival stream through
:class:`~repro.stream.trainer.StreamTrainer` while injecting every fault
class the durability work claims to survive, and asserts the recovery
invariants end to end:

- **kill/resume at every phase** — for each phase in
  :data:`repro.faults.CRASH_PHASES`, a run is killed mid-generation
  (via :class:`~repro.faults.InjectedCrash`), resumed with
  :meth:`StreamTrainer.resume`, re-fed the crashed batch, and driven to
  completion. The final digested CSR must be byte-identical to an
  uninterrupted reference run — same edge-key set, same container
  ``content_version`` — i.e. no accepted edge lost, none duplicated.
- **torn journal write** — a frame is cut mid-write; reopen must
  truncate exactly the torn tail, the re-fed batch must land, and the
  final state must still match the reference.
- **quarantine persistence** — malformed records fed in a clean batch
  must survive crash + resume in the sidecar with their reasons.
- **source supervision** — injected poll I/O faults plus a file
  rotation must be absorbed by :class:`~repro.stream.follow
  .FollowSupervisor` backoff with every edge still ingested.
- **serving** — the artifact recorded by the resumed run's manifest
  must load and answer a membership query about a streamed-in node.

``repro chaos-stream`` runs this drill and exits non-zero when any
invariant fails, which is what makes it a CI gate rather than a demo.
Schema v1 (``repro-chaos-stream/1``).

``run_chaos_serve`` is the serving counterpart: a seeded
:class:`~repro.faults.ServeFaultPlan` (two corrupt publish payloads, a
mid-swap failure, a worker-thread crash, engine latency spikes) runs
against a live :class:`~repro.serve.server.ModelServer` while seeded
closed-loop clients issue Zipf-skewed link-probability requests (a small
hot set dominates, as real query traffic does), each keeping a bounded
pipeline of outstanding futures. The report asserts that the server
survives, rolls back to last-known-good, respawns the dead worker,
quarantines the damage, and accounts for every request with a typed
error — zero silent drops (``repro chaos-serve``, schema
``repro-chaos-serve/1``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any

import numpy as np

from repro.config import AMMSBConfig

SCHEMA = "repro-chaos-stream/1"
CHAOS_SCHEMA = "repro-chaos-serve/1"


def _final_state(workdir: Path) -> tuple[str, frozenset, int]:
    """(content_version, edge-key set, n_vertices) of a run's digested CSR."""
    from repro.graph.io import load_csr
    from repro.store.container import read_manifest
    from repro.stream.trainer import StreamTrainer

    manifest = StreamTrainer.read_manifest(workdir)
    graph_path = Path(manifest["graph_path"])
    if not graph_path.is_absolute():
        graph_path = workdir / graph_path
    version = read_manifest(graph_path)["content_version"]
    graph = load_csr(graph_path, provider="resident")
    return version, frozenset(int(k) for k in graph.keys), graph.n_vertices


def run_chaos_stream(
    quick: bool = False, seed: int = 0, n_iterations: int = 8
) -> dict[str, Any]:
    """Run the full chaos drill; returns the JSON-ready report.

    Args:
        quick: smaller graph and fewer batches (CI-sized; same fault
            coverage — every crash phase still runs).
        seed: master seed for the planted graph and stream.
        n_iterations: per-generation training budget. The invariants are
            about durability, not model quality, so this stays tiny.
    """
    from repro.config import AMMSBConfig, StepSizeConfig
    from repro.faults import CRASH_PHASES, InjectedCrash, JournalTear, \
        SourceFault, StreamFaultPlan, TrainerCrash
    from repro.graph.generators import planted_overlapping_graph
    from repro.serve.artifact import load_artifact
    from repro.serve.server import ModelServer
    from repro.stream.follow import FollowSupervisor, TriggerPolicy, follow_stream
    from repro.stream.source import (
        EdgeArrival,
        FileTailSource,
        SyntheticArrivalSource,
        write_arrival_file,
    )
    from repro.stream.trainer import StreamTrainer

    n_vertices = 160 if quick else 260
    n_batches = 4
    rng = np.random.default_rng(seed)
    graph, _ = planted_overlapping_graph(
        n_vertices, 4, memberships_per_vertex=1, p_in=0.25, p_out=0.004, rng=rng
    )
    source = SyntheticArrivalSource(graph, base_fraction=0.85, seed=seed + 3)
    base = source.base_graph()
    batches = list(source.batches(n_batches))
    config = AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=32,
        neighbor_sample_size=16,
        seed=seed + 2,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    # No mangling faults in crash scenarios: RNG-driven corruption does
    # not replay identically across a kill/resume boundary, so equality
    # with the reference would be vacuous. Dirty input is exercised
    # separately (quarantine scenario) with *explicit* bad records.

    invariants: dict[str, bool] = {}
    details: dict[str, Any] = {}
    t0 = time.perf_counter()

    def trainer_kwargs(tmp: Path, **extra) -> dict:
        kw = dict(
            workdir=tmp / "work",
            iterations_per_generation=n_iterations,
            publish_path=tmp / "artifact",
            history_path=tmp / "history",
            heldout_fraction=0.05,
            journal_segment_bytes=1 << 12,  # roll often: GC paths exercised
        )
        kw.update(extra)
        return kw

    # -- reference: the same stream, never interrupted.
    with TemporaryDirectory(prefix="repro-chaos-ref-") as tmp:
        tmp = Path(tmp)
        trainer = StreamTrainer(base, config, **trainer_kwargs(tmp))
        for batch in batches:
            trainer.run_generation(batch)
        ref_version, ref_keys, ref_n = _final_state(tmp / "work")
    details["reference"] = {
        "n_edges": len(ref_keys),
        "n_vertices": ref_n,
        "content_version": ref_version,
        "n_batches": n_batches,
    }

    def run_killed(faults, crash_batch: int, tmp: Path, resume_kwargs=None):
        """Drive batches until the injected crash, resume, finish.

        Returns (resumed_trainer, crash_seen). The crashed batch is
        re-fed after resume — at-least-once delivery the overlay and
        journal must absorb into exactly-once state.
        """
        trainer = StreamTrainer(base, config, **trainer_kwargs(tmp, faults=faults))
        crash_seen = None
        for i, batch in enumerate(batches):
            try:
                trainer.run_generation(batch)
            except InjectedCrash as exc:
                crash_seen = exc.where
                assert i == crash_batch, (i, crash_batch)
                break
        else:  # pragma: no cover - drill misconfiguration
            return trainer, None
        trainer.journal.close()  # the "process" died; release the handle
        resumed = StreamTrainer.resume(
            tmp / "work",
            iterations_per_generation=n_iterations,
            heldout_fraction=0.05,
            **(resume_kwargs or {}),
        )
        for batch in batches[crash_batch:]:
            resumed.run_generation(batch)
        return resumed, crash_seen

    # -- kill/resume at every crash phase.
    crash_batch = 2
    phase_results = {}
    for phase in CRASH_PHASES:
        with TemporaryDirectory(prefix="repro-chaos-kill-") as tmp:
            tmp = Path(tmp)
            faults = StreamFaultPlan(
                seed=seed,
                trainer_crashes=(TrainerCrash(phase=phase, generation=crash_batch),),
            )
            resumed, crash_seen = run_killed(faults, crash_batch, tmp)
            version, keys, n = _final_state(tmp / "work")
            phase_results[phase] = {
                "crashed": crash_seen is not None,
                "no_lost_edges": ref_keys <= keys,
                "no_duplicate_edges": keys <= ref_keys,
                "csr_matches_reference": version == ref_version,
                "generations": resumed.generation,
                "last_known_good_served": (
                    resumed.last_published is not None
                    and Path(resumed.last_published).exists()
                ),
            }
    ok = lambda key: all(r[key] for r in phase_results.values())  # noqa: E731
    invariants["crash_injected_every_phase"] = all(
        r["crashed"] for r in phase_results.values()
    )
    invariants["no_lost_edges"] = ok("no_lost_edges")
    invariants["no_duplicate_edges"] = ok("no_duplicate_edges")
    invariants["csr_matches_reference"] = ok("csr_matches_reference")
    invariants["last_known_good_served"] = ok("last_known_good_served")
    details["kill_resume"] = phase_results

    # -- torn journal write: the frame for batch 1 is cut mid-write.
    with TemporaryDirectory(prefix="repro-chaos-tear-") as tmp:
        tmp = Path(tmp)
        faults = StreamFaultPlan(seed=seed, journal_tears=(JournalTear(append=1),))
        resumed, crash_seen = run_killed(faults, 1, tmp)
        version, keys, _ = _final_state(tmp / "work")
        repaired = resumed.journal.repaired  # (path, offset, reason) or None
        invariants["torn_tail_repaired"] = (
            crash_seen is not None and repaired is not None
            and version == ref_version
        )
        details["torn_write"] = {
            "repaired": (
                {"path": str(repaired[0]), "offset": repaired[1],
                 "reason": repaired[2]}
                if repaired else None
            ),
            "csr_matches_reference": version == ref_version,
        }

    # -- quarantine persistence across a crash.
    with TemporaryDirectory(prefix="repro-chaos-quar-") as tmp:
        tmp = Path(tmp)
        faults = StreamFaultPlan(
            seed=seed,
            trainer_crashes=(TrainerCrash(phase="post-journal-append", generation=1),),
        )
        trainer = StreamTrainer(base, config, **trainer_kwargs(tmp, faults=faults))
        bad = [
            EdgeArrival(timestamp=0.5, src=-4, dst=7),
            EdgeArrival(timestamp=0.6, src=3, dst=3),
        ]
        trainer.run_generation(batches[0] + bad)
        n_quarantined_before = len(trainer.quarantine_log)
        try:
            trainer.run_generation(batches[1])
            crashed = False
        except InjectedCrash:
            crashed = True
        trainer.journal.close()
        resumed = StreamTrainer.resume(
            tmp / "work",
            iterations_per_generation=n_iterations,
            heldout_fraction=0.05,
        )
        records = resumed.quarantine_log.read()
        reasons = {r["reason"] for r in records}
        invariants["quarantine_persisted"] = (
            crashed
            and n_quarantined_before >= 2
            and len(records) == n_quarantined_before
            and len(reasons) >= 2
        )
        details["quarantine"] = {
            "records": len(records),
            "reasons": sorted(reasons),
        }

    # -- supervised source: injected poll faults + a file rotation.
    with TemporaryDirectory(prefix="repro-chaos-follow-") as tmp:
        tmp = Path(tmp)
        arrivals = [a for batch in batches for a in batch]
        # 3/4 then 1/4: the rotated replacement is decidedly smaller than
        # the consumed offset, so the shrink check must fire.
        half = 3 * len(arrivals) // 4
        feed = write_arrival_file(tmp / "feed.txt", arrivals[:half])
        tail = FileTailSource(feed, strict=False)
        trainer = StreamTrainer(base, config, **trainer_kwargs(tmp))
        clock_now = [0.0]
        supervisor = FollowSupervisor(
            tail,
            poll_interval_s=0.0,
            backoff_initial_s=0.01,
            stall_deadline_s=60.0,
            faults=StreamFaultPlan(
                seed=seed, source_faults=(SourceFault(poll=1, errors=2),)
            ),
            seed=seed,
            sleep=lambda s: clock_now.__setitem__(0, clock_now[0] + s),
            clock=lambda: clock_now[0],
        )
        policy = TriggerPolicy(max_edges=max(1, half // 2))
        report1 = follow_stream(
            trainer, supervisor, policy, idle_exit_polls=3,
            n_iterations=n_iterations,
        )
        # Rotate: the feed is atomically replaced by a SHORTER file
        # holding only the tail of the stream.
        write_arrival_file(tmp / "feed.next", arrivals[half:])
        (tmp / "feed.next").replace(feed)
        report2 = follow_stream(
            trainer, supervisor, policy, idle_exit_polls=3,
            n_iterations=n_iterations,
        )
        version, keys, _ = _final_state(tmp / "work")
        invariants["source_retry_recovered"] = (
            supervisor.failures >= 2
            and supervisor.backoffs >= 2
            and tail.n_rotations >= 1
            and keys == ref_keys
            and version == ref_version
        )
        details["follow"] = {
            "polls": supervisor.polls,
            "failures": supervisor.failures,
            "rotations": tail.n_rotations,
            "generations": len(report1.generations) + len(report2.generations),
            "triggers": report1.triggers + report2.triggers,
            "drained": [report1.drained, report2.drained],
            "csr_matches_reference": version == ref_version,
        }

        # -- serving after the follow run: the published artifact answers
        # a query about a node that only exists because the stream ran.
        artifact = load_artifact(tmp / "artifact")
        server = ModelServer(
            artifact, n_workers=0, drift_window=4,
            history_path=tmp / "history",
        )
        try:
            new_node = graph.n_vertices - 1
            fut = server.membership(new_node)
            server.process_once()
            membership = fut.result(timeout=30)
            invariants["artifact_serves_after_resume"] = len(membership) > 0
        finally:
            server.close()
        details["serve"] = {
            "artifact_version": artifact.version,
            "queried_node": int(new_node),
        }

    report = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "seed": int(seed),
        "elapsed_s": time.perf_counter() - t0,
        "invariants": invariants,
        "passed": all(invariants.values()),
        "details": details,
    }
    return report


def report_rows(report: dict[str, Any]) -> list[str]:
    """Human-readable drill summary for the CLI."""
    ref = report["details"]["reference"]
    rows = [
        f"chaos-stream: {ref['n_edges']} edges, {ref['n_vertices']} vertices, "
        f"{ref['n_batches']} batches (quick={report['quick']}, "
        f"{report['elapsed_s']:.1f}s)",
    ]
    for name, ok in sorted(report["invariants"].items()):
        rows.append(f"  {name}: {'PASS' if ok else 'FAIL'}")
    rows.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return rows


# -- serving tier ------------------------------------------------------------


@dataclass(frozen=True)
class ServeWorkload:
    """Sizing of the serving drill's closed-loop client load."""

    n_vertices: int
    n_communities: int
    n_clients: int
    requests_per_client: int
    pairs_per_request: int
    pool_size: int  # distinct requests (Zipf-sampled -> cache hits)
    pipeline_depth: int = 8
    zipf_exponent: float = 1.1

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client


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
    errors: int = 0
    overloads: int = 0
    sheds: int = 0
    deadline_exceeded: int = 0
    error_types: set = field(default_factory=set)


def _client_loop(
    server, schedule: list[np.ndarray], depth: int, result: _ClientResult
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


def run_chaos_serve(quick: bool = True, seed: int = 2026) -> dict[str, Any]:
    """The serving chaos drill: a seeded fault plan against a live server.

    While the closed-loop clients hammer link-probability, the drill
    attempts four publishes: a container whose ``pi.npy`` is truncated
    (caught opening the member), one with two ``pi`` rows swapped (only
    the manifest's sha256 digest can catch it), a clean one whose swap
    fails mid-flight (rolls back to last-known-good), and a clean one
    that must install. Meanwhile the fault plan
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

    start = time.perf_counter()
    with TemporaryDirectory() as tmpdir:
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
                args=(server, schedules[c], w.pipeline_depth, results[c]),
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
            path = save_artifact(Path(tmpdir) / f"swap{attempt}", payload)
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
