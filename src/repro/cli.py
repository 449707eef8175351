"""Command-line interface.

Subcommands:

- ``repro detect`` — detect overlapping communities in an edge-list file
  and write the covers;
- ``repro generate`` — write a synthetic SNAP stand-in (or a planted
  graph) as an edge list;
- ``repro benchmark`` — regenerate a paper figure/table on stdout;
- ``repro bench`` — run a microbenchmark suite (``kernels``: every
  registered kernel backend against ``reference``; ``store``: graph load
  and artifact cold start per storage format) and hold its same-run
  ratios to the floors in :mod:`repro.bench.gate`, exit 2 on a miss;
- ``repro convert-graph`` — convert an edge list or ``.npz`` graph into
  a memory-mappable CSR store container;
- ``repro calibrate`` — print the Table III calibration report;
- ``repro chaos`` — run the fault-injection drill (worker crash, DKV
  server stall, RDMA failures) against the multiprocess backend and
  report the recovery;
- ``repro chaos-serve`` — run the serving-tier chaos drill (corrupt
  publishes, mid-swap failure, worker-thread crash, latency spikes)
  against a live model server under load and assert the recovery
  invariants;
- ``repro query`` — answer one model query (membership / link /
  community / recommend) from a serving artifact;
- ``repro serve`` — stand up the micro-batching model server and answer
  a line protocol on stdin;
- ``repro chaos-stream`` — run the streaming durability drill (kill -9
  at every crash phase, torn journal writes, source I/O faults + file
  rotation) and assert the recovery invariants end to end;
- ``repro stream`` — replay a timestamped edge-arrival file through the
  streaming tier: ingest deltas, warm-start one training generation per
  batch, hot-swap each published artifact into a live in-process server,
  with ``--follow`` to keep tailing the file live under a retry/backoff
  supervisor and ``--resume`` to continue a crashed run from its
  write-ahead journal + manifest,
  and answer membership-drift queries;
- ``repro auc`` — held-out link-prediction AUC of a checkpoint or
  artifact;
- ``repro convert`` — rewrite a legacy ``.npz`` checkpoint, artifact or
  membership history as the store container every loader reads.

Checkpoints, artifacts and histories are store-container *directories*
(DESIGN.md "Persistence"); nothing reads a file suffix.

Examples::

    repro generate --dataset com-DBLP --scale 2e-3 --output dblp.txt
    repro detect --edges dblp.txt --communities 32 --iterations 4000 \\
        --output covers.txt --export-artifact dblp_model
    repro query --artifact dblp_model membership 17 --top 5
    repro auc --edges dblp.txt --artifact dblp_model
    repro benchmark --experiment fig1

An invalid argument value ends in one ``error: ...`` line on stderr and
exit code 2 (:class:`ArgumentError`) on the commands that check theirs
up front: ``bench``, ``chaos``, ``chaos-serve``, ``chaos-stream``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


class ArgumentError(ValueError):
    """An argument value no run can use; ``main`` prints it and exits 2."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ArgumentError(message)


def _require_seed_and_output(args: argparse.Namespace) -> None:
    """Reject before a long run what would only fail at its end."""
    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    if args.output:
        parent = Path(args.output).resolve().parent
        _require(parent.is_dir(), f"--output: no such directory {str(parent)!r}")


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.config import AMMSBConfig, StepSizeConfig
    from repro.core.estimation import PosteriorMean, extract_communities
    from repro.core.sampler import AMMSBSampler
    from repro.graph.io import load_edge_list
    from repro.graph.split import split_heldout

    graph = load_edge_list(args.edges)
    print(f"loaded {graph}", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    split = split_heldout(graph, args.heldout_fraction, rng)
    config = AMMSBConfig(
        n_communities=args.communities,
        mini_batch_vertices=args.mini_batch,
        neighbor_sample_size=args.neighbors,
        step_phi=StepSizeConfig(a=args.step),
        step_theta=StepSizeConfig(a=args.step),
        seed=args.seed,
    )
    if args.resume:
        from repro.core.checkpoint import CheckpointError, load_checkpoint

        try:
            sampler = load_checkpoint(args.resume, split.train, heldout=split)
        except CheckpointError as exc:
            print(f"cannot load checkpoint: {exc}", file=sys.stderr)
            return 3
        print(f"resumed from {args.resume} at iteration {sampler.iteration}",
              file=sys.stderr)
    else:
        sampler = AMMSBSampler(split.train, config, heldout=split)
    posterior = PosteriorMean(graph.n_vertices, args.communities)
    report_every = max(1, args.iterations // 10)
    sample_from = int(args.iterations * 0.75)
    while sampler.iteration < args.iterations:
        sampler.run(report_every, perplexity_every=50)
        if sampler.iteration >= sample_from:
            posterior.record(sampler.state.pi, sampler.state.beta)
        print(
            f"iter {sampler.iteration:6d} perplexity "
            f"{sampler.perplexity_estimator.value():.4f}",
            file=sys.stderr,
        )
        if args.checkpoint:
            from repro.core.checkpoint import save_checkpoint

            save_checkpoint(args.checkpoint, sampler)
    if posterior.n_samples == 0:
        posterior.record(sampler.state.pi, sampler.state.beta)
    if args.export_artifact:
        from repro.serve.artifact import export_from_sampler

        export_from_sampler(args.export_artifact, sampler)
        print(f"exported serving artifact to {args.export_artifact}",
              file=sys.stderr)
    covers = extract_communities(posterior.pi, threshold=args.threshold)
    out = Path(args.output) if args.output else None
    lines = [" ".join(str(int(v)) for v in c) for c in covers]
    text = "\n".join(lines) + "\n"
    if out:
        out.write_text(text)
        print(f"wrote {len(covers)} communities to {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph.datasets import DATASETS, load_dataset
    from repro.graph.generators import planted_overlapping_graph
    from repro.graph.io import save_edge_list

    if args.dataset:
        if args.dataset not in DATASETS:
            print(f"unknown dataset {args.dataset!r}; known: {sorted(DATASETS)}",
                  file=sys.stderr)
            return 2
        graph, truth, spec = load_dataset(args.dataset, scale=args.scale)
        header = (f"{spec.name} synthetic stand-in, scale={args.scale}, "
                  f"K={truth.n_communities}")
    else:
        rng = np.random.default_rng(args.seed)
        graph, truth = planted_overlapping_graph(
            args.vertices, args.communities, memberships_per_vertex=2, rng=rng
        )
        header = (f"planted overlapping graph, N={args.vertices}, "
                  f"K={args.communities}")
    save_edge_list(graph, args.output, header=header)
    print(f"wrote {graph} to {args.output}", file=sys.stderr)
    return 0


EXPERIMENTS = {
    "table2": ("table2", "Table II: datasets"),
    "fig1": ("fig1_strong_scaling", "Figure 1: strong scaling"),
    "fig2": ("fig2_weak_scaling", "Figure 2: weak scaling"),
    "fig3": ("fig3_pipeline", "Figure 3: pipelining"),
    "table3": ("table3_breakdown", "Table III: stage breakdown"),
    "fig4a": ("fig4a_vertical_dblp", "Figure 4-a: vertical scaling (com-DBLP)"),
    "fig4b": ("fig4b_horizontal_vs_vertical", "Figure 4-b: 64 nodes vs 40 cores"),
    "fig5": ("fig5_dkv_vs_qperf", "Figure 5: DKV vs qperf"),
    "chunks": ("ablation_pipeline_chunks", "Ablation: pipeline chunks"),
    "edges": ("ablation_edge_placement", "Ablation: edge placement"),
}


def _write_csv(rows: list[dict], path: str) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _cmd_benchmark(args: argparse.Namespace) -> int:
    from repro.bench import figures
    from repro.bench.harness import format_table

    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; known: "
              f"{sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    fn_name, title = EXPERIMENTS[args.experiment]
    rows = getattr(figures, fn_name)()
    print(format_table(rows, title=title))
    if args.csv:
        _write_csv(rows, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run one microbenchmark suite; exit 2 if it misses a floor."""
    from repro.bench import gate, kernbench, storebench
    from repro.bench.harness import format_table

    _require_seed_and_output(args)
    if args.suite == "kernels":
        report = kernbench.run_kernel_bench(seed=args.seed)
        measured = kernbench.report_rows(report)
    else:
        report = storebench.run_store_bench(seed=args.seed)
        measured = storebench.report_rows(report)
    print(format_table(measured, title=f"bench {args.suite}"))
    if args.output:
        gate.save_report(report, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    rows = gate.check(report)
    print(format_table(rows, title="floors"))
    missed = [r["metric"] for r in rows if not r["ok"]]
    if missed:
        print(f"FAIL: floor(s) missed: {', '.join(missed)}", file=sys.stderr)
        return 2
    print(f"ok: {len(rows)} of {len(rows)} {args.suite} floors met", file=sys.stderr)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Replay — or live-tail — a timestamped edge file through the
    streaming loop.

    Replay (default): the earliest ``--base-fraction`` of arrivals
    becomes the base graph; generation 0 cold-starts on it. The
    remaining arrivals are split into ``--generations`` batches, each
    ingested and warm-start retrained for ``--iterations`` SG-MCMC
    steps, publishing a serving artifact that a live in-process
    :class:`~repro.serve.server.ModelServer` hot-swaps. ``--drift``
    nodes get their cross-generation ``membership_drift`` answer
    (aligned community labels) printed as JSON at the end.

    ``--follow``: keep tailing the file after the initial contents,
    under a retry/backoff supervisor (``--poll-interval``,
    ``--stall-deadline``), firing a generation when a trigger policy
    says so (``--trigger-edges`` / ``--trigger-seconds`` /
    ``--trigger-drift``; none armed = every non-empty poll). SIGTERM or
    Ctrl-C drains: one final generation flushes the pending delta, the
    journal compacts, and the manifest is left current.

    ``--resume``: continue a crashed or stopped run from the workdir's
    manifest + write-ahead journal instead of starting fresh (the file
    is re-read from the top; the overlay dedups the overlap).
    """
    import json

    from repro.config import AMMSBConfig
    from repro.graph.graph import Graph
    from repro.serve.artifact import load_artifact
    from repro.serve.server import ModelServer
    from repro.stream import (
        FileTailSource,
        FollowSupervisor,
        ResumeError,
        SourceStalled,
        StreamTrainer,
        TriggerPolicy,
        follow_stream,
    )

    workdir = Path(args.workdir)
    history_path = (
        Path(args.history) if args.history else workdir / "history"
    )

    def _report(rep, trigger: str = "") -> None:
        extra = ("" if rep.published
                 else f"  (publish skipped: {rep.publish_error})")
        if trigger:
            extra += f"  [trigger: {trigger}]"
        ing = rep.ingest
        print(f"generation {rep.generation}: N={rep.n_vertices} "
              f"E={rep.n_edges} (+{rep.n_new_nodes} nodes, "
              f"+{ing.accepted} edges, {ing.duplicates} dup, "
              f"{ing.quarantined} quarantined) "
              f"perplexity {rep.perplexity:.4f} "
              f"in {rep.train_seconds:.2f}s{extra}")

    source = FileTailSource(args.edges, strict=False)

    if args.resume:
        try:
            trainer = StreamTrainer.resume(
                workdir,
                iterations_per_generation=args.iterations,
                engine="mp" if args.workers > 0 else "sequential",
                n_workers=args.workers,
                history_path=history_path,
            )
        except ResumeError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        print(f"resumed generation {trainer.generation} from {workdir} "
              f"(journal seqno {trainer.journal.last_seqno}, "
              f"{trainer.overlay.n_pending} pending edges)", file=sys.stderr)
        arrivals = source.read_all()
    else:
        arrivals = source.read_all()
        if len(arrivals) < 2:
            print(f"{args.edges}: need at least 2 arrivals to replay",
                  file=sys.stderr)
            return 2
        arrivals.sort(key=lambda a: a.timestamp)
        # In follow mode everything already on disk is the base; the
        # stream is what arrives after we start tailing.
        base_fraction = 1.0 if args.follow else args.base_fraction
        n_base = max(1, min(len(arrivals) - (0 if args.follow else 1),
                            int(len(arrivals) * base_fraction)))
        base_pairs = np.array(
            [(a.src, a.dst) for a in arrivals[:n_base]], dtype=np.int64
        )
        lo = np.minimum(base_pairs[:, 0], base_pairs[:, 1])
        hi = np.maximum(base_pairs[:, 0], base_pairs[:, 1])
        keep = (lo != hi) & (lo >= 0)
        if not keep.any():
            print("base prefix has no usable edges (self-loops / bad ids only)",
                  file=sys.stderr)
            return 2
        edges = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
        base = Graph(int(edges[:, 1].max()) + 1, edges)

        config = AMMSBConfig(n_communities=args.communities, seed=args.seed)
        publish_path = (
            Path(args.artifact) if args.artifact else workdir / "artifact"
        )
        try:
            trainer = StreamTrainer(
                base,
                config,
                workdir,
                iterations_per_generation=args.iterations,
                publish_path=publish_path,
                engine="mp" if args.workers > 0 else "sequential",
                n_workers=args.workers,
                history_path=history_path,
            )
        except ResumeError as exc:
            print(f"{exc}\n(use --resume to continue it)", file=sys.stderr)
            return 2
        arrivals = arrivals[n_base:]
        print(f"base {base}; {len(arrivals)} arrival(s) pending",
              file=sys.stderr)
        _report(trainer.run_generation())

    if source.n_malformed:
        print(f"skipped {source.n_malformed} malformed line(s)",
              file=sys.stderr)

    artifact_path = trainer.last_published or trainer.publish_path
    if artifact_path is None or not Path(artifact_path).exists():
        print(f"no serving artifact at {artifact_path}; "
              f"run at least one generation first", file=sys.stderr)
        return 2
    server = ModelServer(
        load_artifact(artifact_path), n_workers=0,
        drift_window=args.drift_window, history_path=history_path,
    )
    status = 0
    try:
        trainer.publish_callback = lambda path, gen: server.publish_path(path)
        if args.follow:
            if arrivals:  # pre-follow backlog (resume re-read)
                trainer.ingest(arrivals)
            policy = TriggerPolicy(
                max_edges=args.trigger_edges,
                max_seconds=args.trigger_seconds,
                drift_threshold=args.trigger_drift,
            )
            supervisor = FollowSupervisor(
                source,
                poll_interval_s=args.poll_interval,
                stall_deadline_s=args.stall_deadline,
                seed=args.seed,
            )
            armed = (
                f"edges>={policy.max_edges} " if policy.max_edges else ""
            ) + (
                f"every {policy.max_seconds}s " if policy.max_seconds else ""
            ) + (
                f"drift>={policy.drift_threshold} "
                if policy.drift_threshold else ""
            )
            print(f"following {args.edges} "
                  f"(triggers: {armed.strip() or 'every non-empty poll'}); "
                  f"SIGTERM/Ctrl-C drains and exits", file=sys.stderr)
            try:
                follow = follow_stream(
                    trainer,
                    supervisor,
                    policy,
                    max_generations=args.max_generations,
                    max_wall_s=args.max_seconds,
                    install_signal_handlers=True,
                    on_generation=_report,
                )
            except SourceStalled as exc:
                print(f"source stalled: {exc}", file=sys.stderr)
                status = 3
            else:
                print(f"follow ended ({follow.stop_reason}): "
                      f"{follow.polls} polls, {follow.arrivals} arrivals, "
                      f"{len(follow.generations)} generation(s)"
                      f"{', drained' if follow.drained else ''}",
                      file=sys.stderr)
        else:
            if arrivals:
                chunks = np.array_split(
                    np.arange(len(arrivals)), args.generations
                )
                for chunk in chunks:
                    _report(trainer.run_generation(
                        [arrivals[i] for i in chunk]
                    ))
        for node in args.drift:
            fut = server.membership_drift(int(node))
            server.process_once()
            try:
                print(json.dumps(fut.result(timeout=30), sort_keys=True))
            except KeyError as exc:
                print(f"drift {node}: {exc}", file=sys.stderr)
    finally:
        server.close()
    n_quarantined = len(trainer.quarantine_log)
    if n_quarantined:
        print(f"quarantined: {n_quarantined} record(s) persisted in "
              f"{trainer.quarantine_log.path}", file=sys.stderr)
    print(f"final artifact: {trainer.last_published} "
          f"(journal + manifest + checkpoints under {workdir}; "
          f"resume with --resume)", file=sys.stderr)
    return status


def _cmd_chaos_stream(args: argparse.Namespace) -> int:
    """Run the streaming chaos drill; exit 2 if any invariant fails."""
    from repro.bench import chaosbench, gate

    _require_seed_and_output(args)
    report = chaosbench.run_chaos_stream(quick=args.quick, seed=args.seed)
    for line in chaosbench.report_rows(report):
        print(line)
    if args.output:
        gate.save_report(report, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    if not report["passed"]:
        failed = [k for k, ok in report["invariants"].items() if not ok]
        print(f"FAIL: invariant(s) violated: {failed}", file=sys.stderr)
        return 2
    print("ok: all durability invariants held", file=sys.stderr)
    return 0


def _cmd_convert_graph(args: argparse.Namespace) -> int:
    """Convert an edge list / NPZ graph into a mapped CSR container."""
    from repro.graph.io import convert_graph

    graph = convert_graph(args.input, args.output, n_vertices=args.vertices)
    print(f"wrote {graph} as CSR container to {args.output}", file=sys.stderr)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    """Rewrite one legacy ``.npz`` model file as a store container."""
    from repro.legacy import ConvertError, convert

    try:
        kind, dst = convert(args.src, args.dst)
    except ConvertError as exc:
        print(f"cannot convert: {exc}", file=sys.stderr)
        return 3
    print(f"converted {kind} {args.src} to container {dst}", file=sys.stderr)
    return 0


def _cmd_calibrate(_args: argparse.Namespace) -> int:
    from repro.bench.calibrate import calibration_report, max_relative_error
    from repro.bench.harness import format_table

    print(format_table(calibration_report(), title="Table III calibration"))
    print(f"\nmax relative error: {max_relative_error():.1%}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection drill: prove a run survives the chaos plan.

    Runs the real multiprocess backend under a seeded
    :class:`~repro.faults.FaultPlan` (one worker crash + background
    faults), then replays the plan's DKV server stall on the simulated
    cluster to show the stale-read degradation accounting.
    """
    from repro.cluster.spec import das5
    from repro.config import AMMSBConfig, StepSizeConfig
    from repro.dist.mp import MultiprocessAMMSBSampler
    from repro.dist.sampler import DistributedAMMSBSampler
    from repro.faults import FaultPlan, chaos_plan
    from repro.graph.generators import planted_overlapping_graph
    from repro.graph.split import split_heldout

    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    _require(args.iterations >= 1,
             f"--iterations must be >= 1, got {args.iterations}")
    _require(args.heartbeat_timeout > 0,
             f"--heartbeat-timeout must be > 0, got {args.heartbeat_timeout}")
    try:  # the library's own range checks on sizes, worker count and rates
        rng = np.random.default_rng(args.seed)
        graph, _ = planted_overlapping_graph(
            args.vertices, args.communities, memberships_per_vertex=2, rng=rng
        )
        split = split_heldout(graph, 0.03, np.random.default_rng(args.seed + 1))
        config = AMMSBConfig(
            n_communities=args.communities,
            mini_batch_vertices=max(16, args.vertices // 8),
            neighbor_sample_size=16,
            step_phi=StepSizeConfig(a=0.05),
            step_theta=StepSizeConfig(a=0.05),
            seed=args.seed,
        )
        plan = chaos_plan(
            seed=args.seed,
            n_workers=args.workers,
            crash_iteration=max(1, args.iterations // 3),
            rdma_failure_rate=args.rdma_failure_rate,
        )
    except ValueError as exc:
        raise ArgumentError(str(exc)) from None
    print(f"drill plan: {plan.describe()}", file=sys.stderr)

    print("== multiprocess backend: crash + repartition ==")
    with MultiprocessAMMSBSampler(
        split.train,
        config,
        n_workers=args.workers,
        heldout=split,
        faults=plan,
        heartbeat_timeout=args.heartbeat_timeout,
    ) as s:
        s.run(args.iterations)
        perp = s.evaluate_perplexity()
        for ev in s.recoveries:
            kind = "stall-fenced" if ev.stalled else "crash"
            print(f"  iteration {ev.iteration}: lost worker(s) {list(ev.workers)} "
                  f"({kind}); re-partitioned across survivors")
        print(f"  completed {s.iteration} iterations on "
              f"{len(s.active_workers)}/{args.workers} workers, "
              f"perplexity {perp:.4f}")
        s.state_snapshot().validate()

    print("== simulated cluster: DKV stall + stale-read degradation ==")
    sim_plan = FaultPlan(seed=plan.seed, server_stalls=plan.server_stalls)
    clean = DistributedAMMSBSampler(
        split.train, config, cluster=das5(args.workers)
    )
    armed = DistributedAMMSBSampler(
        split.train, config, cluster=das5(args.workers), faults=sim_plan
    )
    clean.run(args.iterations)
    armed.run(args.iterations)
    fs = armed.dkv.fault_stats
    print(f"  timeouts={fs.timeouts} retries={fs.retries} "
          f"stale_batches={fs.stale_batches} dropped_writes={fs.dropped_writes} "
          f"breaker_opens={fs.breaker_opens} max_staleness={fs.max_staleness}")
    print(f"  simulated time {clean.timing.total_seconds:.4f}s clean -> "
          f"{armed.timing.total_seconds:.4f}s degraded")
    print("drill passed: no hang, run completed under faults")
    return 0


def _format_probs(pairs: np.ndarray, probs: np.ndarray) -> str:
    return "\n".join(
        f"{int(a)} {int(b)} {p:.6g}" for (a, b), p in zip(pairs, probs)
    )


def _cmd_query(args: argparse.Namespace) -> int:
    """One-shot query against a serving artifact (no server needed)."""
    from repro.serve.artifact import ArtifactError, load_artifact
    from repro.serve.engine import QueryEngine

    try:
        artifact = load_artifact(args.artifact)
    except ArtifactError as exc:
        print(f"cannot load artifact: {exc}", file=sys.stderr)
        return 3
    engine = QueryEngine(artifact, backend=args.backend)
    op, operands = args.op, [int(v) for v in args.args]

    if op == "membership":
        if len(operands) != 1:
            print("usage: repro query ... membership NODE", file=sys.stderr)
            return 2
        for community, weight in engine.membership(operands[0], args.top):
            print(f"{community} {weight:.6g}")
    elif op == "link":
        if not operands or len(operands) % 2:
            print("usage: repro query ... link A B [A B ...]", file=sys.stderr)
            return 2
        pairs = np.asarray(operands, dtype=np.int64).reshape(-1, 2)
        print(_format_probs(pairs, engine.link_probability(pairs)))
    elif op == "community":
        if len(operands) != 1:
            print("usage: repro query ... community K", file=sys.stderr)
            return 2
        for node, weight in engine.community_members(operands[0], args.top):
            print(f"{node} {weight:.6g}")
    elif op == "recommend":
        if len(operands) != 1:
            print("usage: repro query ... recommend NODE", file=sys.stderr)
            return 2
        for node, score in engine.recommend_edges(operands[0], args.top):
            print(f"{node} {score:.6g}")
    else:  # pragma: no cover - argparse choices filter this
        print(f"unknown op {op!r}", file=sys.stderr)
        return 2
    return 0


def _serve_dispatch(server, line: str) -> str:
    """Answer one line of the ``repro serve`` protocol; raises on bad input."""
    import json

    parts = line.split()
    cmd, rest = parts[0], [int(v) for v in parts[1:]]
    if cmd == "link":
        if not rest or len(rest) % 2:
            raise ValueError("usage: link A B [A B ...]")
        pairs = np.asarray(rest, dtype=np.int64).reshape(-1, 2)
        probs = server.query("link_probability", pairs)
        return _format_probs(pairs, probs)
    if cmd == "membership":
        if len(rest) not in (1, 2):
            raise ValueError("usage: membership NODE [K]")
        ranked = server.query("membership", rest[0], rest[1] if len(rest) > 1 else None)
        return "\n".join(f"{c} {w:.6g}" for c, w in ranked)
    if cmd == "community":
        if len(rest) not in (1, 2):
            raise ValueError("usage: community K [N]")
        ranked = server.query(
            "community_members", rest[0], rest[1] if len(rest) > 1 else 10
        )
        return "\n".join(f"{n} {w:.6g}" for n, w in ranked)
    if cmd == "recommend":
        if len(rest) not in (1, 2):
            raise ValueError("usage: recommend NODE [N]")
        ranked = server.query(
            "recommend_edges", rest[0], rest[1] if len(rest) > 1 else 10
        )
        return "\n".join(f"{n} {s:.6g}" for n, s in ranked)
    if cmd == "drift":
        if len(rest) not in (1, 2):
            raise ValueError("usage: drift NODE [LAST]")
        drift = server.query(
            "membership_drift", rest[0], rest[1] if len(rest) > 1 else None
        )
        return json.dumps(drift, indent=2, sort_keys=True)
    if cmd == "stats":
        return json.dumps(server.stats(), indent=2, sort_keys=True)
    if cmd == "health":
        return json.dumps(server.health(), indent=2, sort_keys=True)
    raise ValueError(
        f"unknown command {cmd!r}; known: link membership community "
        f"recommend drift stats health quit"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve an artifact over a stdin/stdout line protocol.

    Protocol: ``link A B [A B ...]`` | ``membership NODE [K]`` |
    ``community K [N]`` | ``recommend NODE [N]`` | ``drift NODE [LAST]``
    | ``stats`` | ``quit``. Errors are reported per line; the server
    keeps running. ``drift`` needs ``--drift-window`` > 0.
    """
    from repro.serve.artifact import ArtifactError, load_artifact
    from repro.serve.server import ModelServer, ShedPolicy

    try:
        artifact = load_artifact(args.artifact)
    except ArtifactError as exc:
        print(f"cannot load artifact: {exc}", file=sys.stderr)
        return 3
    shed_policy = (
        ShedPolicy(slo_p99_ms=args.slo_p99_ms)
        if args.slo_p99_ms is not None
        else None
    )
    with ModelServer(
        artifact,
        n_workers=args.workers,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        default_deadline_ms=args.deadline_ms,
        shed_policy=shed_policy,
        drift_window=args.drift_window,
        history_path=args.history,
    ) as server:
        print(
            f"serving {artifact.n_nodes} nodes x {artifact.n_communities} "
            f"communities (artifact {artifact.version}); type 'quit' to exit",
            file=sys.stderr,
        )
        for raw in sys.stdin:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "quit":
                break
            try:
                print(_serve_dispatch(server, line))
            except Exception as exc:  # noqa: BLE001 - interactive loop
                print(f"error: {exc}", file=sys.stderr)
            sys.stdout.flush()
    return 0


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    """Serving-tier chaos drill: corrupt publishes, a mid-swap failure,
    a worker-thread crash, and latency spikes against a live server
    under load; exit 2 unless every recovery invariant holds."""
    from repro.bench import chaosbench, gate
    from repro.bench.harness import format_table

    _require_seed_and_output(args)
    report = chaosbench.run_chaos_serve(quick=args.quick, seed=args.seed)
    print(f"drill plan: {report['plan']}", file=sys.stderr)
    print(format_table(
        chaosbench.chaos_report_rows(report), title="Serving chaos drill"
    ))
    if args.output:
        gate.save_report(report, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    if not report["passed"]:
        failed = [k for k, ok in report["invariants"].items() if not ok]
        print(f"FAIL: recovery invariant(s) violated: {failed}", file=sys.stderr)
        return 2
    print("drill passed: server survived corruption, rollback, crash, "
          "and deadlines with typed errors only", file=sys.stderr)
    return 0


def _cmd_auc(args: argparse.Namespace) -> int:
    """Held-out link-prediction AUC of a checkpoint or serving artifact."""
    from repro.core.perplexity import link_prediction_auc
    from repro.graph.io import load_edge_list
    from repro.graph.split import split_heldout

    if (args.checkpoint is None) == (args.artifact is None):
        print("exactly one of --checkpoint / --artifact is required",
              file=sys.stderr)
        return 2
    if args.checkpoint:
        from repro.core.checkpoint import CheckpointError, load_state_checkpoint

        try:
            state, iteration, config = load_state_checkpoint(args.checkpoint)
        except CheckpointError as exc:
            print(f"cannot load checkpoint: {exc}", file=sys.stderr)
            return 3
        pi, beta, delta = state.pi, state.beta, config.delta
        source = f"checkpoint {args.checkpoint} (iteration {iteration})"
    else:
        from repro.serve.artifact import ArtifactError, load_artifact

        try:
            artifact = load_artifact(args.artifact)
        except ArtifactError as exc:
            print(f"cannot load artifact: {exc}", file=sys.stderr)
            return 3
        pi, beta, delta = artifact.pi, artifact.beta, artifact.config.delta
        source = f"artifact {args.artifact} (version {artifact.version})"

    graph = load_edge_list(args.edges)
    if graph.n_vertices > pi.shape[0]:
        print(f"graph has {graph.n_vertices} vertices but the model covers "
              f"{pi.shape[0]}", file=sys.stderr)
        return 2
    split = split_heldout(
        graph, args.heldout_fraction, np.random.default_rng(args.seed)
    )
    auc = link_prediction_auc(
        pi, beta, split.heldout_pairs, split.heldout_labels, delta
    )
    print(f"AUC {auc:.4f} ({split.n_links} held-out links, "
          f"{len(split.heldout_pairs) - split.n_links} non-links, {source})",
          file=sys.stderr)
    print(f"{auc:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable overlapping community detection (IPPS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect communities in an edge list")
    p.add_argument("--edges", required=True, help="edge-list file (SNAP format)")
    p.add_argument("--communities", "-k", type=int, required=True)
    p.add_argument("--iterations", type=int, default=4000)
    p.add_argument("--mini-batch", type=int, default=128)
    p.add_argument("--neighbors", type=int, default=32)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--heldout-fraction", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None, help="covers file (default stdout)")
    p.add_argument("--checkpoint", default=None,
                   help="write a resumable checkpoint here after each report")
    p.add_argument("--resume", default=None,
                   help="resume from a --checkpoint container")
    p.add_argument("--export-artifact", default=None,
                   help="also export a serving artifact (a container "
                        "directory) of the final state")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("generate", help="write a synthetic graph edge list")
    p.add_argument("--dataset", default=None, help="Table II name for a stand-in")
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--vertices", type=int, default=400)
    p.add_argument("--communities", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("benchmark", help="regenerate a paper figure/table")
    p.add_argument("--experiment", "-e", required=True,
                   help=f"one of {sorted(EXPERIMENTS)}")
    p.add_argument("--csv", default=None, help="also write the rows as CSV")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("bench",
                       help="run a microbenchmark suite against its floors")
    p.add_argument("suite", choices=["kernels", "store"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None,
                   help="write the machine-readable report JSON here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("convert-graph",
                       help="convert an edge list / NPZ into a CSR container")
    p.add_argument("--input", "-i", required=True,
                   help="edge-list file (SNAP format) or .npz graph")
    p.add_argument("--output", "-o", required=True,
                   help="container directory to write (e.g. graph.csr)")
    p.add_argument("--vertices", type=int, default=None,
                   help="vertex-id space if the edge list is sparse in ids "
                        "(default: inferred, ids are densely remapped)")
    p.set_defaults(func=_cmd_convert_graph)

    p = sub.add_parser("convert",
                       help="rewrite a legacy .npz checkpoint / artifact / "
                            "history as a store container")
    p.add_argument("src", metavar="SRC", help="legacy .npz model file")
    p.add_argument("dst", metavar="DST",
                   help="container directory to write (must not exist)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("calibrate", help="print the Table III calibration report")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("query", help="one-shot query against a serving artifact")
    p.add_argument("--artifact", required=True, help="serving artifact container")
    p.add_argument("--backend", default=None,
                   help="kernel backend override (default: artifact config)")
    p.add_argument("--top", type=int, default=10,
                   help="result count for ranked ops (default 10)")
    p.add_argument("op", choices=["membership", "link", "community", "recommend"])
    p.add_argument("args", nargs="*", help="op operands (node/community ids)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("serve",
                       help="serve an artifact over a stdin line protocol")
    p.add_argument("--artifact", required=True, help="serving artifact container")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--max-batch", type=int, default=64)
    p.add_argument("--max-delay-ms", type=float, default=1.0)
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="fail requests queued longer than this (default: none)")
    p.add_argument("--slo-p99-ms", type=float, default=None,
                   help="enable SLO load shedding at this p99 target "
                        "(default: shedding off)")
    p.add_argument("--history", default=None,
                   help="membership-history checkpoint to reload/persist "
                        "(survives server restarts; needs --drift-window)")
    p.add_argument("--drift-window", type=int, default=0,
                   help="retain this many generations of membership "
                        "history for 'drift' queries (default: off)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("stream",
                       help="replay a timestamped edge file through the "
                            "streaming train-to-serve loop")
    p.add_argument("--edges", required=True,
                   help="arrival file: 'src dst' or 'ts src dst' lines")
    p.add_argument("--communities", "-k", type=int, required=True)
    p.add_argument("--iterations", type=int, default=200,
                   help="training budget per generation (default 200)")
    p.add_argument("--generations", type=int, default=2,
                   help="batches the post-base arrivals split into")
    p.add_argument("--base-fraction", type=float, default=0.9,
                   help="arrival prefix forming the warm-start base graph")
    p.add_argument("--workdir", default="stream-work",
                   help="per-generation CSR and model containers")
    p.add_argument("--artifact", default=None,
                   help="published artifact path: a container directory of "
                        "hard links to the newest generation's model container, "
                        "(default: WORKDIR/artifact)")
    p.add_argument("--workers", type=int, default=0,
                   help="mp-engine worker count (0 = in-process sequential)")
    p.add_argument("--drift-window", type=int, default=8,
                   help="generations of membership history retained")
    p.add_argument("--follow", action="store_true",
                   help="keep tailing the file live under the retry "
                        "supervisor (SIGTERM/Ctrl-C drains and exits)")
    p.add_argument("--resume", action="store_true",
                   help="continue a crashed/stopped run from the workdir's "
                        "manifest + write-ahead journal")
    p.add_argument("--trigger-edges", type=int, default=None,
                   help="follow: retrain once this many novel edges pend")
    p.add_argument("--trigger-seconds", type=float, default=None,
                   help="follow: retrain after this much wall time with "
                        "anything pending")
    p.add_argument("--trigger-drift", type=float, default=None,
                   help="follow: retrain once pending edges exceed this "
                        "fraction of the base graph's edges")
    p.add_argument("--poll-interval", type=float, default=0.5,
                   help="follow: sleep between empty polls (seconds)")
    p.add_argument("--stall-deadline", type=float, default=30.0,
                   help="follow: give up after the source has been "
                        "unreadable this long (seconds)")
    p.add_argument("--max-generations", type=int, default=None,
                   help="follow: stop after this many generations")
    p.add_argument("--max-seconds", type=float, default=None,
                   help="follow: stop after this much wall time")
    p.add_argument("--history", default=None,
                   help="membership-history container path "
                        "(default: WORKDIR/history)")
    p.add_argument("--drift", nargs="*", type=int, default=[],
                   help="nodes to print membership_drift JSON for at the end")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("auc", help="held-out link-prediction AUC")
    p.add_argument("--edges", required=True, help="edge-list file (SNAP format)")
    p.add_argument("--checkpoint", default=None, help="model checkpoint container")
    p.add_argument("--artifact", default=None, help="serving artifact container")
    p.add_argument("--heldout-fraction", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_auc)

    p = sub.add_parser("chaos", help="run the fault-injection drill")
    p.add_argument("--vertices", type=int, default=200)
    p.add_argument("--communities", "-k", type=int, default=4)
    p.add_argument("--workers", type=int, default=3)
    p.add_argument("--iterations", type=int, default=9)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--rdma-failure-rate", type=float, default=0.05)
    p.add_argument("--heartbeat-timeout", type=float, default=15.0)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("chaos-stream",
                       help="run the streaming durability chaos drill")
    p.add_argument("--quick", action="store_true",
                   help="smaller graph (CI-sized; same fault coverage)")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--output", "-o", default=None,
                   help="also write the drill report as JSON")
    p.set_defaults(func=_cmd_chaos_stream)

    p = sub.add_parser("chaos-serve",
                       help="run the serving-tier chaos drill")
    p.add_argument("--quick", action="store_true",
                   help="smaller load (for CI)")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--output", "-o", default=None,
                   help="write the machine-readable drill report JSON here")
    p.set_defaults(func=_cmd_chaos_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - direct execution
    raise SystemExit(main())
