"""``stream_*`` workloads: generations of ingest → retrain → hot-swap.

One timed operation is one generation, clocked the way a user of the
stream sees it: from just before ``trainer.ingest(batch)`` through
``run_generation`` and the server hot-swap to the first ``membership``
answer for the newest vertex, which only the new server generation can
give. The trainer is warm-started from a short batch run
(``StreamTrainer.from_checkpoint``); the spectral cold start is left out
on purpose (see README).
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path
from typing import Optional

import repro.stream.delta as delta_module
import repro.stream.trainer as trainer_module
from repro.core.checkpoint import save_state_checkpoint
from repro.core.sampler import AMMSBSampler
from repro.serve.artifact import load_artifact
from repro.serve.server import ModelServer
from repro.stream.source import SyntheticArrivalSource
from repro.stream.trainer import StreamTrainer

from e2e_bench.spec import StreamSize
from e2e_bench.trace import Tracer
from e2e_bench.train import heldout_of, make_inputs
from e2e_bench.util import Outcome, host_factor, state_digest, state_ok, summary, tree_bytes

ANSWER_TIMEOUT_S = 60.0


def _install(tracer: Tracer, trainer: StreamTrainer, server: ModelServer) -> None:
    """Spans around each layer the generation loop calls into."""

    def ingest_counts(t, _args, _kw, report):
        t.add("delta.accepted", report.accepted)
        t.add("delta.rejected", report.duplicates + report.quarantined)

    def traced_sampler(*args, **kwargs):
        with tracer.span("core.sampler.construct"):
            sampler = AMMSBSampler(*args, **kwargs)
        tracer.wrap(sampler, "run", "core.sampler.run")
        return sampler

    tracer.wrap(trainer, "ingest", "stream.trainer.ingest")
    tracer.wrap(trainer.journal, "append_edges", "stream.journal.append_edges")
    append_edges = trainer.journal.append_edges  # the span wrapper just installed

    def sized_append(*args, **kwargs):
        # journal GC shrinks the directory between generations, so the bytes an
        # append wrote are the growth across this one call
        before = tree_bytes(trainer.journal.directory)
        seqno = append_edges(*args, **kwargs)
        tracer.add("journal.bytes", tree_bytes(trainer.journal.directory) - before)
        return seqno

    tracer.replace(trainer.journal, "append_edges", sized_append)
    tracer.wrap(trainer.overlay, "ingest_pairs", "stream.delta.ingest_pairs", after=ingest_counts)
    tracer.wrap(trainer, "run_generation", "stream.trainer.run_generation")
    tracer.wrap(trainer.overlay, "compact", "stream.delta.compact")
    tracer.wrap(
        delta_module,
        "save_csr",
        "graph.io.save_csr",
        after=lambda t, args, _kw, _res: t.add("save_csr.bytes", tree_bytes(args[1])),
    )
    tracer.wrap(trainer.journal, "compact", "stream.journal.compact")
    tracer.wrap(server, "publish_path", "serve.server.publish_path")
    # names the trainer module imported from the other layers
    tracer.wrap(trainer_module, "split_heldout", "graph.split_heldout")
    tracer.wrap(trainer_module, "extend_state_informed", "core.init.extend_state_informed")
    tracer.wrap(
        trainer_module,
        "save_state_checkpoint",
        "core.checkpoint.save_state",
        after=lambda t, args, _kw, _res: t.add("checkpoint.bytes", tree_bytes(args[0])),
    )
    tracer.wrap(
        trainer_module,
        "export_artifact",
        "serve.artifact.export",
        after=lambda t, args, _kw, _res: t.add("export.bytes", tree_bytes(args[0])),
    )
    tracer.replace(trainer_module, "AMMSBSampler", traced_sampler)


class Workload:
    """Set-up (through generation 0) in ``__init__``; :meth:`measure` times
    the generations after it."""

    def __init__(self, size: StreamSize, seed: int, workdir: Path) -> None:
        self.size = size
        graph, config, self.generate_s = make_inputs(size, seed)
        host_factor()  # set-up takes ~10 s: read the host between its phases (run.py)
        source = SyntheticArrivalSource(graph, base_fraction=size.base_fraction, seed=seed)
        self.base = source.base_graph()
        self.arrivals = source.arrivals()
        # a long --seconds cannot ask for more generations than the stream holds
        self.n_generations = min(size.generations, len(self.arrivals) // size.arrivals_per_gen)

        # a batch run stands in for "yesterday's model"
        split = heldout_of(self.base, seed)
        batch = AMMSBSampler(split.train, config, heldout=split)
        batch.run(size.warm_iters)
        host_factor()
        checkpoint = save_state_checkpoint(
            workdir / "warm.npz", batch.state, batch.iteration, config
        )
        publish_path = workdir / "artifact"
        self.trainer = StreamTrainer.from_checkpoint(
            checkpoint,
            self.base,
            workdir / "stream",
            iterations_per_generation=size.iters_per_gen,
            heldout_fraction=0.01,
            heldout_max_links=5000,
            publish_path=publish_path,
        )
        self.trainer.run_generation(n_iterations=size.gen0_iters)  # generation 0
        # stall_timeout_s: a stalled host must not fence the worker, see serve.py
        self.server = ModelServer(
            load_artifact(publish_path), n_workers=1, stall_timeout_s=ANSWER_TIMEOUT_S
        )
        self.trainer.publish_callback = lambda path, _gen: self.server.publish_path(path)

    def close(self) -> None:
        self.server.close()
        self.trainer.journal.close()

    def measure(self, tracer: Optional[Tracer]) -> Outcome:
        size, trainer, server = self.size, self.trainer, self.server
        if tracer is not None:
            _install(tracer, trainer, server)
        generations: list[dict] = []
        sent = accepted = rejected = unpublished = 0
        served_new_vertex = True
        try:
            for g in range(1, self.n_generations + 1):
                batch = self.arrivals[(g - 1) * size.arrivals_per_gen : g * size.arrivals_per_gen]
                traced = tracer is not None and g % 2 == 1
                if tracer is not None:
                    tracer.enabled = traced
                    tracer.op = g
                n_before = trainer.overlay.base.n_vertices
                start = time.perf_counter()
                ingest = trainer.ingest(batch)
                report = trainer.run_generation()
                newest = report.n_vertices - 1
                answer = server.membership(newest).result(timeout=ANSWER_TIMEOUT_S)
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
                sent += len(batch)
                accepted += ingest.accepted
                rejected += ingest.duplicates + ingest.quarantined
                unpublished += not report.published
                # the newest vertex did not exist before this generation, so an
                # answer for it can only come from the artifact just published
                served_new_vertex &= (
                    newest >= n_before and len(answer) > 0 and server.generation == g
                )
                generations.append(
                    {
                        "generation": report.generation,
                        "arrival_to_servable_s": elapsed,
                        "train_s": report.train_seconds,
                        "perplexity": report.perplexity,
                        "n_new_nodes": report.n_new_nodes,
                        "accepted": ingest.accepted,
                        "traced": traced,
                    }
                )
            manifest = StreamTrainer.read_manifest(trainer.workdir)
            final = trainer.state
            final_edges = trainer.overlay.base.n_edges
        finally:
            if tracer is not None:
                tracer.restore()
            self.close()

        plain = [g["arrival_to_servable_s"] for g in generations if not g["traced"]]
        a2s = statistics.median(plain)
        layers: dict[str, float] = {}
        if tracer is not None:
            traced_gens = [g for g in generations if g["traced"]]
            layers = _layers(tracer, traced_gens)
            layers["graph.generate_s"] = self.generate_s
            layers["trace.overhead_ratio"] = a2s / statistics.median(
                g["arrival_to_servable_s"] for g in traced_gens
            )
        return Outcome(
            native={
                "arrival_to_servable_s": a2s,
                # pooled over the timed generations' held-out sets (equal sizes,
                # so the geometric mean of the reports): one report is a single
                # posterior sample on a fresh 1% split and moves ~20% by itself
                "heldout_perplexity": math.exp(
                    statistics.fmean(math.log(g["perplexity"]) for g in generations)
                ),
            },
            ops_per_s=1.0 / a2s,
            attempted=sent + self.n_generations,
            failed=unpublished,
            checks={
                "state_valid": state_ok(final),
                "sent_accounted": sent == accepted + rejected,
                "edges_accounted": final_edges == self.base.n_edges + accepted,
                "manifest_generation": manifest["generation"] == self.n_generations + 1,
                "all_published": unpublished == 0,
                "new_vertex_served_by_new_generation": bool(served_new_vertex),
                "perplexity_finite": all(
                    0 < g["perplexity"] < float("inf") for g in generations
                ),
            },
            layers=layers,
            detail={
                "state_digest": state_digest(final),
                "arrival_to_servable_s": summary(plain),
                "generations": generations,
                "sent": sent,
                "accepted": accepted,
                "rejected": rejected,
                "base_edges": self.base.n_edges,
                "final_edges": final_edges,
                "final_vertices": int(final.pi.shape[0]),
            },
        )


def _layers(tracer: Tracer, traced: list[dict]) -> dict[str, float]:
    totals = tracer.totals()
    counts = tracer.counts
    gens = len(traced)
    train_s = sum(g["train_s"] for g in traced)
    wall_s = sum(g["arrival_to_servable_s"] for g in traced)
    per_gen = {
        "graph.split_heldout.ms_per_gen": "graph.split_heldout",
        "graph.io.save_csr.ms_per_gen": "graph.io.save_csr",
        "core.init.extend_state_informed.ms_per_gen": "core.init.extend_state_informed",
        "core.checkpoint.save_state.ms_per_gen": "core.checkpoint.save_state",
        "stream.trainer.ingest.ms_per_gen": "stream.trainer.ingest",
        "stream.journal.append_edges.ms_per_gen": "stream.journal.append_edges",
        "stream.delta.ingest_pairs.ms_per_gen": "stream.delta.ingest_pairs",
        "stream.delta.compact.ms_per_gen": "stream.delta.compact",
        "stream.journal.compact.ms_per_gen": "stream.journal.compact",
        "serve.artifact.export.ms_per_gen": "serve.artifact.export",
    }
    out = {metric: totals.ms(span, gens) for metric, span in per_gen.items()}
    out.update(
        {
            "graph.io.save_csr.bytes_per_gen": counts["save_csr.bytes"] / gens,
            "core.checkpoint.save_state.bytes_per_gen": counts["checkpoint.bytes"] / gens,
            "stream.journal.append_edges.bytes_per_gen": counts["journal.bytes"] / gens,
            "stream.delta.accepted_per_gen": counts["delta.accepted"] / gens,
            "stream.delta.rejected_per_gen": counts["delta.rejected"] / gens,
            "stream.delta.compact.self_ms_per_gen": totals.self_ms("stream.delta.compact", gens),
            "stream.trainer.train.ms_per_gen": 1e3 * train_s / gens,
            "stream.trainer.train_share": train_s / wall_s,
            "stream.trainer.run_generation.self_ms_per_gen": totals.self_ms(
                "stream.trainer.run_generation", gens
            ),
            "serve.artifact.export.bytes_per_gen": counts["export.bytes"] / gens,
            "serve.server.publish_path.ms": totals.ms(
                "serve.server.publish_path", totals.count["serve.server.publish_path"]
            ),
        }
    )
    return out
