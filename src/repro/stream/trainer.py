"""Generation loop: ingest a delta, warm-start retrain, publish, repeat.

:class:`StreamTrainer` is the continuous half of the train-to-serve
loop. Each :meth:`~StreamTrainer.run_generation`:

1. **ingests** the generation's arrivals into the
   :class:`~repro.stream.delta.DeltaOverlay` (malformed records are
   quarantined, not fatal — the stream must survive dirty input);
2. **compacts** overlay + base into a fresh CSR container under the
   trainer's workdir, the graph this generation trains on and later
   consumers memory-map;
3. **warm-starts**: the previous generation's state is grown to the new
   vertex count by :func:`repro.core.init.extend_state_informed`
   (neighbor-averaged rows for new nodes), and the sampler's iteration
   counter continues from where the stream left off — so the step-size
   schedule resumes on its annealed tail instead of re-running burn-in.
   Generation 0 cold-starts from
   :func:`repro.core.init.init_state_spectral` (successive projections),
   falling back to random init on degenerate graphs;
4. **trains** a bounded number of iterations — sequentially, or on the
   multiprocess backend (``engine="mp"``);
5. **persists** the state once — one sealed :mod:`repro.store`
   container ``model_gNNNN.store`` that is both the generation's
   checkpoint and its serving artifact
   (:func:`repro.serve.artifact.export_state_artifact`: the state's own
   ``pi`` rows, ``phi_sum``, ``theta`` and the serving members) — and
   then **publishes** it by hard link
   (:func:`repro.store.link_container`: ``publish_path`` becomes a
   directory of links to the container's files, zero N*K bytes moved),
   in that order on either engine. An injected publish failure
   (:class:`repro.faults.StreamFaultPlan`) or a state whose rows fail the
   serving invariants skips the publish and records the error — the
   previous artifact keeps serving — rather than aborting the generation.

The trainer never mutates a served artifact in place: the publish path
is replaced atomically (whatever its suffix it is a container
directory), and a ``publish_callback`` lets a live
:class:`~repro.serve.server.ModelServer` hot-swap it per generation.

Durability (DESIGN.md §11): every arrival batch is journaled to a
write-ahead :class:`~repro.stream.journal.IngestJournal` under the
workdir *before* it touches the overlay, quarantined records are
mirrored to a :class:`~repro.stream.journal.QuarantineLog` sidecar, and
each generation ends by atomically rewriting ``manifest.json`` — the
single durable record of (next generation, cumulative iteration clock,
digested journal seqno, checkpoint/graph/artifact paths). Journal
segments covered by the manifest are garbage-collected only *after* the
manifest hits disk — and so are the graph and model containers of
generations before the previous one, which the manifest no longer names
(the workdir holds two of each, not one per generation ever run) — so
:meth:`StreamTrainer.resume` can always rebuild
the exact pre-crash overlay: load the manifest's model container
(digests verified) and graph, then replay the journal suffix past the
digested seqno. A kill at any
point between ingest and manifest loses nothing and duplicates nothing
(overlay dedup absorbs at-least-once replay) — pinned by the
kill-at-every-phase tests and the ``repro chaos-stream`` drill.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.config import AMMSBConfig
from repro.core.checkpoint import (  # noqa: F401
    CheckpointError,
    load_state_checkpoint,
    save_state_checkpoint,
)
from repro.core.init import extend_state_informed, init_state_spectral
from repro.core.perplexity import PerplexityEstimator
from repro.core.sampler import AMMSBSampler
from repro.core.state import ModelState, init_state
from repro.graph.graph import Graph
from repro.graph.io import load_csr, save_csr
from repro.graph.split import HeldoutSplit, split_heldout
from repro.serve.artifact import ArtifactError
from repro.serve.artifact import export_state_artifact as export_artifact
from repro.store import atomic_file, link_container, recover_container, recover_containers
from repro.stream.delta import DeltaOverlay, IngestReport, StreamError
from repro.stream.journal import IngestJournal, QuarantineLog
from repro.stream.source import EdgeArrival, arrivals_to_arrays

# e2e_bench's tracer rebinds five names *of this module*: ``split_heldout``,
# ``extend_state_informed``, ``AMMSBSampler``, and the two writers
# ``save_state_checkpoint`` and ``export_artifact``, whose first argument it
# sizes. A generation's one write is the ``export_artifact`` call in
# ``run_generation``; ``save_state_checkpoint`` (the writer warm starts
# come from) is not called here and stays bound for the tracer alone.

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
BASE_GRAPH_NAME = "base.csr"
#: per-generation containers
_GENERATION_FILE = re.compile(r"(?:graph|model)_g(\d+)\.(?:csr|store)")


class ResumeError(StreamError):
    """A stream workdir cannot be resumed (or a fresh start would clobber
    one that could be)."""

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"stream workdir {self.path}: {reason}")


@dataclass(frozen=True)
class GenerationReport:
    """What one :meth:`StreamTrainer.run_generation` call did.

    ``checkpoint_path`` is the generation's model container (state and
    serving artifact in one); it is on disk for the current and the
    previous generation only, older generations' are removed (see
    :meth:`StreamTrainer.run_generation`).
    """

    generation: int
    n_iterations: int
    train_seconds: float
    perplexity: float
    ingest: IngestReport = field(default_factory=IngestReport)
    n_vertices: int = 0
    n_edges: int = 0
    n_new_nodes: int = 0
    checkpoint_path: Optional[Path] = None
    artifact_path: Optional[Path] = None
    published: bool = False
    publish_error: Optional[str] = None


class StreamTrainer:
    """Continuous warm-start training over an arriving edge stream.

    Args:
        base_graph: generation 0's graph (before any arrivals).
        config: sampler configuration shared by every generation.
        workdir: directory for per-generation CSR containers and
            checkpoints (created if missing).
        iterations_per_generation: default training budget per generation.
        heldout_fraction: per-generation held-out split fraction (used
            when no explicit split is passed to ``run_generation``).
        heldout_max_links: cap on held-out links per split.
        publish_path: serving artifact path rewritten each generation
            (``None`` = train without publishing).
        publish_callback: called as ``callback(path, generation)`` after
            each successful publish — the live-server hot-swap hook.
        engine: ``"sequential"`` (in-process sampler) or ``"mp"`` (the
            multiprocess backend).
        n_workers: worker count for the mp engine.
        faults: optional :class:`repro.faults.StreamFaultPlan`.
        max_pending / max_new_nodes: overlay bounds (see
            :class:`~repro.stream.delta.DeltaOverlay`).
        fsync_batch: journal fsync cadence (1 = every append; the only
            setting with zero acknowledged-loss window — see
            :class:`~repro.stream.journal.IngestJournal`).
        journal_segment_bytes: journal segment roll size.
        history_path: where the serving-side ``MembershipHistory`` is
            checkpointed (recorded in the manifest so a restarted server
            finds it; the trainer itself never writes it).

    A fresh trainer refuses a workdir that already holds a stream
    manifest — that is a crashed or finished run, and silently starting
    over would orphan its journal. Use :meth:`resume` (or point the
    trainer at a clean directory).
    """

    def __init__(
        self,
        base_graph: Graph,
        config: AMMSBConfig,
        workdir: PathLike,
        iterations_per_generation: int = 200,
        heldout_fraction: float = 0.01,
        heldout_max_links: Optional[int] = 2000,
        publish_path: Optional[PathLike] = None,
        publish_callback: Optional[Callable[[Path, int], None]] = None,
        engine: str = "sequential",
        n_workers: int = 2,
        faults=None,
        max_pending: int = 1 << 20,
        max_new_nodes: Optional[int] = None,
        fsync_batch: int = 1,
        journal_segment_bytes: int = 1 << 22,
        history_path: Optional[PathLike] = None,
        _resuming: bool = False,
    ) -> None:
        if engine not in ("sequential", "mp"):
            raise ValueError(f"unknown engine {engine!r}")
        if iterations_per_generation < 1:
            raise ValueError("iterations_per_generation must be >= 1")
        self.config = config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        if not _resuming and (self.workdir / MANIFEST_NAME).exists():
            raise ResumeError(
                self.workdir,
                "already holds a stream manifest; use StreamTrainer.resume()"
                " or a clean workdir",
            )
        self.iterations_per_generation = int(iterations_per_generation)
        self.heldout_fraction = float(heldout_fraction)
        self.heldout_max_links = heldout_max_links
        self.publish_path = Path(publish_path) if publish_path else None
        self.publish_callback = publish_callback
        self.engine = engine
        self.n_workers = int(n_workers)
        self.faults = faults if faults is not None and not faults.empty else None
        self.overlay = DeltaOverlay(
            base_graph, max_pending=max_pending, max_new_nodes=max_new_nodes
        )
        self.state: Optional[ModelState] = None
        self.iteration = 0  # cumulative across generations (schedule clock)
        self.generation = 0  # next generation index
        self.reports: list[GenerationReport] = []
        self.last_published: Optional[Path] = None
        self.history_path = Path(history_path) if history_path else None
        self.journal = IngestJournal(
            self.workdir / "journal",
            max_segment_bytes=journal_segment_bytes,
            fsync_batch=fsync_batch,
            faults=self.faults,
        )
        self.quarantine_log = QuarantineLog(self.workdir / "quarantine.jsonl")
        #: journal seqno covered by the current base graph (manifest field).
        self.digested_seqno = self.journal.last_seqno if _resuming else -1
        self._checkpoint_path: Optional[Path] = None
        self._graph_path: Optional[Path] = None
        if not _resuming:
            # Persist generation -1's ground truth so a crash before the
            # first generation completes is still resumable: the base
            # graph as a CSR container, plus an initial manifest.
            self._graph_path = self.workdir / BASE_GRAPH_NAME
            save_csr(base_graph, self._graph_path)
            self._write_manifest()

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint_path: PathLike,
        base_graph: Graph,
        workdir: PathLike,
        config: Optional[AMMSBConfig] = None,
        **kwargs,
    ) -> "StreamTrainer":
        """Resume streaming from a trained batch checkpoint.

        The checkpoint's state/iteration seed generation 0's warm start
        (its config is used unless overridden), so a long batch run
        converts into a stream without a cold restart.
        """
        state, iteration, ckpt_config = load_state_checkpoint(checkpoint_path)
        if state.n_vertices != base_graph.n_vertices:
            raise ValueError(
                f"checkpoint covers {state.n_vertices} vertices but the base"
                f" graph has {base_graph.n_vertices}"
            )
        trainer = cls(base_graph, config or ckpt_config, workdir, **kwargs)
        trainer.state = state
        trainer.iteration = int(iteration)
        # Re-record the warm start so a pre-generation-0 crash resumes
        # from the batch checkpoint instead of a cold start.
        trainer._checkpoint_path = Path(checkpoint_path)
        trainer._write_manifest()
        return trainer

    # -- durable manifest ----------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.workdir / MANIFEST_NAME

    def _rel_or_abs(self, path: Optional[Path]) -> Optional[str]:
        if path is None:
            return None
        p = Path(path)
        try:
            return str(p.relative_to(self.workdir))
        except ValueError:
            return str(p.resolve())

    def _write_manifest(self) -> None:
        """Atomically record the durable generation frontier.

        Written *last* in every generation (after the model container
        and the publish), and always *before* journal GC: the manifest's
        ``digested_seqno`` is the promise that every journal frame at or
        below it is already inside ``graph_path``.
        """
        record = {
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "iteration": self.iteration,
            "digested_seqno": self.digested_seqno,
            "graph_path": self._rel_or_abs(self._graph_path),
            "checkpoint_path": self._rel_or_abs(self._checkpoint_path),
            "artifact_path": self._rel_or_abs(self.last_published),
            "history_path": self._rel_or_abs(self.history_path),
            "publish_path": self._rel_or_abs(self.publish_path),
        }
        with atomic_file(self.manifest_path, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")

    @staticmethod
    def read_manifest(workdir: PathLike) -> dict:
        """Read and validate a stream workdir's manifest (typed errors)."""
        path = Path(workdir) / MANIFEST_NAME
        if not path.exists():
            raise ResumeError(workdir, "no manifest.json (nothing to resume)")
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            raise ResumeError(workdir, f"unreadable manifest ({exc})") from exc
        if not isinstance(manifest, dict):
            raise ResumeError(workdir, "manifest is not an object")
        if manifest.get("version") != MANIFEST_VERSION:
            raise ResumeError(
                workdir,
                f"unsupported manifest version {manifest.get('version')!r}",
            )
        for key in ("generation", "iteration", "digested_seqno", "graph_path"):
            if key not in manifest:
                raise ResumeError(workdir, f"manifest missing {key!r}")
        if manifest["graph_path"] is None:
            raise ResumeError(workdir, "manifest records no graph")
        return manifest

    @classmethod
    def resume(
        cls,
        workdir: PathLike,
        config: Optional[AMMSBConfig] = None,
        **kwargs,
    ) -> "StreamTrainer":
        """Reconstruct a trainer from a (possibly crashed) stream workdir.

        First finishes what a killed writer left behind
        (:func:`repro.store.recover_container`: a publish path or
        generation container caught between the two renames of a
        rotation is put back, stale hidden temp directories are swept).
        Then rebuilds exactly the durable frontier: the manifest's graph
        becomes the overlay base, its model container (if any; every
        array digest verified) restores the warm-start state and
        cumulative iteration clock — a container that will not load, or
        the ``checkpoint_gNNNN.npz`` *file* a workdir written before the
        model container names, is a :class:`ResumeError` (such a workdir
        is not resumed in place: ``repro convert`` the file and seed
        :meth:`from_checkpoint` with it) — and the journal
        suffix past ``digested_seqno`` is replayed through the overlay —
        so edges that were acknowledged but not yet digested are pending
        again, exactly once. Quarantined records re-derived during
        replay are reconciled against the sidecar (no duplicate lines).

        ``kwargs`` are the usual constructor arguments (publish path,
        engine, faults, ...); ``config`` defaults to the checkpoint's.
        """
        workdir = Path(workdir)
        manifest = cls.read_manifest(workdir)

        def _resolve(rec: Optional[str]) -> Optional[Path]:
            if rec is None:
                return None
            p = Path(rec)
            return p if p.is_absolute() else workdir / p

        if "publish_path" not in kwargs and manifest.get("publish_path"):
            kwargs["publish_path"] = _resolve(manifest["publish_path"])
        recover_containers(workdir)
        if kwargs.get("publish_path"):
            recover_container(kwargs["publish_path"])

        graph_path = _resolve(manifest["graph_path"])
        try:
            base_graph = load_csr(graph_path)
        except Exception as exc:
            raise ResumeError(
                workdir, f"cannot load digested graph {graph_path} ({exc})"
            ) from exc

        state = None
        iteration = int(manifest["iteration"])
        ckpt_path = _resolve(manifest.get("checkpoint_path"))
        ckpt_config = None
        if ckpt_path is not None:
            try:
                state, iteration, ckpt_config = load_state_checkpoint(ckpt_path)
            except CheckpointError as exc:
                raise ResumeError(
                    workdir, f"cannot load checkpoint {ckpt_path} ({exc.reason})"
                ) from exc
        if config is None:
            config = ckpt_config
        if config is None:
            raise ResumeError(
                workdir,
                "no checkpoint recorded yet — pass the run's config to resume()",
            )
        if "history_path" not in kwargs and manifest.get("history_path"):
            kwargs["history_path"] = _resolve(manifest["history_path"])

        trainer = cls(base_graph, config, workdir, _resuming=True, **kwargs)
        trainer.state = state
        trainer.iteration = iteration
        trainer.generation = int(manifest["generation"])
        trainer.digested_seqno = int(manifest["digested_seqno"])
        trainer._graph_path = graph_path
        trainer._checkpoint_path = ckpt_path
        artifact = _resolve(manifest.get("artifact_path"))
        trainer.last_published = artifact

        # Replay the un-digested journal suffix. Already-persisted
        # quarantine lines are recognized by their seqno tag so replay
        # never duplicates the sidecar.
        persisted = trainer.quarantine_log.read()
        last_q = max((int(r.get("seqno", -1)) for r in persisted), default=-1)
        n_at_last = sum(1 for r in persisted if int(r.get("seqno", -1)) == last_q)
        for entry in trainer.journal.replay(after_seqno=trainer.digested_seqno):
            before = len(trainer.overlay.quarantined)
            trainer.overlay.ingest_pairs(
                entry.pairs, timestamps=entry.timestamps, strict=False
            )
            fresh = trainer.overlay.quarantined[before:]
            if entry.seqno < last_q:
                continue
            if entry.seqno == last_q:
                fresh = fresh[n_at_last:]
            for reason, record in fresh:
                trainer.quarantine_log.append(reason, record, seqno=entry.seqno)
        return trainer

    # -- ingestion -----------------------------------------------------------

    def _crash_if(self, phase: str, generation: int) -> None:
        if self.faults is not None and self.faults.crash_due(phase, generation):
            from repro.faults import InjectedCrash

            raise InjectedCrash(f"{phase} (generation {generation})")

    def ingest(self, arrivals: Sequence[EdgeArrival]) -> IngestReport:
        """Journal, then buffer, a batch of arrivals (fault-mangled first,
        if injected).

        Write-ahead discipline: the batch — exactly as it will hit the
        overlay, i.e. *after* any fault mangling — is durably appended to
        the journal before the overlay sees it, so a crash at any later
        point replays it. Malformed records are quarantined
        (``strict=False``) and mirrored to the sidecar — a dirty stream
        degrades accounting, never the trainer.
        """
        arrivals = list(arrivals)
        if self.faults is not None:
            arrivals = self.faults.mangle_arrivals(arrivals)
        pairs, ts = arrivals_to_arrays(arrivals)
        if len(arrivals) == 0:
            return IngestReport()
        seqno = self.journal.append_edges(pairs, ts)
        self._crash_if("post-journal-append", self.generation)
        before = len(self.overlay.quarantined)
        report = self.overlay.ingest_pairs(pairs, timestamps=ts, strict=False)
        for reason, record in self.overlay.quarantined[before:]:
            self.quarantine_log.append(reason, record, seqno=seqno)
        return report

    # -- the generation loop -------------------------------------------------

    def run_generation(
        self,
        arrivals: Optional[Sequence[EdgeArrival]] = None,
        n_iterations: Optional[int] = None,
        heldout: Optional[HeldoutSplit] = None,
    ) -> GenerationReport:
        """Ingest → compact → warm-start → train → persist → publish.

        Args:
            arrivals: this generation's arrivals (already-``ingest``-ed
                deltas are also picked up; pass ``None`` to train on the
                current overlay alone — generation 0 usually does).
            n_iterations: training budget override.
            heldout: explicit held-out split (its ``train`` graph must
                match this generation's compacted graph); a fresh split
                is drawn otherwise.

        Returns:
            The :class:`GenerationReport`, also appended to ``reports``.
        """
        gen = self.generation
        n_iter = int(n_iterations or self.iterations_per_generation)
        ingest_report = self.ingest(arrivals) if arrivals else IngestReport()

        # Everything journaled up to here goes into this generation's
        # digested graph; the manifest will promise exactly that.
        digest_seqno = self.journal.last_seqno
        n_before = self.overlay.base.n_vertices
        graph_path = self.workdir / f"graph_g{gen:04d}.csr"
        graph = self.overlay.compact(graph_path)
        n_new_nodes = graph.n_vertices - n_before

        if self.state is None:
            rng = np.random.default_rng(self.config.seed)
            try:
                self.state = init_state_spectral(graph, self.config, rng=rng)
            except ValueError:
                self.state = init_state(graph.n_vertices, self.config, rng)
        else:
            self.state = extend_state_informed(self.state, graph, self.config)

        if heldout is None:
            heldout = split_heldout(
                graph,
                self.heldout_fraction,
                rng=np.random.default_rng(self.config.seed + 7919 * (gen + 1)),
                max_links=self.heldout_max_links,
            )
        elif heldout.train.n_vertices != graph.n_vertices:
            raise ValueError(
                "heldout split does not match this generation's graph"
            )

        t0 = time.perf_counter()
        self.state = self._train(heldout, n_iter)
        train_seconds = time.perf_counter() - t0
        self.iteration += n_iter

        estimator = PerplexityEstimator(
            heldout.heldout_pairs, heldout.heldout_labels, self.config.delta
        )
        perplexity = estimator.single_sample_value(self.state.pi, self.state.beta)

        # The generation's one N*K write: checkpoint and artifact at once.
        checkpoint_path = self.workdir / f"model_g{gen:04d}.store"
        unservable: Optional[str] = None
        try:
            export_artifact(
                checkpoint_path, self.state, self.config, iteration=self.iteration
            )
        except ArtifactError as exc:  # written, as a checkpoint only
            unservable = str(exc)
        self._crash_if("post-checkpoint-pre-publish", gen)

        published = False
        publish_error: Optional[str] = None
        if self.publish_path is not None:
            if self.faults is not None and self.faults.publish_fails(gen):
                publish_error = f"injected publish failure (generation {gen})"
            elif unservable is not None:
                publish_error = unservable
            else:
                link_container(checkpoint_path, self.publish_path)
                published = True
                self.last_published = self.publish_path
                if self.publish_callback is not None:
                    self.publish_callback(self.publish_path, gen)
        self._crash_if("post-publish-pre-manifest", gen)

        report = GenerationReport(
            generation=gen,
            n_iterations=n_iter,
            train_seconds=train_seconds,
            perplexity=float(perplexity),
            ingest=ingest_report,
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            n_new_nodes=n_new_nodes,
            checkpoint_path=checkpoint_path,
            artifact_path=self.publish_path if published else self.last_published,
            published=published,
            publish_error=publish_error,
        )
        self.reports.append(report)
        self.generation += 1

        # Durable commit point: the manifest is the generation's single
        # atomic truth, and only after it lands may the journal GC frames
        # it now covers (GC first + crash would lose the suffix).
        self._graph_path = graph_path
        self._checkpoint_path = checkpoint_path
        self.digested_seqno = digest_seqno
        self._write_manifest()
        self._remove_stale_generations(gen)
        self.journal.compact(
            digest_seqno,
            crash_hook=lambda: self._crash_if("mid-compaction", gen),
        )
        return report

    def _remove_stale_generations(self, gen: int) -> None:
        """Delete graph and model containers older than generation
        ``gen - 1`` (``base.csr`` counts as generation -1). A published
        artifact or a live server's memory map that shares a deleted
        container's files keeps them readable (hard link / unlinked inode).

        Called only once the manifest naming generation ``gen`` is durable:
        a kill before that resumes from generation ``gen - 1``'s files,
        which this keeps. A warm-start checkpoint handed to
        :meth:`from_checkpoint` is the caller's file and never removed.
        """
        for path in self.workdir.iterdir():
            match = _GENERATION_FILE.fullmatch(path.name)
            if match:
                index = int(match[1])
            elif path.name == BASE_GRAPH_NAME:
                index = -1
            else:
                continue
            if index < gen - 1:
                shutil.rmtree(path, ignore_errors=True)

    def _train(self, heldout: HeldoutSplit, n_iter: int) -> ModelState:
        """``n_iter`` iterations from the current state on this trainer's
        engine, continuing the stream's schedule clock."""
        if self.engine == "mp":
            from repro.dist.mp import MultiprocessAMMSBSampler

            with MultiprocessAMMSBSampler(
                heldout.train,
                self.config,
                n_workers=self.n_workers,
                heldout=heldout,
                state=self.state,
            ) as sampler:
                sampler.iteration = self.iteration
                sampler.run(n_iter)
                return sampler.state_snapshot()
        sampler = AMMSBSampler(
            heldout.train, self.config, heldout=heldout, state=self.state
        )
        sampler.iteration = self.iteration
        sampler.run(n_iter)
        return sampler.state

    def run(
        self,
        batches: Sequence[Sequence[EdgeArrival]],
        n_iterations: Optional[int] = None,
    ) -> list[GenerationReport]:
        """Replay arrival batches, one generation each; returns the reports."""
        return [self.run_generation(batch, n_iterations) for batch in batches]
