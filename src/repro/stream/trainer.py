"""Generation loop: ingest a delta, warm-start retrain, publish, repeat.

:class:`StreamTrainer` is the continuous half of the train-to-serve
loop. Each :meth:`~StreamTrainer.run_generation`:

1. **ingests** the generation's arrivals into the
   :class:`~repro.stream.delta.DeltaOverlay` (malformed records are
   quarantined, not fatal — the stream must survive dirty input);
2. **compacts** overlay + base into the graph this generation trains
   on, in memory, and persists what changed: one sealed delta container
   of every pair merged since the last full CSR snapshot under the
   workdir, or — once the delta bytes written since that snapshot would
   reach its size — a new snapshot
   (:meth:`~repro.stream.delta.DeltaOverlay.compact`);
3. **warm-starts**: the previous generation's state is grown to the new
   vertex count by :func:`repro.core.init.extend_state_informed`
   (neighbor-averaged rows for new nodes), and the sampler's iteration
   counter continues from where the stream left off — so the step-size
   schedule resumes on its annealed tail instead of re-running burn-in,
   and every draw is keyed by that cumulative clock (no generation
   replays another's mini-batches).
   Generation 0 cold-starts from
   :func:`repro.core.init.init_state_spectral` (successive projections),
   falling back to random init on degenerate graphs;
4. **trains** a bounded number of iterations — sequentially, or on the
   multiprocess backend (``engine="mp"``). The sequential engine draws
   ahead in one :class:`~repro.core.sampler.DrawProcess` the trainer
   owns for its whole life: forked at its first generation, re-armed at
   each later one with the compaction's pending pairs and the held-out
   split (it merges them into its own copy of the base graph as the
   compaction did and cuts the same training graph), ended by
   :meth:`StreamTrainer.close`, a ``with`` block or the trainer's
   collection;
5. **persists** the state once — one sealed :mod:`repro.store`
   container ``model_gNNNN.store`` that is both the generation's
   checkpoint and its serving artifact
   (:func:`repro.serve.artifact.export_artifact`: the state's own
   ``pi`` rows, ``phi_sum``, ``theta`` and the serving members) — and
   then **publishes** it by hard link
   (:func:`repro.store.link_container`: ``publish_path`` becomes a
   second name of the container file, zero N*K bytes moved),
   in that order on either engine. An injected publish failure
   (:class:`repro.faults.StreamFaultPlan`) or a state whose rows fail the
   serving invariants skips the publish and records the error — the
   previous artifact keeps serving — rather than aborting the generation.

The trainer never mutates a served artifact in place: the publish path
is replaced atomically (whatever its suffix it is a container file),
and a ``publish_callback`` lets a live
:class:`~repro.serve.server.ModelServer` hot-swap it per generation.

Durability (DESIGN.md §11): every arrival batch is journaled to a
write-ahead :class:`~repro.stream.journal.IngestJournal` under the
workdir *before* it touches the overlay, quarantined records are
mirrored to a :class:`~repro.stream.journal.QuarantineLog` sidecar, and
each generation ends by atomically rewriting ``manifest.json`` — the
single durable record of (next generation, cumulative iteration clock,
digested journal seqno, checkpoint/snapshot/delta/artifact paths).
Journal segments covered by the manifest are garbage-collected only
*after* the manifest hits disk — and so are the graph and model
containers that neither it nor the manifest before it names (the
workdir holds what two manifests name, not one container per generation
ever run, plus two spares: ``.manifest.json.spare``, the manifest the
last one replaced, and ``.graph.delta.spare``, the last stale delta,
which the next manifest and delta are written over — a steady
generation frees no inode of its own; see :mod:`repro.store.atomic`)
— so :meth:`StreamTrainer.resume` can always rebuild
the exact pre-crash overlay: load the manifest's model container and
its graph as ``load_csr(snapshot).with_edges(delta)`` (every digest
verified), then replay the journal suffix past the
digested seqno. A kill at any
point between ingest and manifest loses nothing and duplicates nothing
(overlay dedup absorbs at-least-once replay) — pinned by the
kill-at-every-phase tests and the ``repro chaos-stream`` drill.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import weakref
from dataclasses import dataclass, field
from functools import partial
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
from repro.core.minibatch import MinibatchSampler
from repro.core.perplexity import PerplexityEstimator
from repro.core.sampler import AMMSBSampler, DrawProcess, draw_iteration
from repro.core.state import ModelState, init_state
from repro.faults import InjectedCrash, PublishFailure, TrainerCrash, armed
from repro.graph.graph import Graph, edge_keys
from repro.graph.split import HeldoutSplit, split_heldout
from repro.serve.artifact import ArtifactError, export_artifact
from repro.store import (
    atomic_file,
    link_container,
    recover_container,
    recover_containers,
    spare_sibling,
)
from repro.stream.delta import (
    DELTA_SPARE,
    DeltaOverlay,
    IngestReport,
    StreamError,
    merged_graph,
)
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
#: 2 names the graph as a snapshot (``graph_path``) and a ``delta_path``
MANIFEST_VERSION = 2
#: the containers a generation writes, and generation -1's snapshot
_GENERATION_FILE = re.compile(r"(?:graph|model)_g\d+\.(?:csr|delta|store)|base\.csr")


def _resolve_in(workdir: Path, rec: Optional[str]) -> Optional[Path]:
    """A manifest's path record: relative to the workdir unless absolute."""
    if rec is None:
        return None
    p = Path(rec)
    return p if p.is_absolute() else workdir / p


def key_digest(graph: Graph) -> int:
    """The first 8 bytes of the sha256 of a graph's vertex count and
    sorted edge keys, as an int64: how a trainer's draw process and the
    trainer compare training graphs."""
    h = hashlib.sha256(np.int64(graph.n_vertices).tobytes())
    h.update(graph.keys)
    return int.from_bytes(h.digest()[:8], "little", signed=True)


class _TrainingGraphs:
    """What a trainer's draw process holds across generations: its own
    copy of the compacted graph, advanced by each generation's pending
    pairs as the trainer's compaction advanced the trainer's."""

    def __init__(self, graph: Graph, config: AMMSBConfig) -> None:
        self.graph, self.config = graph, config

    def arm(
        self, pending: np.ndarray, n_vertices: int, heldout_pairs: np.ndarray,
        heldout_labels: np.ndarray, expected: Optional[int],
    ):
        """Merge ``pending``, cut the held-out links out as
        :func:`~repro.graph.split.split_heldout` did, and draw from the
        result as :class:`AMMSBSampler` would. Returns that draw and the
        training graph's :func:`key_digest`; the draw is None (every draw
        is made inline) when ``expected`` is given and differs."""
        self.graph = merged_graph(self.graph, pending, n_vertices)
        n = self.graph.n_vertices
        train = self.graph.subgraph(remove_keys=edge_keys(heldout_pairs[heldout_labels], n))
        digest = key_digest(train)
        if expected is not None and expected != digest:
            return None, digest
        draws = MinibatchSampler(train, self.config, heldout_keys=edge_keys(heldout_pairs, n))
        return partial(draw_iteration, draws, self.config), digest


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
        workdir: directory for the graph's snapshot and per-generation
            delta containers and the model containers (created if
            missing).
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

    The sequential engine's draw process lives as long as the trainer:
    end it with :meth:`close` or a ``with`` block (the trainer's
    collection ends it too).

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
        _overlay: Optional[DeltaOverlay] = None,
    ) -> None:
        if engine not in ("sequential", "mp"):
            raise ValueError(f"unknown engine {engine!r}")
        if iterations_per_generation < 1:
            raise ValueError("iterations_per_generation must be >= 1")
        self.config = config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        resuming = _overlay is not None
        if not resuming and (self.workdir / MANIFEST_NAME).exists():
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
        self.faults = armed(faults)
        self.overlay = _overlay if resuming else DeltaOverlay(
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
        self.digested_seqno = self.journal.last_seqno if resuming else -1
        self._checkpoint_path: Optional[Path] = None
        self._draws: Optional[DrawProcess] = None
        #: the draw process holds the overlay's base graph; a generation
        #: that fails between its compaction and the re-arm leaves it behind
        self._draws_on_base = False
        self._closed = False
        if not resuming:
            # Persist generation -1's ground truth so a crash before the
            # first generation completes is still resumable: the base
            # graph as the first snapshot, ``base.csr``, plus an initial
            # manifest.
            self.overlay.compact(self.workdir / "base")
        #: the snapshot and delta the manifest names
        self._graph_path = self.overlay.snapshot_path
        self._delta_path = self.overlay.delta_path
        if not resuming:
            self._write_manifest()

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint_path: PathLike,
        base_graph: Graph,
        workdir: PathLike,
        **kwargs,
    ) -> "StreamTrainer":
        """Resume streaming from a trained batch checkpoint.

        The checkpoint's state, iteration and config seed generation 0's
        warm start, so a long batch run converts into a stream without a
        cold restart.
        """
        state, iteration, config = load_state_checkpoint(checkpoint_path)
        if state.n_vertices != base_graph.n_vertices:
            raise ValueError(
                f"checkpoint covers {state.n_vertices} vertices but the base"
                f" graph has {base_graph.n_vertices}"
            )
        trainer = cls(base_graph, config, workdir, **kwargs)
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
        below it is already inside the graph ``graph_path`` (the snapshot)
        and ``delta_path`` hold.
        """
        record = {
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "iteration": self.iteration,
            "digested_seqno": self.digested_seqno,
            "graph_path": self._rel_or_abs(self._graph_path),
            "delta_path": self._rel_or_abs(self._delta_path),
            "checkpoint_path": self._rel_or_abs(self._checkpoint_path),
            "artifact_path": self._rel_or_abs(self.last_published),
            "history_path": self._rel_or_abs(self.history_path),
            "publish_path": self._rel_or_abs(self.publish_path),
        }
        # read whole by ``json``, so the manifest it replaces is the next
        # write's spare: a generation's commit frees no inode
        with atomic_file(
            self.manifest_path, "w", spare=spare_sibling(self.manifest_path)
        ) as fh:
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

    @staticmethod
    def _open_graph(workdir: Path, manifest: dict, **bounds) -> DeltaOverlay:
        """The overlay over the graph ``manifest`` names, or a
        :class:`ResumeError` naming the file that will not load."""
        snapshot = _resolve_in(workdir, manifest["graph_path"])
        delta = _resolve_in(workdir, manifest.get("delta_path"))
        try:
            return DeltaOverlay.open(snapshot, delta, **bounds)
        except (ValueError, OSError) as exc:  # StoreError is a ValueError
            raise ResumeError(workdir, f"cannot load digested graph ({exc})") from exc

    @classmethod
    def digested_graph(cls, workdir: PathLike) -> Graph:
        """The graph a stream workdir's manifest promises: its snapshot
        with its delta merged in, array for array what the generation
        trained on (every digest verified; typed errors)."""
        workdir = Path(workdir)
        return cls._open_graph(workdir, cls.read_manifest(workdir)).base

    @classmethod
    def resume(
        cls,
        workdir: PathLike,
        config: Optional[AMMSBConfig] = None,
        **kwargs,
    ) -> "StreamTrainer":
        """Reconstruct a trainer from a (possibly crashed) stream workdir.

        First sweeps what a killed writer left behind
        (:func:`repro.store.recover_container`: the hidden temp file of a
        container write or publish link that never reached its
        ``os.replace``).
        Then rebuilds exactly the durable frontier: the manifest's
        snapshot with its delta merged in becomes the overlay base
        (:meth:`~repro.stream.delta.DeltaOverlay.open`, every digest
        verified), its model container (if any; every
        array digest verified) restores the warm-start state and
        cumulative iteration clock — a container that will not load is a
        :class:`ResumeError` — and the journal
        suffix past ``digested_seqno`` is replayed through the overlay —
        so edges that were acknowledged but not yet digested are pending
        again, exactly once. Quarantined records re-derived during
        replay are reconciled against the sidecar (no duplicate lines).

        ``kwargs`` are the usual constructor arguments (publish path,
        engine, faults, ...); ``config`` defaults to the checkpoint's.
        """
        workdir = Path(workdir)
        manifest = cls.read_manifest(workdir)

        if "publish_path" not in kwargs and manifest.get("publish_path"):
            kwargs["publish_path"] = _resolve_in(workdir, manifest["publish_path"])
        recover_containers(workdir)
        if kwargs.get("publish_path"):
            recover_container(kwargs["publish_path"])

        bounds = {k: kwargs.pop(k) for k in ("max_pending", "max_new_nodes") if k in kwargs}
        overlay = cls._open_graph(workdir, manifest, **bounds)

        state = None
        iteration = int(manifest["iteration"])
        ckpt_path = _resolve_in(workdir, manifest.get("checkpoint_path"))
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
            kwargs["history_path"] = _resolve_in(workdir, manifest["history_path"])

        trainer = cls(overlay.base, config, workdir, _overlay=overlay, **kwargs)
        trainer.state = state
        trainer.iteration = iteration
        trainer.generation = int(manifest["generation"])
        trainer.digested_seqno = int(manifest["digested_seqno"])
        trainer._checkpoint_path = ckpt_path
        artifact = _resolve_in(workdir, manifest.get("artifact_path"))
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
        if self.faults is not None and self.faults.scheduled(
            TrainerCrash, phase=phase, generation=generation
        ):
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
        on_base, self._draws_on_base = self._draws_on_base, False
        graph = self.overlay.compact(self.workdir / f"graph_g{gen:04d}")
        n_new_nodes = graph.n_vertices - n_before

        explicit = heldout is not None
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
        # the draw process cuts its training graph while the state grows
        self._arm_draws(graph, heldout, explicit, on_base)

        if self.state is None:
            rng = np.random.default_rng(self.config.seed)
            try:
                self.state = init_state_spectral(graph, self.config, rng=rng)
            except ValueError:
                self.state = init_state(graph.n_vertices, self.config, rng)
        else:
            self.state = extend_state_informed(self.state, graph, self.config)

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
            if self.faults is not None and self.faults.scheduled(
                PublishFailure, generation=gen
            ):
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
        named_before = self._named()
        self._graph_path = self.overlay.snapshot_path
        self._delta_path = self.overlay.delta_path
        self._checkpoint_path = checkpoint_path
        self.digested_seqno = digest_seqno
        self._write_manifest()
        self._remove_stale_generations(named_before | self._named())
        self.journal.compact(
            digest_seqno,
            crash_hook=lambda: self._crash_if("mid-compaction", gen),
        )
        return report

    def _named(self) -> set[str]:
        """Names of the workdir files the manifest names."""
        paths = (self._graph_path, self._delta_path, self._checkpoint_path)
        return {p.name for p in paths if p is not None and p.parent == self.workdir}

    def _remove_stale_generations(self, keep: set[str]) -> None:
        """Retire the graph and model containers (``base.csr`` included)
        whose names are not in ``keep``: what the current manifest and the
        one before it name. A stale delta is renamed onto the delta spare
        (:data:`~repro.stream.delta.DELTA_SPARE`), which the next delta is
        written over, so it frees no inode; every other container is
        unlinked. A published artifact or a live server's memory map that
        shares a deleted model's file keeps it readable (hard link /
        unlinked inode), so removing a model the server still maps frees
        nothing yet; a snapshot is unlinked, never recycled, since
        ``load_csr`` may map it.

        Called only once the current manifest is durable: a kill before
        that resumes from the previous manifest's files, which this keeps;
        a kill during it leaves files the next generation removes. A
        warm-start checkpoint handed to :meth:`from_checkpoint` is the
        caller's file and never removed.
        """
        for path in self.workdir.iterdir():
            if not _GENERATION_FILE.fullmatch(path.name) or path.name in keep:
                continue
            if path.suffix == ".delta":
                os.replace(path, self.workdir / DELTA_SPARE)
            else:
                path.unlink(missing_ok=True)

    def _arm_draws(
        self, graph: Graph, heldout: HeldoutSplit, explicit: bool, on_base: bool
    ) -> None:
        """Re-arm the sequential engine's draw process on this
        generation's training graph, with the pairs the compaction into
        ``graph`` merged, when it holds the graph that compaction started
        from (``on_base``). Otherwise (the first generation, a dead
        process, or one a failed generation left behind) fork a new one
        over ``graph`` itself. A split the caller passed is checked by
        :func:`key_digest`, since its training graph is the caller's to
        cut."""
        if self.engine != "sequential" or self._closed:
            return
        expected = key_digest(heldout.train) if explicit else None
        split = (heldout.heldout_pairs, heldout.heldout_labels, expected)
        pending = self.overlay.last_merged
        current = on_base and self._draws is not None and self._draws.alive
        if current:
            self._draws.arm(pending, graph.n_vertices, *split)
        if not current or not self._draws.alive:
            if self._draws is not None:
                self._draws.close()
            self._draws = DrawProcess(None, _TrainingGraphs(graph, self.config).arm)
            weakref.finalize(self, self._draws.close)
            self._draws.arm(pending[:0], graph.n_vertices, *split)
        self._draws_on_base = True

    def close(self) -> None:
        """End the draw process and close the journal; idempotent. A
        closed trainer still runs generations, each sampler forking and
        closing a draw process of its own."""
        self._closed = True
        if self._draws is not None:
            self._draws.close()
            self._draws = None
        self.journal.close()

    def __enter__(self) -> "StreamTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        # A new sampler per generation (the graph changed), drawing ahead
        # in the trainer's draw process, armed on this generation's graph
        with AMMSBSampler(
            heldout.train, self.config, heldout=heldout, state=self.state,
            _draws=self._draws,
        ) as sampler:
            sampler.iteration = self.iteration
            sampler.run(n_iter)
            return sampler.state

    def run(self, batches: Sequence[Sequence[EdgeArrival]]) -> list[GenerationReport]:
        """Replay arrival batches, one generation each; returns the reports."""
        return [self.run_generation(batch) for batch in batches]
