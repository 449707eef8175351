"""Crash-at-every-phase resume: exactly-once generations from the journal."""

from __future__ import annotations

import functools
import zipfile
from pathlib import Path

import numpy as np
import pytest

import repro.stream.trainer as trainer_module
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.checkpoint import save_state_checkpoint
from repro.core.state import init_state
from repro.faults import CRASH_PHASES, InjectedCrash, StreamFaultPlan, TrainerCrash
from repro.graph.io import load_csr
from repro.store.container import read_manifest
from repro.stream import EdgeArrival, ResumeError, StreamTrainer, SyntheticArrivalSource

N_ITER = 8


def _config(seed=11):
    return AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=32,
        neighbor_sample_size=16,
        seed=seed,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )


@pytest.fixture()
def stream(planted):
    graph, _ = planted
    source = SyntheticArrivalSource(graph, base_fraction=0.85, seed=3)
    return source.base_graph(), list(source.batches(4))


def _trainer(base, tmp_path, **kwargs):
    kwargs.setdefault("iterations_per_generation", N_ITER)
    kwargs.setdefault("publish_path", tmp_path / "artifact.npz")
    kwargs.setdefault("heldout_fraction", 0.05)
    return StreamTrainer(base, _config(), tmp_path / "work", **kwargs)


def _final_state(workdir: Path):
    """(content_version, edge keys, n_vertices) of the digested CSR."""
    manifest = StreamTrainer.read_manifest(workdir)
    graph_path = Path(manifest["graph_path"])
    if not graph_path.is_absolute():
        graph_path = workdir / graph_path
    graph = load_csr(graph_path, provider="resident")
    version = read_manifest(graph_path)["content_version"]
    return version, frozenset(int(k) for k in graph.keys), graph.n_vertices


class TestManifest:
    def test_written_from_birth_and_refused_on_reuse(self, stream, tmp_path):
        base, _ = stream
        trainer = _trainer(base, tmp_path)
        manifest = StreamTrainer.read_manifest(tmp_path / "work")
        assert manifest["generation"] == 0
        assert manifest["digested_seqno"] == -1
        with pytest.raises(ResumeError, match="already holds"):
            _trainer(base, tmp_path)
        trainer.journal.close()

    def test_tracks_each_generation(self, stream, tmp_path):
        base, batches = stream
        trainer = _trainer(base, tmp_path)
        trainer.run_generation(batches[0])
        manifest = StreamTrainer.read_manifest(tmp_path / "work")
        assert manifest["generation"] == 1
        assert manifest["iteration"] == N_ITER
        assert manifest["digested_seqno"] == trainer.journal.last_seqno
        assert manifest["artifact_path"]

    def test_resume_missing_workdir_raises(self, tmp_path):
        with pytest.raises(ResumeError, match="manifest"):
            StreamTrainer.resume(tmp_path / "nowhere")


class TestCrashResume:
    @pytest.mark.parametrize("phase", CRASH_PHASES)
    def test_kill_then_resume_matches_uninterrupted(
        self, stream, tmp_path, phase
    ):
        base, batches = stream

        # Uninterrupted reference.
        ref = _trainer(base, tmp_path / "ref")
        for batch in batches:
            ref.run_generation(batch)
        ref_version, ref_keys, ref_n = _final_state(tmp_path / "ref" / "work")
        ref.journal.close()

        # Killed at `phase` during generation 2, then resumed.
        crash_at = 2
        faults = StreamFaultPlan(
            seed=0, trainer_crashes=(TrainerCrash(phase=phase, generation=crash_at),)
        )
        trainer = _trainer(base, tmp_path / "kill", faults=faults)
        with pytest.raises(InjectedCrash, match=phase):
            for batch in batches:
                trainer.run_generation(batch)
        trainer.journal.close()  # the dead process's handle

        resumed = StreamTrainer.resume(
            (tmp_path / "kill") / "work",
            iterations_per_generation=N_ITER,
            heldout_fraction=0.05,
        )
        # At-least-once delivery: the crashed batch is re-fed; the journal
        # and overlay must fold it back to exactly-once state.
        for batch in batches[crash_at:]:
            resumed.run_generation(batch)
        version, keys, n = _final_state((tmp_path / "kill") / "work")
        assert keys == ref_keys
        assert n == ref_n
        assert version == ref_version
        resumed.journal.close()

    def test_resume_restores_clock_and_schedule(self, stream, tmp_path):
        base, batches = stream
        trainer = _trainer(base, tmp_path)
        trainer.run_generation(batches[0])
        iteration, generation = trainer.iteration, trainer.generation
        trainer.journal.close()
        resumed = StreamTrainer.resume(
            tmp_path / "work", iterations_per_generation=N_ITER,
            heldout_fraction=0.05,
        )
        assert resumed.iteration == iteration
        assert resumed.generation == generation
        assert resumed.last_published is not None
        rep = resumed.run_generation(batches[1])
        assert rep.generation == generation
        assert resumed.iteration == iteration + N_ITER
        resumed.journal.close()

    def test_post_crash_journal_replay_restores_pending(self, stream, tmp_path):
        base, batches = stream
        faults = StreamFaultPlan(
            seed=0,
            trainer_crashes=(
                TrainerCrash(phase="post-journal-append", generation=1),
            ),
        )
        trainer = _trainer(base, tmp_path, faults=faults)
        trainer.run_generation(batches[0])
        with pytest.raises(InjectedCrash):
            trainer.run_generation(batches[1])
        journaled = trainer.journal.last_seqno
        trainer.journal.close()
        resumed = StreamTrainer.resume(
            tmp_path / "work", iterations_per_generation=N_ITER,
            heldout_fraction=0.05,
        )
        # The journaled-but-undigested batch is back in the overlay.
        assert resumed.journal.last_seqno == journaled
        assert resumed.overlay.n_pending > 0
        resumed.journal.close()

    def test_quarantine_records_survive_crash_without_duplication(
        self, stream, tmp_path
    ):
        base, batches = stream
        bad = [
            EdgeArrival(timestamp=0.25, src=-9, dst=4),
            EdgeArrival(timestamp=0.35, src=6, dst=6),
        ]
        faults = StreamFaultPlan(
            seed=0,
            trainer_crashes=(
                TrainerCrash(phase="post-journal-append", generation=1),
            ),
        )
        trainer = _trainer(base, tmp_path, faults=faults)
        trainer.run_generation(batches[0] + bad)
        assert len(trainer.quarantine_log) == 2
        with pytest.raises(InjectedCrash):
            trainer.run_generation(batches[1])
        trainer.journal.close()
        resumed = StreamTrainer.resume(
            tmp_path / "work", iterations_per_generation=N_ITER,
            heldout_fraction=0.05,
        )
        # Replaying the journal suffix must not re-append sidecar records.
        records = resumed.quarantine_log.read()
        assert [r["reason"] for r in records] == ["negative-id", "self-loop"]
        resumed.journal.close()

    def test_mid_compaction_crash_gc_finishes_next_generation(
        self, stream, tmp_path
    ):
        base, batches = stream
        faults = StreamFaultPlan(
            seed=0,
            trainer_crashes=(TrainerCrash(phase="mid-compaction", generation=1),),
        )
        trainer = _trainer(
            base, tmp_path, faults=faults, journal_segment_bytes=1 << 10
        )
        trainer.run_generation(batches[0])
        with pytest.raises(InjectedCrash):
            trainer.run_generation(batches[1])
        trainer.journal.close()
        resumed = StreamTrainer.resume(
            tmp_path / "work", iterations_per_generation=N_ITER,
            heldout_fraction=0.05,
        )
        # The manifest committed generation 1 before the crash, so the
        # interrupted GC is finished by the next generation's compact.
        before = resumed.journal.n_segments
        resumed.run_generation(batches[2])
        assert resumed.journal.n_segments <= before
        version, keys, _ = _final_state(tmp_path / "work")
        assert resumed.journal.compactions >= 1
        resumed.journal.close()


def _generation_files(workdir: Path) -> list[str]:
    return sorted(
        p.name
        for p in workdir.iterdir()
        if p.name.startswith(("base.", "graph_g", "checkpoint_g"))
    )


class TestWorkdirStaysBounded:
    """Generation files older than the previous generation are removed once
    the manifest no longer names them (the workdir used to grow forever)."""

    def test_two_graphs_and_two_checkpoints_after_five_generations(
        self, stream, tmp_path
    ):
        base, batches = stream
        work = tmp_path / "work"
        trainer = _trainer(base, tmp_path)
        trainer.run_generation()
        # generation 0's predecessor is the base graph
        assert _generation_files(work) == [
            "base.csr", "checkpoint_g0000.npz", "graph_g0000.csr",
        ]
        for batch in batches:
            trainer.run_generation(batch)
        assert trainer.generation == 5
        assert _generation_files(work) == [
            "checkpoint_g0003.npz", "checkpoint_g0004.npz",
            "graph_g0003.csr", "graph_g0004.csr",
        ]
        assert [r.checkpoint_path.exists() for r in trainer.reports] == [
            False, False, False, True, True,
        ]
        with zipfile.ZipFile(trainer.reports[-1].checkpoint_path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
        trainer.journal.close()

    def test_kill_before_the_manifest_still_finds_its_files(self, stream, tmp_path):
        base, batches = stream
        work = tmp_path / "work"
        faults = StreamFaultPlan(
            seed=0,
            trainer_crashes=(
                TrainerCrash(phase="post-publish-pre-manifest", generation=3),
            ),
        )
        trainer = _trainer(base, tmp_path, faults=faults)
        trainer.run_generation()
        with pytest.raises(InjectedCrash):
            for batch in batches:
                trainer.run_generation(batch)
        trainer.journal.close()
        # Generation 3 wrote its files but never committed: the manifest
        # names generation 2's, and nothing has removed them.
        manifest = StreamTrainer.read_manifest(work)
        assert manifest["graph_path"] == "graph_g0002.csr"
        assert manifest["checkpoint_path"] == "checkpoint_g0002.npz"
        resumed = StreamTrainer.resume(
            work, iterations_per_generation=N_ITER, heldout_fraction=0.05
        )
        assert resumed.generation == 3
        for batch in batches[2:]:
            resumed.run_generation(batch)
        assert _generation_files(work) == [
            "checkpoint_g0003.npz", "checkpoint_g0004.npz",
            "graph_g0003.csr", "graph_g0004.csr",
        ]
        resumed.journal.close()

    def test_warm_start_checkpoint_is_the_callers_file(self, stream, tmp_path):
        base, batches = stream
        config = _config()
        warm = save_state_checkpoint(
            tmp_path / "work" / "warm.npz",
            init_state(base.n_vertices, config, np.random.default_rng(0)),
            40,
            config,
        )
        trainer = StreamTrainer.from_checkpoint(
            warm, base, tmp_path / "work", iterations_per_generation=N_ITER,
            heldout_fraction=0.05,
        )
        for batch in batches:
            trainer.run_generation(batch)
        assert warm.exists()
        trainer.journal.close()


def test_resume_reads_a_deflated_checkpoint(stream, tmp_path, monkeypatch):
    """Workdirs written before checkpoints became stored archives resume."""
    base, batches = stream
    monkeypatch.setattr(
        trainer_module,
        "save_state_checkpoint",
        functools.partial(save_state_checkpoint, compress=True),
    )
    trainer = _trainer(base, tmp_path)
    report = trainer.run_generation(batches[0])
    with zipfile.ZipFile(report.checkpoint_path) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    trainer.journal.close()
    resumed = StreamTrainer.resume(
        tmp_path / "work", iterations_per_generation=N_ITER, heldout_fraction=0.05
    )
    np.testing.assert_array_equal(resumed.state.pi, trainer.state.pi)
    assert resumed.iteration == trainer.iteration
    resumed.journal.close()
