"""Crash-at-every-phase resume: exactly-once generations from the journal."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.checkpoint import CheckpointError, load_state_checkpoint, save_state_checkpoint
from repro.core.state import init_state
from repro.faults import CRASH_PHASES, InjectedCrash, StreamFaultPlan, TrainerCrash
from repro.graph.io import load_csr
from repro.serve.artifact import ArtifactCorrupt, build_artifact, load_artifact, save_artifact
from repro.serve.server import ModelServer
from repro.store.container import Container, read_manifest
from repro.stream import EdgeArrival, ResumeError, StreamTrainer, SyntheticArrivalSource
from tests.conftest import die_like_kill_9, kill_in_os

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
        if p.name.startswith(("base.", "graph_g", "model_g", "checkpoint_g"))
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
            "base.csr", "graph_g0000.csr", "model_g0000.store",
        ]
        for batch in batches:
            trainer.run_generation(batch)
        assert trainer.generation == 5
        assert _generation_files(work) == [
            "graph_g0003.csr", "graph_g0004.csr",
            "model_g0003.store", "model_g0004.store",
        ]
        assert [r.checkpoint_path.exists() for r in trainer.reports] == [
            False, False, False, True, True,
        ]
        # one sealed container: the state and the serving members side by side
        assert Container(trainer.reports[-1].checkpoint_path).names() == [
            "beta", "node_ids", "phi_sum", "pi", "theta",
            "top_communities", "top_weights",
        ]
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
        assert manifest["checkpoint_path"] == "model_g0002.store"
        resumed = StreamTrainer.resume(
            work, iterations_per_generation=N_ITER, heldout_fraction=0.05
        )
        assert resumed.generation == 3
        for batch in batches[2:]:
            resumed.run_generation(batch)
        assert _generation_files(work) == [
            "graph_g0003.csr", "graph_g0004.csr",
            "model_g0003.store", "model_g0004.store",
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


def test_pre_container_workdir_is_refused_naming_the_file_and_the_command(stream, tmp_path):
    """A workdir whose manifest names a ``checkpoint_gNNNN.npz`` *file* is
    not resumed in place; the converted checkpoint seeds a new stream."""
    from repro.legacy import convert

    base, batches = stream
    work = tmp_path / "work"
    trainer = _trainer(base, tmp_path)
    trainer.run_generation(batches[0])
    trainer.journal.close()
    legacy = work / "checkpoint_g0000.npz"
    config_json = read_manifest(work / "model_g0000.store")["meta"]["config"]
    np.savez_compressed(  # the v1 state-checkpoint layout (repro/legacy.py)
        legacy,
        _meta=json.dumps({"version": 1, "kind": "state", "iteration": trainer.iteration,
                          "config": config_json}),
        pi=trainer.state.pi, phi_sum=trainer.state.phi_sum, theta=trainer.state.theta,
    )
    shutil.rmtree(work / "model_g0000.store")
    manifest = StreamTrainer.read_manifest(work)
    manifest["checkpoint_path"] = legacy.name
    (work / "manifest.json").write_text(json.dumps(manifest))

    with pytest.raises(ResumeError, match=r"checkpoint_g0000\.npz.*repro convert"):
        StreamTrainer.resume(work, iterations_per_generation=N_ITER, heldout_fraction=0.05)

    kind, warm = convert(legacy, tmp_path / "warm")
    assert kind == "state checkpoint"
    seeded = StreamTrainer.from_checkpoint(
        warm, load_csr(work / "graph_g0000.csr"), tmp_path / "work2",
        iterations_per_generation=N_ITER, heldout_fraction=0.05,
    )
    np.testing.assert_array_equal(seeded.state.pi, trainer.state.pi)
    assert seeded.iteration == trainer.iteration and seeded.config == trainer.config
    seeded.run_generation(batches[1])
    seeded.journal.close()


def _digest(state) -> str:
    h = hashlib.sha256()
    for arr in (state.pi, state.phi_sum, state.theta):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _kill_sealing_the_model_container(patch, tmp_path):
    # all seven arrays are written and fsynced; the manifest is not in yet
    kill_in_os(
        patch, "replace",
        lambda src, dst: Path(dst).name == "manifest.json"
        and Path(dst).parent.name.startswith(".model_g0002.store.tmp-"),
    )


def _kill_linking_the_third_file(patch, tmp_path):
    links = []
    kill_in_os(patch, "link", lambda src, dst: links.append(dst) or len(links) == 3)


def _kill_before_the_artifact_manifest(patch, tmp_path):
    # every member is linked into the hidden temp directory; its manifest
    # (the seal) is the file about to be renamed into it
    kill_in_os(
        patch, "replace",
        lambda src, dst: Path(dst).name == "manifest.json"
        and Path(dst).parent.name.startswith(".artifact.npz.tmp-"),
    )


def _kill_between_the_publish_renames(patch, tmp_path):
    kill_in_os(patch, "replace", lambda src, dst: Path(dst) == tmp_path / "artifact.npz")


def _kill_removing_stale_generations(patch, tmp_path):
    real = shutil.rmtree

    def rmtree(path, *args, **kwargs):
        if Path(path).name.startswith(("graph_g", "model_g")):  # a generation's, not a temp dir
            die_like_kill_9(patch, "rmtree")
        return real(path, *args, **kwargs)

    patch.setattr(shutil, "rmtree", rmtree)


class TestOneWritePerGeneration:
    """The generation's single container write, its link publish, and every
    place a kill can fall around them."""

    CRASH_AT = 2

    def _reference_digests(self, base, batches, tmp_path):
        ref = _trainer(base, tmp_path / "ref")
        digests = []
        for batch in batches[: self.CRASH_AT + 1]:
            ref.run_generation(batch)
            digests.append(_digest(ref.state))
        ref.journal.close()
        return digests

    @pytest.mark.parametrize(
        "kill, lands",
        [
            (_kill_sealing_the_model_container, "pre"),
            ("post-checkpoint-pre-publish", "pre"),  # sealed, not yet linked
            (_kill_linking_the_third_file, "pre"),
            (_kill_before_the_artifact_manifest, "pre"),
            (_kill_between_the_publish_renames, "pre"),
            ("post-publish-pre-manifest", "pre"),  # linked, stream manifest not yet
            (_kill_removing_stale_generations, "post"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__.lstrip("_"),
    )
    def test_kill_resumes_in_the_pre_or_post_generation_state(
        self, stream, tmp_path, monkeypatch, kill, lands
    ):
        base, batches = stream
        digests = self._reference_digests(base, batches, tmp_path)
        work, publish = tmp_path / "work", tmp_path / "artifact.npz"
        faults = None
        if isinstance(kill, str):
            faults = StreamFaultPlan(
                seed=0, trainer_crashes=(TrainerCrash(phase=kill, generation=self.CRASH_AT),)
            )
        trainer = _trainer(base, tmp_path, faults=faults)
        for batch in batches[: self.CRASH_AT]:
            trainer.run_generation(batch)
        with monkeypatch.context() as patch:
            if faults is None:
                kill(patch, tmp_path)
            with pytest.raises(InjectedCrash):
                trainer.run_generation(batches[self.CRASH_AT])
        trainer.journal.close()

        resumed = StreamTrainer.resume(
            work, iterations_per_generation=N_ITER, heldout_fraction=0.05
        )
        pre, post = digests[self.CRASH_AT - 1], digests[self.CRASH_AT]
        assert _digest(resumed.state) == (pre if lands == "pre" else post)
        assert resumed.generation == self.CRASH_AT + (lands == "post")
        # whatever the kill interrupted, the publish path is a sealed artifact
        # of one of the two generations, and nothing hidden is left behind
        served = load_artifact(publish, verify="full")
        assert _digest_of_rows(served.pi) in {_digest_of_rows(s) for s in (
            load_state_checkpoint(p)[0].pi for p in sorted(work.glob("model_g*.store"))
        )}
        with ModelServer(served, n_workers=0) as server:
            assert server.publish_path(publish) == 1
        hidden = [p.name for d in (work, tmp_path) for p in d.iterdir() if p.name.startswith(".")]
        assert hidden == []
        # and the stream goes on to the uninterrupted run's state
        if lands == "pre":
            resumed.run_generation(batches[self.CRASH_AT])
            assert _digest(resumed.state) == post
        assert np.array_equal(load_artifact(publish).pi, resumed.state.pi)
        resumed.journal.close()

    def test_flipped_byte_is_caught_at_publish_and_at_resume(self, stream, tmp_path):
        base, batches = stream
        publish = tmp_path / "artifact.npz"
        trainer = _trainer(base, tmp_path)
        trainer.run_generation(batches[0])
        with ModelServer(load_artifact(publish), n_workers=0) as server:
            good = server.artifact.version
            trainer.run_generation(batches[1])
            with open(publish / "pi.npy", "r+b") as fh:  # in place: both names see it
                fh.seek(-40, os.SEEK_END)
                byte = fh.read(1)
                fh.seek(-40, os.SEEK_END)
                fh.write(bytes([byte[0] ^ 0x01]))
            with pytest.raises(ArtifactCorrupt, match="sha256 mismatch") as err:
                server.publish_path(publish)
            assert err.value.quarantined.name == "artifact.npz.quarantined"
            assert not publish.exists()
            assert server.artifact.version == good and server.generation == 0
        trainer.journal.close()
        with pytest.raises(ResumeError, match=r"model_g0001\.store.*sha256 mismatch"):
            StreamTrainer.resume(
                tmp_path / "work", iterations_per_generation=N_ITER, heldout_fraction=0.05
            )

    def test_mapped_artifact_bytes_stop_growing(self, stream, tmp_path):
        """Earlier generations' files stay mapped only while the server's
        ``ArtifactRegistry`` (capacity 4) holds them as rollback targets."""
        if not Path("/proc/self/maps").exists():
            pytest.skip("needs /proc/self/maps")
        base, batches = stream

        def mapped_pi_files():
            gc.collect()
            lines = Path("/proc/self/maps").read_text().splitlines()
            return sum(1 for ln in lines if str(tmp_path) in ln and "pi.npy" in ln)

        trainer = _trainer(base, tmp_path)
        trainer.run_generation()
        counts = []
        with ModelServer(load_artifact(tmp_path / "artifact.npz"), n_workers=0) as server:
            trainer.publish_callback = lambda path, _gen: server.publish_path(path)
            for batch in (batches + batches)[:7]:
                trainer.run_generation(batch)
                counts.append(mapped_pi_files())
            assert len(server._registry) == 4
        assert counts[:3] == [2, 3, 4]
        assert set(counts[3:]) == {4}
        trainer.journal.close()


def _digest_of_rows(pi) -> str:
    return hashlib.sha256(np.ascontiguousarray(pi).tobytes()).hexdigest()
