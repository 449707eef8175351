"""Crash-at-every-phase resume: exactly-once generations from the journal."""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.checkpoint import CheckpointError, load_state_checkpoint, save_state_checkpoint
from repro.core.state import init_state
from repro.faults import CRASH_PHASES, InjectedCrash, StreamFaultPlan, TrainerCrash
from repro.serve.artifact import ArtifactCorrupt, build_artifact, load_artifact, save_artifact
from repro.serve.server import ModelServer
import repro.store.container as container_module
from repro.store.container import Container
from repro.stream import EdgeArrival, ResumeError, StreamTrainer, SyntheticArrivalSource
from repro.stream.delta import DELTA_SPARE
from repro.stream.journal import IngestJournal
from tests.conftest import die_like_kill_9, flip_member_byte, kill_in_os

N_ITER = 8
#: the hidden names a stream workdir keeps: one spare per recycled role
MANIFEST_SPARE = ".manifest.json.spare"
SPARES = {MANIFEST_SPARE, DELTA_SPARE}


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


@pytest.fixture()
def snapshot_stream(planted):
    """Half the edges arrive, in four batches: by the rent-or-buy rule
    generation 1 writes a full snapshot and generation 2 a delta on it."""
    graph, _ = planted
    source = SyntheticArrivalSource(graph, base_fraction=0.5, seed=3)
    return source.base_graph(), list(source.batches(4))


def _assert_same_graph(workdir: Path, want):
    """The graph ``workdir``'s manifest names (snapshot + delta) equals
    ``want`` array for array: N, keys, indptr, indices."""
    got = StreamTrainer.digested_graph(workdir)
    assert got.n_vertices == want.n_vertices
    for name in ("keys", "_csr_indptr", "_csr_indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _named(manifest: dict) -> set[str]:
    """Workdir file names a stream manifest names."""
    keys = ("graph_path", "delta_path", "checkpoint_path")
    return {Path(manifest[k]).name for k in keys if manifest.get(k)}


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
    @pytest.mark.parametrize("record", ["delta", "snapshot"])
    @pytest.mark.parametrize("phase", CRASH_PHASES)
    def test_kill_then_resume_matches_uninterrupted(
        self, snapshot_stream, tmp_path, phase, record
    ):
        base, batches = snapshot_stream
        crash_at = {"snapshot": 1, "delta": 2}[record]

        # Uninterrupted reference.
        ref = _trainer(base, tmp_path / "ref")
        digests, snapshots = [], []
        for batch in batches:
            ref.run_generation(batch)
            digests.append(_digest(ref.state))
            snapshots.append(ref.overlay.delta_path is None)
        ref.journal.close()
        assert snapshots[crash_at] == (record == "snapshot")

        # Killed at `phase` during generation `crash_at`, then resumed.
        faults = StreamFaultPlan(
            seed=0, trainer_crashes=(TrainerCrash(phase=phase, generation=crash_at),)
        )
        trainer = _trainer(base, tmp_path / "kill", faults=faults)
        with pytest.raises(InjectedCrash, match=phase):
            for batch in batches:
                trainer.run_generation(batch)
        trainer.journal.close()  # the dead process's handle

        work = tmp_path / "kill" / "work"
        resumed = StreamTrainer.resume(
            work, iterations_per_generation=N_ITER, heldout_fraction=0.05
        )
        # the manifest commits before the journal GC: only a kill there lands
        # after the generation
        post = phase == "mid-compaction"
        assert _digest(resumed.state) == digests[crash_at - (not post)]
        assert resumed.generation == crash_at + post
        # At-least-once delivery: the crashed batch is re-fed; the journal
        # and overlay must fold it back to exactly-once state.
        for batch in batches[crash_at:]:
            previous = StreamTrainer.read_manifest(work)
            resumed.run_generation(batch)
        _assert_same_graph(work, ref.overlay.base)
        # the workdir holds what the last two manifests name, nothing more
        assert set(_generation_files(work)) == _named(previous) | _named(
            StreamTrainer.read_manifest(work)
        )
        resumed.journal.close()

    @pytest.mark.parametrize("phase", CRASH_PHASES)
    def test_kill_leaves_one_segment_that_replays_the_undigested_suffix(
        self, stream, tmp_path, phase
    ):
        base, batches = stream
        faults = StreamFaultPlan(
            seed=0, trainer_crashes=(TrainerCrash(phase=phase, generation=2),)
        )
        trainer = _trainer(base, tmp_path, faults=faults)
        with pytest.raises(InjectedCrash, match=phase):
            for batch in batches:
                trainer.run_generation(batch)
        trainer.close()
        work = tmp_path / "work"
        digested = StreamTrainer.read_manifest(work)["digested_seqno"]
        with IngestJournal(work / "journal") as journal:
            replayed = [e.seqno for e in journal.replay(after_seqno=digested)]
            assert replayed == list(range(digested + 1, journal.last_seqno + 1))
            assert len(replayed) == (phase != "mid-compaction")
        assert [p.name for p in (work / "journal").iterdir()] == ["seg-00000000.wal"]

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
        journal_dir = resumed.journal.directory
        before = len(list(journal_dir.glob("seg-*.wal")))
        resumed.run_generation(batches[2])
        assert len(list(journal_dir.glob("seg-*.wal"))) <= before
        StreamTrainer.digested_graph(tmp_path / "work")
        assert resumed.journal.compactions >= 1
        resumed.journal.close()


def _generation_files(workdir: Path) -> list[str]:
    return sorted(
        p.name
        for p in workdir.iterdir()
        if p.name.startswith(("base.", "graph_g", "model_g", "checkpoint_g"))
    )


class TestWorkdirStaysBounded:
    """Graph and model containers neither the manifest nor the one before
    it names are removed once it is durable (the workdir used to grow
    forever)."""

    def test_two_deltas_and_two_checkpoints_after_five_generations(
        self, stream, tmp_path
    ):
        base, batches = stream
        work = tmp_path / "work"
        trainer = _trainer(base, tmp_path)
        trainer.run_generation()
        # the base graph is the snapshot every delta so far is built on
        assert _generation_files(work) == [
            "base.csr", "graph_g0000.delta", "model_g0000.store",
        ]
        for batch in batches:
            trainer.run_generation(batch)
        assert trainer.generation == 5
        assert _generation_files(work) == [
            "base.csr", "graph_g0003.delta", "graph_g0004.delta",
            "model_g0003.store", "model_g0004.store",
        ]
        assert [r.checkpoint_path.exists() for r in trainer.reports] == [
            False, False, False, True, True,
        ]
        # one sealed container: the state and the serving members side by side
        assert Container(trainer.reports[-1].checkpoint_path).names() == [
            "beta", "node_ids", "phi_sum", "pi", "theta",
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
        assert manifest["graph_path"] == "base.csr"
        assert manifest["delta_path"] == "graph_g0002.delta"
        assert manifest["checkpoint_path"] == "model_g0002.store"
        resumed = StreamTrainer.resume(
            work, iterations_per_generation=N_ITER, heldout_fraction=0.05
        )
        assert resumed.generation == 3
        for batch in batches[2:]:
            resumed.run_generation(batch)
        assert _generation_files(work) == [
            "base.csr", "graph_g0003.delta", "graph_g0004.delta",
            "model_g0003.store", "model_g0004.store",
        ]
        resumed.journal.close()

    def test_a_snapshot_retires_the_one_before_it(self, snapshot_stream, tmp_path):
        base, batches = snapshot_stream
        work = tmp_path / "work"
        trainer = _trainer(base, tmp_path)
        trainer.run_generation(batches[0])
        trainer.run_generation(batches[1])  # the rent reached the snapshot's size
        manifest = StreamTrainer.read_manifest(work)
        assert (manifest["graph_path"], manifest["delta_path"]) == ("graph_g0001.csr", None)
        # the manifest before it still names the old snapshot and its delta
        assert _generation_files(work) == [
            "base.csr", "graph_g0000.delta", "graph_g0001.csr",
            "model_g0000.store", "model_g0001.store",
        ]
        trainer.run_generation(batches[2])
        assert _generation_files(work) == [
            "graph_g0001.csr", "graph_g0002.delta",
            "model_g0001.store", "model_g0002.store",
        ]
        _assert_same_graph(work, trainer.overlay.base)
        trainer.journal.close()

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


def _digest(state) -> str:
    h = hashlib.sha256()
    for arr in (state.pi, state.phi_sum, state.theta):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _kill_sealing_the_model_container(patch, tmp_path):
    # every member and the manifest are written and fsynced in the temp
    # file; the rename that makes it model_g0002.store is not done
    kill_in_os(patch, "replace", lambda src, dst: Path(dst).name == "model_g0002.store")


def _kill_sealing_the_graph_delta(patch, tmp_path):
    # the pairs and the manifest are written and fsynced; not yet renamed
    kill_in_os(patch, "replace", lambda src, dst: Path(dst).name == "graph_g0002.delta")


def _kill_linking_the_artifact(patch, tmp_path):
    # the model container is sealed; its second name is not made yet
    kill_in_os(patch, "link", lambda src, dst: Path(dst).name.startswith(".artifact.npz.tmp-"))


def _kill_renaming_the_link_over_the_artifact(patch, tmp_path):
    # the hard link exists beside the artifact; the rename over it is not done
    kill_in_os(patch, "replace", lambda src, dst: Path(dst) == tmp_path / "artifact.npz")


def _kill_after_taking_the_manifest_spare(patch, tmp_path):
    # the old manifest's spare is renamed to the temp name; nothing written yet
    kill_in_os(
        patch, "open",
        lambda path, flags, *_a: Path(path).name.startswith(".manifest.json.tmp-")
        and not flags & os.O_CREAT,
    )


def _kill_mid_write_over_a_longer_delta_spare(patch, tmp_path):
    # the spare is larger than the delta (here: a copy of the snapshot);
    # the pairs are written over its head, the manifest and trailer are not
    work = tmp_path / "work"
    shutil.copyfile(work / "base.csr", work / DELTA_SPARE)
    assert (work / DELTA_SPARE).stat().st_size > (work / "graph_g0001.delta").stat().st_size
    patch.setattr(
        container_module._Writer, "seal",
        lambda *_a: die_like_kill_9(patch, "_Writer.seal"),
    )


def _kill_between_linking_and_replacing_the_manifest(patch, tmp_path):
    # the live manifest also has the spare's name; the new one is not renamed over it
    kill_in_os(patch, "replace", lambda src, dst: Path(dst).name == "manifest.json")


def _kill_removing_stale_generations(patch, tmp_path):
    kill_in_os(
        patch, "unlink",
        # a generation's container, not a temp file
        lambda path, *_a: Path(path).name.startswith(("graph_g", "model_g")),
    )


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
            (_kill_sealing_the_graph_delta, "pre"),
            (_kill_sealing_the_model_container, "pre"),
            ("post-checkpoint-pre-publish", "pre"),  # sealed, not yet linked
            (_kill_linking_the_artifact, "pre"),
            (_kill_renaming_the_link_over_the_artifact, "pre"),
            ("post-publish-pre-manifest", "pre"),  # linked, stream manifest not yet
            (_kill_after_taking_the_manifest_spare, "pre"),
            (_kill_mid_write_over_a_longer_delta_spare, "pre"),
            (_kill_between_linking_and_replacing_the_manifest, "pre"),
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
        # of one of the two generations, no temp file is left behind, and
        # the only hidden names are the workdir's spares
        served = load_artifact(publish, verify="full")
        assert _digest_of_rows(served.pi) in {_digest_of_rows(s) for s in (
            load_state_checkpoint(p)[0].pi for p in sorted(work.glob("model_g*.store"))
        )}
        with ModelServer(served, n_workers=0) as server:
            assert server.publish_path(publish) == 1
        hidden = {p.name for d in (work, tmp_path) for p in d.iterdir() if p.name.startswith(".")}
        assert not {name for name in hidden if ".tmp-" in name}
        assert hidden <= SPARES, hidden
        # and the stream goes on to the uninterrupted run's state
        if lands == "pre":
            resumed.run_generation(batches[self.CRASH_AT])
            assert _digest(resumed.state) == post
        assert np.array_equal(load_artifact(publish).pi, resumed.state.pi)
        resumed.journal.close()

    def test_a_spare_that_is_the_live_manifest_is_not_written_over(self, stream, tmp_path):
        """A kill between linking the manifest to its spare and replacing it
        leaves the spare a second name of the live manifest: the next write
        must create its file afresh, leaving those bytes as they are."""
        base, batches = stream
        work = tmp_path / "work"
        manifest, spare = work / "manifest.json", work / MANIFEST_SPARE
        trainer = _trainer(base, tmp_path)
        trainer.run_generation(batches[0])
        assert spare.stat().st_nlink == 1  # the manifest generation 0 replaced
        spare.unlink()
        os.link(manifest, spare)
        live, inode = manifest.read_bytes(), manifest.stat().st_ino
        trainer.run_generation(batches[1])
        assert spare.stat().st_ino == inode and spare.read_bytes() == live
        assert spare.stat().st_nlink == 1
        assert manifest.stat().st_ino != inode
        assert StreamTrainer.read_manifest(work)["generation"] == 2
        trainer.journal.close()

    def test_flipped_byte_is_caught_at_publish_and_at_resume(self, stream, tmp_path):
        base, batches = stream
        publish = tmp_path / "artifact.npz"
        trainer = _trainer(base, tmp_path)
        trainer.run_generation(batches[0])
        with ModelServer(load_artifact(publish), n_workers=0) as server:
            good = server.artifact.version
            trainer.run_generation(batches[1])
            flip_member_byte(publish, "pi", at=-40, mask=0x01)  # in place: both names see it
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
            # one container file per artifact: count the distinct inodes
            gc.collect()
            lines = Path("/proc/self/maps").read_text().splitlines()
            return len({ln.split()[4] for ln in lines if str(tmp_path) in ln})

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
