"""Generation loop: warm starts, checkpoints, publishing, fault injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.faults import InjectedCrash, PublishFailure, StreamFaultPlan, TrainerCrash
from repro.serve.artifact import load_artifact
from repro.stream import StreamTrainer, SyntheticArrivalSource


def _config(k=4, seed=11):
    return AMMSBConfig(
        n_communities=k,
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
    return source.base_graph(), list(source.batches(2))


class TestGenerationLoop:
    def test_two_generations_grow_the_model(self, stream, tmp_path):
        base, batches = stream
        trainer = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=30,
            publish_path=tmp_path / "artifact.npz",
        )
        rep0 = trainer.run_generation()
        assert rep0.generation == 0
        assert rep0.n_vertices == base.n_vertices
        assert trainer.state.pi.shape[0] == base.n_vertices
        assert rep0.published and rep0.checkpoint_path.exists()

        rep1 = trainer.run_generation(batches[0])
        assert rep1.generation == 1
        assert rep1.ingest.accepted > 0
        assert rep1.n_new_nodes > 0
        # Warm start: the state grew to cover the new vertices, and the
        # schedule clock kept running instead of restarting.
        assert trainer.state.pi.shape[0] == rep1.n_vertices
        assert trainer.iteration == 60
        assert np.isfinite(rep1.perplexity)
        # The published artifact covers the grown graph.
        art = load_artifact(tmp_path / "artifact.npz")
        assert art.n_nodes == rep1.n_vertices

    def test_publish_callback_fires_per_publish(self, stream, tmp_path):
        base, batches = stream
        calls = []
        trainer = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=10,
            publish_path=tmp_path / "artifact.npz",
            publish_callback=lambda path, gen: calls.append((path, gen)),
        )
        trainer.run_generation()
        trainer.run_generation(batches[0])
        assert [g for _, g in calls] == [0, 1]

    def test_run_replays_batches(self, stream, tmp_path):
        base, batches = stream
        trainer = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=10
        )
        reports = trainer.run(batches)
        assert [r.generation for r in reports] == [0, 1]
        assert trainer.generation == 2

    def test_no_publish_path_trains_without_artifacts(self, stream, tmp_path):
        base, _ = stream
        trainer = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=10
        )
        rep = trainer.run_generation()
        assert not rep.published and rep.artifact_path is None

    def test_constructor_validation(self, stream, tmp_path):
        base, _ = stream
        with pytest.raises(ValueError, match="engine"):
            StreamTrainer(base, _config(), tmp_path, engine="gpu")
        with pytest.raises(ValueError, match="iterations"):
            StreamTrainer(base, _config(), tmp_path,
                          iterations_per_generation=0)


class TestFromCheckpoint:
    def test_resumes_state_and_clock(self, stream, tmp_path):
        base, batches = stream
        t1 = StreamTrainer(
            base, _config(), tmp_path / "a", iterations_per_generation=30
        )
        rep0 = t1.run_generation()

        t2 = StreamTrainer.from_checkpoint(
            rep0.checkpoint_path, base, tmp_path / "b",
            iterations_per_generation=15,
        )
        assert t2.iteration == 30
        np.testing.assert_array_equal(t2.state.pi, t1.state.pi)
        rep = t2.run_generation(batches[0])
        assert t2.iteration == 45
        assert rep.n_new_nodes > 0

    def test_vertex_mismatch_rejected(self, stream, tmp_path, tiny_graph):
        base, _ = stream
        t1 = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=5
        )
        rep0 = t1.run_generation()
        with pytest.raises(ValueError, match="vertices"):
            StreamTrainer.from_checkpoint(
                rep0.checkpoint_path, tiny_graph, tmp_path
            )


class TestFaultInjection:
    def test_malformed_arrivals_quarantined_not_fatal(self, stream, tmp_path):
        base, batches = stream
        plan = StreamFaultPlan(seed=7, malformed_rate=0.4, out_of_order_rate=0.2)
        trainer = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=10,
            publish_path=tmp_path / "artifact.npz", faults=plan,
        )
        trainer.run_generation()
        rep = trainer.run_generation(batches[0])
        assert rep.ingest.quarantined > 0
        assert rep.published  # a dirty stream never blocks training
        assert len(trainer.overlay.quarantined) == rep.ingest.quarantined

    def test_publish_failure_keeps_last_known_good(self, stream, tmp_path):
        base, batches = stream
        plan = StreamFaultPlan(seed=7, publish_failures=(PublishFailure(1),))
        trainer = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=10,
            publish_path=tmp_path / "artifact.npz", faults=plan,
        )
        trainer.run_generation()
        v0 = load_artifact(tmp_path / "artifact.npz").version

        rep1 = trainer.run_generation(batches[0])
        assert not rep1.published
        assert "publish failure" in rep1.publish_error
        # Last-known-good artifact is untouched on disk.
        assert load_artifact(tmp_path / "artifact.npz").version == v0
        assert rep1.artifact_path == tmp_path / "artifact.npz"

        rep2 = trainer.run_generation(batches[1])
        assert rep2.published
        assert load_artifact(tmp_path / "artifact.npz").version != v0

    def test_empty_plan_is_dropped(self, stream, tmp_path):
        base, _ = stream
        trainer = StreamTrainer(
            base, _config(), tmp_path, faults=StreamFaultPlan(seed=1)
        )
        assert trainer.faults is None


class TestMultiprocessEngine:
    def test_mp_generation_publishes_via_hook(self, stream, tmp_path):
        base, batches = stream
        trainer = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=8,
            publish_path=tmp_path / "artifact.npz", engine="mp", n_workers=2,
        )
        rep0 = trainer.run_generation()
        rep1 = trainer.run_generation(batches[0])
        assert rep0.published and rep1.published
        art = load_artifact(tmp_path / "artifact.npz")
        assert art.n_nodes == rep1.n_vertices
        assert trainer.state.pi.shape[0] == rep1.n_vertices

    def test_mp_generation_killed_before_publish_has_not_published(
        self, stream, tmp_path
    ):
        """Either engine checkpoints, then publishes: a kill between the
        two leaves the checkpoint on disk and the previous artifact serving."""
        base, batches = stream
        crash = TrainerCrash(phase="post-checkpoint-pre-publish", generation=1)
        trainer = StreamTrainer(
            base, _config(), tmp_path, iterations_per_generation=8,
            publish_path=tmp_path / "artifact.npz", engine="mp", n_workers=2,
            faults=StreamFaultPlan(seed=0, trainer_crashes=(crash,)),
        )
        trainer.run_generation()
        v0 = load_artifact(tmp_path / "artifact.npz").version
        with pytest.raises(InjectedCrash, match="post-checkpoint-pre-publish"):
            trainer.run_generation(batches[0])
        assert (tmp_path / "checkpoint_g0001.npz").exists()
        assert load_artifact(tmp_path / "artifact.npz").version == v0
