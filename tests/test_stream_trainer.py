"""Generation loop: warm starts, checkpoints, publishing, fault injection."""

from __future__ import annotations

import hashlib
import inspect

import numpy as np
import pytest

import repro.stream.trainer as trainer_module
from repro.config import AMMSBConfig, StepSizeConfig
from repro.faults import InjectedCrash, PublishFailure, StreamFaultPlan, TrainerCrash
from repro.serve.artifact import load_artifact
from repro.serve.engine import QueryEngine
from repro.serve.server import ModelServer
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
        """Either engine persists, then publishes: a kill between the two
        leaves the model container on disk and the previous artifact serving."""
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
        assert (tmp_path / "model_g0001.store" / "manifest.json").exists()
        assert load_artifact(tmp_path / "artifact.npz").version == v0


def _published(base, tmp_path):
    return StreamTrainer(
        base, _config(), tmp_path / "work", iterations_per_generation=8,
        publish_path=tmp_path / "artifact.npz", heldout_fraction=0.05,
    )


def _digest(state) -> str:
    h = hashlib.sha256()
    for arr in (state.pi, state.phi_sum, state.theta):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestOneContainerPerGeneration:
    """A generation persists once; the publish is hard links to it."""

    def test_served_rows_are_the_trainers(self, stream, tmp_path):
        base, batches = stream
        trainer = _published(base, tmp_path)
        report = trainer.run_generation(batches[0])
        served = load_artifact(tmp_path / "artifact.npz", verify="full")
        assert np.array_equal(served.pi, trainer.state.pi)
        assert np.array_equal(served.beta, trainer.state.beta)
        # so the server scores a pair exactly as the trainer's own kernel does
        pairs = np.array([[0, 1], [5, 9], [3, 160]])
        engine = QueryEngine(served)
        a, b = trainer.state.pi[pairs[:, 0]], trainer.state.pi[pairs[:, 1]]
        assert np.array_equal(
            engine.link_probability(pairs),
            engine.kernels.link_probability(a, b, trainer.state.beta, trainer.config.delta),
        )
        # zero N*K bytes moved: the published files ARE the container's
        for name in ("pi.npy", "top_weights.npy"):
            assert (tmp_path / "artifact.npz" / name).stat().st_ino == (
                report.checkpoint_path / name
            ).stat().st_ino
        trainer.journal.close()

    def test_refused_hard_link_publishes_a_verified_copy(
        self, stream, tmp_path, no_hard_links
    ):
        base, batches = stream
        trainer = _published(base, tmp_path)
        report = trainer.run_generation(batches[0])
        assert report.published
        published = tmp_path / "artifact.npz" / "pi.npy"
        assert published.stat().st_ino != (report.checkpoint_path / "pi.npy").stat().st_ino
        with ModelServer(load_artifact(tmp_path / "artifact.npz"), n_workers=0) as server:
            server.publish_path(tmp_path / "artifact.npz")
            assert np.array_equal(server.artifact.pi, trainer.state.pi)
        trainer.journal.close()

    def test_unservable_state_is_a_recorded_publish_failure(
        self, stream, tmp_path, monkeypatch
    ):
        base, batches = stream
        trainer = _published(base, tmp_path)
        trainer.run_generation(batches[0])
        before = load_artifact(tmp_path / "artifact.npz").version
        train = StreamTrainer._train

        def lopsided(self, heldout, n_iter):
            state = train(self, heldout, n_iter)
            state.theta[0] = (1e-30, 1.0)  # beta rounds to 1.0: valid state, no artifact
            return state

        monkeypatch.setattr(StreamTrainer, "_train", lopsided)
        report = trainer.run_generation(batches[1])
        assert not report.published and "beta" in report.publish_error
        assert load_artifact(tmp_path / "artifact.npz", verify="full").version == before
        trainer.journal.close()
        resumed = StreamTrainer.resume(
            tmp_path / "work", iterations_per_generation=8, heldout_fraction=0.05
        )
        assert _digest(resumed.state) == _digest(trainer.state)
        resumed.journal.close()


def test_the_names_the_benchmark_tracer_rebinds_exist():
    """``e2e_bench/stream.py::_install`` does ``getattr`` on this module for
    each of them and sizes the first positional argument of the two writers."""
    for name in (
        "split_heldout", "extend_state_informed", "save_state_checkpoint",
        "export_artifact", "AMMSBSampler",
    ):
        assert callable(getattr(trainer_module, name)), name
    for writer in (trainer_module.save_state_checkpoint, trainer_module.export_artifact):
        assert next(iter(inspect.signature(writer).parameters)) == "path"
    # the one write of a generation goes through the traced name
    source = inspect.getsource(trainer_module.StreamTrainer.run_generation)
    assert source.count("export_artifact(") == 1 and "save_state_checkpoint" not in source
