"""Generation loop: warm starts, checkpoints, publishing, fault injection."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import inspect
import multiprocessing

import numpy as np
import pytest

import repro.stream.trainer as trainer_module
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.sampler import AMMSBSampler
from repro.graph.split import HeldoutSplit, split_heldout
from repro.faults import InjectedCrash, PublishFailure, StreamFaultPlan, TrainerCrash
from repro.serve.artifact import ARTIFACT_KIND, load_artifact
from repro.serve.engine import QueryEngine
from repro.serve.server import ModelServer
from repro.store import read_manifest
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

    @pytest.mark.parametrize("end", ["close", "with", "collection"])
    def test_one_draw_process_outlives_the_generations(self, stream, tmp_path, end):
        """The trainer's draw process is forked at its first generation,
        lives through the next and ends with the trainer."""
        base, batches = stream
        gc.collect()
        before = set(multiprocessing.active_children())
        trainer = StreamTrainer(base, _config(), tmp_path, iterations_per_generation=30)
        with trainer if end == "with" else contextlib.nullcontext():
            trainer.run_generation()
            (process,) = set(multiprocessing.active_children()) - before
            trainer.run_generation(batches[0])
            assert set(multiprocessing.active_children()) - before == {process}
            if end == "close":
                trainer.close()
                trainer.close()
            elif end == "collection":
                del trainer
                gc.collect()
        assert not process.is_alive()
        assert set(multiprocessing.active_children()) == before

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

    def test_a_generation_container_resumes_a_sampler(self, stream, tmp_path):
        """``load_checkpoint`` reads a generation's model container: the
        state and the stream's clock, which is all an iteration needs."""
        from repro.core.checkpoint import load_checkpoint
        from repro.core.sampler import AMMSBSampler

        base, _ = stream
        trainer = StreamTrainer(base, _config(), tmp_path, iterations_per_generation=12)
        rep0 = trainer.run_generation()
        resumed = load_checkpoint(rep0.checkpoint_path, base)
        assert resumed.iteration == trainer.iteration == 12
        same = AMMSBSampler(base, _config(), state=trainer.state.copy())
        same.iteration = 12
        for s in (resumed, same):
            s.run(4)
        for name in ("pi", "phi_sum", "theta"):
            np.testing.assert_array_equal(getattr(resumed.state, name), getattr(same.state, name))

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
        assert read_manifest(tmp_path / "model_g0001.store")["kind"] == ARTIFACT_KIND
        assert load_artifact(tmp_path / "artifact.npz").version == v0


class TestEachGenerationDrawsAtItsClock:
    """A generation's draws are keyed by the stream's cumulative clock.
    They used to restart a master stream from the seed, so every
    generation replayed generation 0's mini-batches, rescaled by N_g/N_0."""

    @pytest.mark.parametrize("engine", ["sequential", "mp"])
    def test_first_minibatch_is_the_one_keyed_by_the_clock(
        self, stream, tmp_path, monkeypatch, engine
    ):
        from repro.core.minibatch import DRAW, MinibatchSampler, block_rng

        base, batches = stream
        first = {}  # sampler -> its first mini-batch, in order of use
        sample = MinibatchSampler.sample

        def recording(sampler, rng):
            minibatch = sample(sampler, rng)
            first.setdefault(sampler, minibatch)
            return minibatch

        monkeypatch.setattr(MinibatchSampler, "sample", recording)
        config = _config().with_updates(mini_batch_vertices=256)  # several strata
        trainer = StreamTrainer(
            base, config, tmp_path, iterations_per_generation=6,
            engine=engine, n_workers=2,
        )
        trainer.run([[], *batches])
        monkeypatch.undo()
        assert len(first) == 3
        anchors, sizes = [], []
        for gen, (sampler, got) in enumerate(first.items()):
            want = sampler.sample(block_rng(config.seed, DRAW, 0, 6 * gen))
            np.testing.assert_array_equal(got.vertices, want.vertices)
            for a, b in zip(got.strata, want.strata, strict=True):
                np.testing.assert_array_equal(a.pairs, b.pairs)
                assert a.scale == b.scale
            anchors.append(np.array([s.pairs[0, 0] for s in got.strata]))
            sizes.append(sampler.graph.n_vertices)
        assert sizes[0] < sizes[1] < sizes[2]  # the batches grew the graph
        for gen in (1, 2):
            ratio = sizes[gen] / sizes[0]
            n = min(anchors[0].size, anchors[gen].size)
            rescaled = np.abs(anchors[gen][:n] - anchors[0][:n] * ratio) <= ratio + 1
            assert not rescaled.all()


class TestOneDrawProcessPerTrainer:
    """A trainer forks one draw process and re-arms it each generation on
    the generation's training graph; the generations end on the bits of
    one fresh sampler (and draw process) per generation."""

    def _run(self, base, batches, workdir, monkeypatch, sampler, heldouts=None):
        started, graphs, digests = [], [], []
        real_start = multiprocessing.process.BaseProcess.start

        def start(process):
            started.append(process)
            real_start(process)

        def recording(*args, **kwargs):
            graphs.append(args[0])
            return sampler(*args, **kwargs)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        monkeypatch.setattr(trainer_module, "AMMSBSampler", recording)
        with StreamTrainer(base, _config(), workdir, iterations_per_generation=12) as trainer:
            for batch in [[], *batches]:
                heldout = heldouts(trainer, batch) if heldouts else None
                trainer.run_generation(batch, heldout=heldout)
                draws = trainer._draws
                digests.append((draws.digest, draws.owed, draws.epoch))
        monkeypatch.undo()
        return trainer, started, graphs, digests

    @staticmethod
    def _fresh(*args, _draws=None, **kwargs):
        """A sampler that forks its own draw process, as every generation's
        did before the trainer owned one."""
        return AMMSBSampler(*args, **kwargs)

    def test_three_generations_fork_once_on_the_fresh_samplers_bits(
        self, stream, tmp_path, monkeypatch
    ):
        base, batches = stream
        trainer, started, graphs, digests = self._run(
            base, batches, tmp_path / "one", monkeypatch, AMMSBSampler
        )
        assert len(started) == 1
        # re-armed each generation, which ended asking for the next call's
        # first draw; the child's training graph is the sampler's
        assert digests == [
            (trainer_module.key_digest(g), 1, epoch) for epoch, g in enumerate(graphs, 1)
        ]
        assert len(set(digests)) == 3  # the graph grew every generation
        fresh, started, _, _ = self._run(
            base, batches, tmp_path / "fresh", monkeypatch, self._fresh
        )
        assert len(started) == 3 + 1  # the trainer's, idle, and one per sampler
        assert _digest(fresh.state) == _digest(trainer.state)

    def test_a_generation_failing_after_its_compaction_forks_anew(
        self, stream, tmp_path, monkeypatch
    ):
        """A generation that merged its arrivals and then failed before
        re-arming leaves the draw process a delta behind: the next one
        forks a new process instead of re-arming it."""
        base, batches = stream
        split_heldout = trainer_module.split_heldout
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("held-out set would consume the whole graph")
            return split_heldout(*args, **kwargs)

        def run(workdir, sampler):
            started = []
            real_start = multiprocessing.process.BaseProcess.start
            monkeypatch.setattr(
                multiprocessing.process.BaseProcess, "start",
                lambda p: started.append(p) or real_start(p),
            )
            monkeypatch.setattr(trainer_module, "split_heldout", fails_once)
            monkeypatch.setattr(trainer_module, "AMMSBSampler", sampler)
            calls.clear()
            with StreamTrainer(base, _config(), workdir, iterations_per_generation=12) as t:
                t.run_generation()
                with pytest.raises(ValueError, match="consume"):
                    t.run_generation(batches[0])  # merged, then failed
                t.run_generation(batches[1])
            monkeypatch.undo()
            return t, started

        trainer, started = run(tmp_path / "one", AMMSBSampler)
        assert len(started) == 2
        fresh, _ = run(tmp_path / "fresh", self._fresh)
        assert _digest(fresh.state) == _digest(trainer.state)

    def test_a_split_cut_another_way_is_drawn_inline(self, stream, tmp_path, monkeypatch):
        """A caller's split whose training graph is not the compacted graph
        minus its held-out links fails the digest check: every draw is
        made inline, to the bits of a fresh sampler on that graph."""

        def uncut(trainer, batch):  # no arrivals: the base is the graph it trains on
            graph = trainer.overlay.base
            split = split_heldout(graph, 0.05, rng=np.random.default_rng(trainer.generation))
            return HeldoutSplit(graph, split.heldout_pairs, split.heldout_labels)

        base, _ = stream
        trainer, _, graphs, digests = self._run(
            base, [[], []], tmp_path / "one", monkeypatch, AMMSBSampler, heldouts=uncut
        )
        assert all(d != trainer_module.key_digest(g) for (d, _, _), g in zip(digests, graphs))
        fresh, _, _, _ = self._run(
            base, [[], []], tmp_path / "fresh", monkeypatch, self._fresh, heldouts=uncut
        )
        assert _digest(fresh.state) == _digest(trainer.state)


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
        # zero N*K bytes moved: the published file IS the container
        assert (tmp_path / "artifact.npz").stat().st_ino == report.checkpoint_path.stat().st_ino
        trainer.journal.close()

    def test_refused_hard_link_publishes_a_verified_copy(
        self, stream, tmp_path, no_hard_links
    ):
        base, batches = stream
        trainer = _published(base, tmp_path)
        report = trainer.run_generation(batches[0])
        assert report.published
        published = tmp_path / "artifact.npz"
        assert published.stat().st_ino != report.checkpoint_path.stat().st_ino
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


def test_the_other_names_the_benchmark_tracer_rebinds_exist():
    """``_install`` also wraps these, by ``getattr`` on their owners."""
    import repro.stream.delta as delta_module
    from repro.stream.delta import DeltaOverlay
    from repro.stream.journal import IngestJournal

    for owner, names in (
        (DeltaOverlay, ("compact", "ingest_pairs")),
        (IngestJournal, ("append_edges", "compact")),
        (ModelServer, ("publish_path",)),
    ):
        for name in names:
            assert callable(getattr(owner, name)), f"{owner.__name__}.{name}"
    # it sizes ``args[1]`` of ``save_csr``: the path
    assert list(inspect.signature(delta_module.save_csr).parameters)[:2] == ["graph", "path"]


def test_a_snapshot_is_written_through_the_traced_name(tiny_graph, tmp_path, monkeypatch):
    """The rebound ``repro.stream.delta.save_csr`` sees each snapshot as
    ``(graph, path)``, and a delta compaction does not call it."""
    import repro.stream.delta as delta_module
    from repro.stream.delta import DeltaOverlay

    calls = []
    real = delta_module.save_csr
    monkeypatch.setattr(
        delta_module, "save_csr", lambda *args: calls.append(args) or real(*args)
    )
    overlay = DeltaOverlay(tiny_graph)
    overlay.compact(tmp_path / "base")
    overlay.ingest_pairs(np.array([[0, 5]]))
    overlay.compact(tmp_path / "g0")
    assert [(g.n_edges, path) for g, path in calls] == [
        (tiny_graph.n_edges, tmp_path / "base.csr")
    ]
    assert overlay.delta_path == tmp_path / "g0.delta"
