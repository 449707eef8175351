"""Sequential sampler (Algorithm 1) behaviour tests."""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import stages
from repro.core.checkpoint import (
    load_checkpoint, load_state_checkpoint, save_checkpoint, save_state_checkpoint,
)
from repro.core.minibatch import ROW_BLOCK, n_blocks
from repro.core.perplexity import PerplexityEstimator
import repro.core.sampler as sampler_module
from repro.core.sampler import AMMSBSampler
from repro.graph.split import split_heldout
from repro.parallel.sampler import ThreadedAMMSBSampler


class TestStep:
    def test_invariants_preserved_across_iterations(self, planted, config):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        for _ in range(20):
            s.step()
            s.state.validate()

    def test_iteration_counter_and_history(self, planted, config):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        stats = s.run(5)
        assert s.iteration == 5
        assert [x.iteration for x in stats] == list(range(5))
        assert len(s.history) == 5

    def test_step_sizes_decay_in_history(self, planted, config):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        s.run(50)
        steps = [x.step_phi for x in s.history]
        assert steps[0] > steps[-1]

    def test_deterministic_given_seed(self, planted, config):
        graph, _ = planted
        s1 = AMMSBSampler(graph, config)
        s2 = AMMSBSampler(graph, config)
        s1.run(10)
        s2.run(10)
        np.testing.assert_array_equal(s1.state.pi, s2.state.pi)
        np.testing.assert_array_equal(s1.state.theta, s2.state.theta)

    def test_different_seeds_differ(self, planted, config):
        graph, _ = planted
        s1 = AMMSBSampler(graph, config)
        s2 = AMMSBSampler(graph, config.with_updates(seed=777))
        s1.run(5)
        s2.run(5)
        assert not np.allclose(s1.state.pi, s2.state.pi)

    def test_only_minibatch_rows_change(self, planted, config):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        before = s.state.pi.copy()
        mb = s.minibatch_sampler.sample(s.rng)
        ns = s.minibatch_sampler.sample_neighbors(mb.vertices, s.rng)
        s.update_phi_pi(mb, ns)
        changed = np.flatnonzero(np.any(s.state.pi != before, axis=1))
        assert set(changed) <= set(mb.vertices.tolist())

    def test_callback_invoked(self, planted, config):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        seen = []
        s.run(3, callback=lambda st: seen.append(st.iteration))
        assert seen == [0, 1, 2]


class TestPerplexityTracking:
    def test_perplexity_recorded_at_interval(self, planted, config):
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        s = AMMSBSampler(split.train, config, heldout=split)
        stats = s.run(20, perplexity_every=10)
        vals = [x.perplexity for x in stats if x.perplexity is not None]
        assert len(vals) == 2
        assert s.perplexity_estimator.n_samples == 2

    def test_no_heldout_no_estimator(self, planted, config):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        assert s.perplexity_estimator is None
        s.run(3, perplexity_every=1)  # must not crash


class TestConvergence:
    def test_perplexity_improves_on_planted_graph(self, planted):
        """After a few thousand iterations, averaged perplexity beats both
        the initial value and the coin-flip bound of 2 x ... loosely."""
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        cfg = AMMSBConfig(
            n_communities=4,
            mini_batch_vertices=48,
            neighbor_sample_size=24,
            seed=11,
            step_phi=StepSizeConfig(a=0.05),
            step_theta=StepSizeConfig(a=0.05),
        )
        s = AMMSBSampler(split.train, cfg, heldout=split)
        s.run(60, perplexity_every=30)
        early = s.perplexity_estimator.value()
        s.perplexity_estimator = PerplexityEstimator(  # a fresh average
            split.heldout_pairs, split.heldout_labels, cfg.delta
        )
        s.run(2500, perplexity_every=50)
        late = s.perplexity_estimator.value()
        assert late < early * 0.85
        assert late < 3.0

    def test_recovers_planted_communities(self, planted):
        graph, truth = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        cfg = AMMSBConfig(
            n_communities=4,
            mini_batch_vertices=48,
            neighbor_sample_size=24,
            seed=11,
            step_phi=StepSizeConfig(a=0.05),
            step_theta=StepSizeConfig(a=0.05),
        )
        s = AMMSBSampler(split.train, cfg, heldout=split)
        s.run(2500)
        from repro.graph.metrics import best_match_f1, covers_from_pi

        covers = covers_from_pi(s.state.pi, threshold=0.3)
        f1 = best_match_f1(covers, truth.covers)
        # Chance-level best-match F1 for 4 planted communities is ~0.35.
        assert f1 > 0.6


# -- run() draws one iteration ahead ---------------------------------------------


def step_by_step(sampler, n, perplexity_every=0, callback=None):
    """``run(n)`` as it was before the look-ahead: ``n`` calls of ``step()``,
    each followed by the perplexity record and the callback. The reference
    every look-ahead test compares against."""
    for _ in range(n):
        stats = sampler.step()
        if (
            perplexity_every
            and sampler.perplexity_estimator is not None
            and sampler.iteration % perplexity_every == 0
        ):
            sampler.perplexity_estimator.record(
                sampler.state.pi, sampler.state.beta, iteration=sampler.iteration
            )
            stats.perplexity = sampler.perplexity_estimator.value()
        if callback:
            callback(stats)


def replayed(sampler, n):
    """``n`` iterations as their public stage calls, drawn from
    ``sampler.rng`` — the shape a tracer replays ``step()`` in."""
    draws = sampler.minibatch_sampler
    for _ in range(n):
        minibatch = draws.sample(sampler.rng)
        neighbors = draws.sample_neighbors(minibatch.vertices, sampler.rng)
        sampler.update_phi_pi(minibatch, neighbors)
        sampler.update_beta_theta(minibatch)
        sampler.iteration += 1


def assert_same_state(a, b):
    for name in ("pi", "phi_sum", "theta"):
        np.testing.assert_array_equal(getattr(a.state, name), getattr(b.state, name))
    assert a.iteration == b.iteration


def assert_same_run(a, b):
    """Same state, clock and history (``draw_wait_s`` is a timing, so it
    is the one field allowed to differ)."""
    assert_same_state(a, b)
    untimed = lambda s: [dataclasses.replace(x, draw_wait_s=0.0) for x in s.history]  # noqa: E731
    assert untimed(a) == untimed(b)


class Boom(RuntimeError):
    pass


def raise_on_call(fn, n):
    """``fn`` that raises :class:`Boom` on its ``n``-th call."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise Boom(f"call {n}")
        return fn(*args, **kwargs)

    return wrapped


def raise_at(fn, t):
    """``fn(iteration)`` that raises :class:`Boom` at iteration ``t``.
    Keyed by the iteration, not by a count of calls: a count does not
    cross the fork to the draw process, the iteration does."""

    def wrapped(iteration):
        if iteration == t:
            raise Boom(f"draw {t}")
        return fn(iteration)

    return wrapped


ENGINES = {
    "sequential": AMMSBSampler,
    "threaded": lambda *a, **k: ThreadedAMMSBSampler(*a, n_threads=2, **k),
}


class TestLookAhead:
    """``run()`` draws iteration t+1 in a forked process while iteration t
    is applied: nothing a caller can see may differ from ``n x step()``.
    A draw is a function of (seed, t), so there is nothing to hand back."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("strategy", ["stratified-random-node", "random-pair", "full-batch"])
    def test_run_is_n_steps(self, split, config, engine, dtype, strategy, tmp_path):
        cfg = config.with_updates(dtype=dtype, strategy=strategy)
        looked, stepped, replay = (
            ENGINES[engine](split.train, cfg, heldout=split) for _ in range(3)
        )
        looked.run(12, perplexity_every=5)
        step_by_step(stepped, 12, perplexity_every=5)
        replayed(replay, 12)
        assert_same_run(looked, stepped)
        assert_same_state(looked, replay)
        assert [x.perplexity is not None for x in looked.history].count(True) == 2
        # and across calls: each run() ends holding the next call's first draw
        looked.run(3)
        stepped.run(1)
        step_by_step(stepped, 2)
        replayed(replay, 3)
        assert_same_run(looked, stepped)
        assert_same_state(looked, replay)
        save_state_checkpoint(tmp_path / "ck", looked.state, looked.iteration, cfg)

        def moved(move):
            """The clock moved between two calls: the held draw (of the
            iteration the last call ended on) is drained, never used."""
            assert looked._ahead.owed == 1
            for s in (looked, stepped, replay):
                move(s)
            looked.run(4)
            step_by_step(stepped, 4)
            replayed(replay, 4)
            assert_same_run(looked, stepped)
            assert_same_state(looked, replay)

        def set_to(t):
            def move(s):
                s.iteration = t
            return move

        def resume(s):
            s.state, s.iteration, _ = load_state_checkpoint(tmp_path / "ck")

        moved(set_to(40))  # ahead
        moved(lambda s: s.step() if s is not replay else replayed(s, 1))
        moved(resume)  # back
        moved(set_to(looked.iteration - 1))
        looked.close()

    @pytest.mark.parametrize("t", [0, 1, 7])
    def test_a_sampler_set_to_t_draws_what_one_that_ran_t_draws(self, split, config, t):
        ran, fresh = (AMMSBSampler(split.train, config, heldout=split) for _ in range(2))
        ran.run(t)
        fresh.iteration = t
        draws = []
        for s in (ran, fresh):
            minibatch = s.minibatch_sampler.sample(s.rng)
            neighbors = s.minibatch_sampler.sample_neighbors(minibatch.vertices, s.rng)
            draws.append((minibatch.all_pairs()[0], neighbors.neighbors))
        minibatch, neighbors, noise = fresh._draw(t)  # what step() draws at t
        draws.append((minibatch.all_pairs()[0], neighbors.neighbors))
        m = minibatch.n_vertices
        np.testing.assert_array_equal(
            noise, stages.phi_noise(config, t, range(n_blocks(m, ROW_BLOCK)), m)
        )
        for pairs, neighbors in draws[1:]:
            np.testing.assert_array_equal(pairs, draws[0][0])
            np.testing.assert_array_equal(neighbors, draws[0][1])
        # and given the state too, it continues as the one that ran
        fresh.state = ran.state.copy()
        ran.run(5)
        fresh.run(5)
        assert_same_state(ran, fresh)

    def test_a_callback_that_steps_is_followed(self, planted, config):
        graph, _ = planted

        def callback_of(s):
            def callback(stats):
                if stats.iteration == 3:
                    s.step()
            return callback

        looked, stepped = AMMSBSampler(graph, config), AMMSBSampler(graph, config)
        looked.run(8, callback=callback_of(looked))
        step_by_step(stepped, 8, callback=callback_of(stepped))
        assert_same_run(looked, stepped)
        assert looked.iteration == 9

    def test_checkpoint_from_a_callback_resumes_to_the_uninterrupted_state(
        self, split, config, tmp_path
    ):
        whole = AMMSBSampler(split.train, config, heldout=split)

        def save_at_7(_stats):
            if whole.iteration == 7:
                save_checkpoint(tmp_path / "ck", whole)

        whole.run(20, perplexity_every=4, callback=save_at_7)
        resumed = load_checkpoint(tmp_path / "ck", split.train, heldout=split)
        assert resumed.iteration == 7
        resumed.run(13, perplexity_every=4)
        for name in ("pi", "phi_sum", "theta"):
            np.testing.assert_array_equal(getattr(whole.state, name), getattr(resumed.state, name))
        assert resumed.iteration == 20
        assert whole.perplexity_estimator.value() == resumed.perplexity_estimator.value()

    @pytest.mark.parametrize("n, processes", [(0, 0), (1, 0), (2, 1), (5, 1)])
    def test_runs_of_two_or_more_start_one_helper(
        self, planted, config, monkeypatch, n, processes
    ):
        """One draw process per sampler lifetime, none for runs of n < 2."""
        graph, _ = planted
        started = []
        real_start = multiprocessing.process.BaseProcess.start

        def start(process):
            started.append(process)
            real_start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        looked, stepped = AMMSBSampler(graph, config), AMMSBSampler(graph, config)
        for _ in range(3):  # the process outlives a run()
            looked.run(n)
        monkeypatch.undo()
        step_by_step(stepped, 3 * n)
        assert len(started) == processes
        assert_same_run(looked, stepped)
        looked.close()
        assert not any(process.is_alive() for process in started)

    def test_draw_wait_is_timed(self, planted, config):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        assert s.step().draw_wait_s > 0
        assert all(x.draw_wait_s >= 0 for x in s.run(5))
        assert s.history[1].draw_wait_s > 0  # after a step(), run()'s first is inline
        s.close()

    def test_a_kept_draw_is_not_overwritten_by_the_next(self, split, config):
        """A taken draw's arrays are views into the parent's one copy of
        the slot; a draw still held when the next is taken keeps its own."""
        s = AMMSBSampler(split.train, config, heldout=split)
        kept = []
        apply = s._apply
        s._apply = lambda draw: kept.append(draw) or apply(draw)
        s.run(6)
        s.run(3)
        s.close()
        for t, draw in enumerate(kept):
            want = s._draw(t)
            np.testing.assert_array_equal(
                draw.minibatch.all_pairs()[0], want.minibatch.all_pairs()[0]
            )
            np.testing.assert_array_equal(draw.neighbors.neighbors, want.neighbors.neighbors)
            np.testing.assert_array_equal(draw.noise, want.noise)

    def test_a_draw_larger_than_the_slot_is_drawn_inline(self, split, config, monkeypatch):
        """Too large for the slot answers like a failed draw: the calling
        process draws it, to the same bits."""
        monkeypatch.setattr(sampler_module, "SLOT_BYTES", 64)
        looked, stepped = (AMMSBSampler(split.train, config, heldout=split) for _ in range(2))
        inline = []
        draw = looked._draw
        looked._draw = lambda t: inline.append(t) or draw(t)  # counts this process's draws
        looked.run(6)
        looked.run(3)
        step_by_step(stepped, 9)
        assert_same_run(looked, stepped)
        assert inline == list(range(9))
        monkeypatch.undo()
        inline.clear()
        fits = AMMSBSampler(split.train, config, heldout=split)
        fits._draw = lambda t: inline.append(t) or draw(t)
        fits.run(6)
        fits.run(3)
        assert inline == [0]  # the first; the next call's first was held
        assert_same_run(fits, stepped)
        for s in (looked, fits):
            s.close()


class TestLookAheadFailures:
    """An error stops ``run()`` where ``step()`` by ``step()`` stops: same
    applied iterations, same state, the error itself surfaced (drawn
    again inline: no exception crosses the fork) and no process left
    once the sampler is closed."""

    def _fail_both(self, graph, config, arm, n=10, callback_of=None):
        looked, stepped = AMMSBSampler(graph, config), AMMSBSampler(graph, config)
        for s in (looked, stepped):
            arm(s)
        before = set(multiprocessing.active_children())
        with pytest.raises(Boom):
            looked.run(n, callback=callback_of(looked) if callback_of else None)
        assert len(set(multiprocessing.active_children()) - before) <= 1
        looked.close()
        assert set(multiprocessing.active_children()) == before
        with pytest.raises(Boom):
            step_by_step(stepped, n, callback=callback_of(stepped) if callback_of else None)
        assert_same_run(looked, stepped)
        return looked

    def test_a_draw_error_surfaces_after_the_iterations_before_it(self, planted, config):
        graph, _ = planted

        def arm(s):
            s._draw = raise_at(s._draw, 3)

        looked = self._fail_both(graph, config, arm)
        assert looked.iteration == 3 and len(looked.history) == 3
        three = AMMSBSampler(graph, config)
        step_by_step(three, 3)
        assert_same_run(looked, three)

    def test_a_neighbor_draw_error_surfaces_at_its_iteration(self, planted, config):
        graph, _ = planted

        def arm(s):
            draws = s.minibatch_sampler
            sample_neighbors = draws.sample_neighbors

            def boom(*_args):
                raise Boom("the neighbor sets of iteration 3")

            def draw(t):  # the mini-batch of 3 is drawn, its neighbor sets fail
                draws.sample_neighbors = boom if t == 3 else sample_neighbors
                return AMMSBSampler._draw(s, t)

            s._draw = draw

        assert self._fail_both(graph, config, arm).iteration == 3

    def test_an_update_error_at_iteration_5(self, planted, config):
        graph, _ = planted

        def arm(s):
            s.update_phi_pi = raise_on_call(s.update_phi_pi, 6)

        assert self._fail_both(graph, config, arm).iteration == 5

    def test_a_callback_error(self, planted, config):
        graph, _ = planted

        def callback_of(_s):
            return raise_on_call(lambda _stats: None, 5)

        looked = self._fail_both(graph, config, lambda s: None, callback_of=callback_of)
        assert looked.iteration == 5


class TestDrawProcessLifecycle:
    """The draw process lives as long as its sampler: ended by ``close()``,
    a ``with`` block or the sampler's collection; a dead one is drawn
    around, to the same bits."""

    def test_close_is_idempotent_and_a_closed_sampler_runs_inline(self, planted, config):
        graph, _ = planted
        before = set(multiprocessing.active_children())
        looked, stepped = AMMSBSampler(graph, config), AMMSBSampler(graph, config)
        looked.run(4)
        looked.close()
        looked.close()
        looked.run(5)
        step_by_step(stepped, 9)
        assert_same_run(looked, stepped)
        assert set(multiprocessing.active_children()) == before

    def test_a_with_block_leaves_no_process(self, planted, config):
        graph, _ = planted
        gc.collect()
        before = set(multiprocessing.active_children())
        with AMMSBSampler(graph, config) as s:
            s.run(3)
            assert len(set(multiprocessing.active_children()) - before) == 1
        assert set(multiprocessing.active_children()) == before

    def test_a_collected_sampler_leaves_no_process(self, planted, config):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        s.run(3)
        process = s._ahead.process
        del s
        gc.collect()
        assert not process.is_alive()

    def test_a_killed_draw_process_is_drawn_around(self, planted, config, capfd):
        graph, _ = planted
        looked, stepped = AMMSBSampler(graph, config), AMMSBSampler(graph, config)

        def kill_at_4(stats):
            if stats.iteration == 4:
                os.kill(looked._ahead.process.pid, signal.SIGKILL)

        looked.run(10, callback=kill_at_4)
        step_by_step(stepped, 10)
        assert_same_run(looked, stepped)
        assert capfd.readouterr().err == ""  # recovered, not reported
        looked.run(4)  # the next run forks a new one
        step_by_step(stepped, 4)
        assert_same_run(looked, stepped)
        assert looked._ahead.process.is_alive()
        looked.close()
