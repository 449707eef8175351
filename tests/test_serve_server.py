"""Micro-batching server: batching, backpressure, cache, hot-swap."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import AMMSBConfig
from repro.core.state import ModelState, init_state
from repro.serve.artifact import build_artifact
from repro.serve.engine import QueryEngine
from repro.serve.server import ENDPOINTS, ModelServer, ServerOverloaded


def _artifact(n=40, k=4, seed=0):
    cfg = AMMSBConfig(n_communities=k, seed=seed)
    state = init_state(n, cfg, np.random.default_rng(seed))
    return build_artifact(state, cfg)


def _perturbed(art, seed=1):
    rng = np.random.default_rng(seed)
    pi = art.pi * rng.uniform(0.9, 1.1, size=art.pi.shape)
    state = ModelState(
        pi=pi / pi.sum(axis=1, keepdims=True),
        phi_sum=np.ones(art.n_nodes),
        theta=art.theta.copy(),
    )
    return build_artifact(state, art.config, iteration=art.iteration + 1)


@pytest.fixture()
def manual_server():
    """n_workers=0: the test drains the queue with process_once()."""
    server = ModelServer(_artifact(), n_workers=0, max_batch=4, cache_size=8)
    yield server
    server.close()


class TestManualBatching:
    def test_empty_flush_is_noop(self, manual_server):
        assert manual_server.process_once() == 0
        assert manual_server.metrics.snapshot()["batching"]["batches"] == 0

    def test_coalesces_up_to_max_batch(self, manual_server):
        futs = [
            manual_server.link_probability(np.array([[i, i + 1]]))
            for i in range(6)  # 6 distinct requests, max_batch=4
        ]
        assert manual_server.process_once() == 4
        assert manual_server.process_once() == 2
        assert all(f.done() for f in futs)
        snap = manual_server.metrics.snapshot()
        assert snap["batching"]["batches"] == 2
        assert snap["batching"]["batched_requests"] == 6

    def test_oversized_request_is_one_batch_entry(self, manual_server):
        """A single request larger than max_batch still goes through whole."""
        big = np.column_stack([np.arange(30), (np.arange(30) + 1) % 40])
        fut = manual_server.link_probability(big)
        assert manual_server.process_once() == 1
        assert len(fut.result(timeout=5)) == 30

    def test_batched_results_match_unbatched(self, manual_server):
        engine = QueryEngine(manual_server.artifact)
        pairs = [np.array([[0, 1], [2, 3]]), np.array([[4, 5]])]
        futs = [manual_server.link_probability(p) for p in pairs]
        manual_server.process_once()
        for p, f in zip(pairs, futs):
            np.testing.assert_array_equal(
                f.result(timeout=5), engine.link_probability(p)
            )

    def test_mixed_endpoints_in_one_batch(self, manual_server):
        f1 = manual_server.link_probability(np.array([[0, 1]]))
        f2 = manual_server.membership(3)
        f3 = manual_server.community_members(0, 5)
        f4 = manual_server.recommend_edges(2, 3)
        assert manual_server.process_once() == 4
        engine = QueryEngine(manual_server.artifact)
        np.testing.assert_array_equal(
            f1.result(5), engine.link_probability(np.array([[0, 1]]))
        )
        assert f2.result(5) == engine.membership(3)
        assert f3.result(5) == engine.community_members(0, 5)
        assert f4.result(5) == engine.recommend_edges(2, 3)

    def test_recommend_refine_efficiency_in_stats(self, manual_server):
        futs = [manual_server.recommend_edges(2, 3), manual_server.recommend_edges(5, 4)]
        manual_server.process_once()
        assert [len(f.result(5)) for f in futs] == [3, 4]
        n = manual_server.artifact.n_nodes
        assert manual_server.stats()["recommend"] == {
            "candidates": 2 * (n - 1),
            "survivors": 7,
            "returned": 7,
            "survivors_per_returned": 1.0,
        }

    def test_worker_takes_what_is_queued_without_a_timed_wait(
        self, manual_server, monkeypatch
    ):
        """A batch that cannot grow is never held open on a timer: the
        taker pops everything queued and returns without waiting."""
        waits = []
        monkeypatch.setattr(
            manual_server._not_empty, "wait", lambda timeout=None: waits.append(timeout)
        )
        futs = [manual_server.membership(i) for i in range(3)]
        batch, artifact, gen = manual_server._take_batch(wait=True)
        assert [r.future for r in batch] == futs
        assert (artifact, gen) == (manual_server.artifact, 0)
        assert waits == []

    def test_bad_request_fails_future_not_batch(self, manual_server):
        good = manual_server.link_probability(np.array([[0, 1]]))
        bad = manual_server.membership(9999)  # unknown node id
        manual_server.process_once()
        assert good.result(timeout=5) is not None
        with pytest.raises(KeyError):
            bad.result(timeout=5)
        assert manual_server.metrics.snapshot()["endpoints"]["membership"]["errors"] == 1


class TestBackpressure:
    def test_overload_raises_typed_error(self):
        with ModelServer(
            _artifact(), n_workers=0, queue_limit=3, cache_size=0
        ) as server:
            for i in range(3):
                server.membership(i)
            with pytest.raises(ServerOverloaded) as ei:
                server.membership(3)
            assert ei.value.queue_limit == 3
            assert server.metrics.snapshot()["rejected"] == 1
            # draining makes room again
            server.process_once()
            server.membership(3)

    def test_submit_after_close_rejected(self):
        server = ModelServer(_artifact(), n_workers=0)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.membership(0)


class TestCache:
    def test_hit_returns_same_result_without_queue(self, manual_server):
        pairs = np.array([[0, 1], [2, 3]])
        f1 = manual_server.link_probability(pairs)
        manual_server.process_once()
        f2 = manual_server.link_probability(pairs)  # cache hit: already done
        assert f2.done()
        np.testing.assert_array_equal(f1.result(5), f2.result(5))
        snap = manual_server.metrics.snapshot()
        assert snap["cache"]["hits"] == 1 and snap["cache"]["misses"] == 1
        assert snap["queue_depth"] == 0

    def test_lru_eviction_accounting(self):
        with ModelServer(
            _artifact(), n_workers=0, max_batch=64, cache_size=4
        ) as server:
            for i in range(6):  # 6 distinct entries into a 4-slot cache
                server.membership(i)
            server.process_once()
            snap = server.metrics.snapshot()
            assert snap["cache"]["evictions"] == 2
            # oldest entries (0, 1) were evicted -> miss; newest hit
            server.membership(5)
            server.membership(0)
            snap = server.metrics.snapshot()
            assert snap["cache"]["hits"] == 1
            assert snap["cache"]["misses"] == 7

    def test_cache_disabled(self):
        with ModelServer(_artifact(), n_workers=0, cache_size=0) as server:
            server.membership(1)
            server.process_once()
            server.membership(1)
            server.process_once()
            snap = server.metrics.snapshot()
            assert snap["cache"]["hits"] == 0 and snap["cache"]["misses"] == 0


class TestHotSwap:
    def test_generation_bump_invalidates_cache(self, manual_server):
        art = manual_server.artifact
        f1 = manual_server.membership(0)
        manual_server.process_once()
        manual_server.publish(_perturbed(art))
        f2 = manual_server.membership(0)  # same query, new generation -> miss
        manual_server.process_once()
        snap = manual_server.metrics.snapshot()
        assert snap["cache"]["hits"] == 0 and snap["cache"]["misses"] == 2
        assert f1.result(5) != f2.result(5)
        assert manual_server.generation == 1

    def test_answer_cached_under_the_generation_that_computed_it(self, manual_server):
        """Submitted before a swap, answered after it: the answer came
        from the new artifact, so it is cached under the new generation
        and nothing is left under the old one."""
        manual_server.membership(1)
        manual_server.publish(_perturbed(manual_server.artifact))
        manual_server.process_once()
        assert list(manual_server._cache) == [(1, "mb", 1, None)]
        assert manual_server.membership(1).done()  # a hit
        assert manual_server.metrics.snapshot()["cache"]["hits"] == 1

    def test_no_insert_after_a_swap_mid_batch(self, manual_server):
        """An answer computed on an artifact swapped out while its batch
        ran is delivered but not cached: no lookup could hit it."""
        fut = manual_server.membership(1)
        batch, artifact, gen = manual_server._take_batch(wait=False)
        manual_server.publish(_perturbed(artifact))
        manual_server._execute(batch, QueryEngine(artifact), gen)
        assert fut.result(5) == QueryEngine(artifact).membership(1)
        assert not manual_server._cache

    def test_results_reflect_new_artifact(self, manual_server):
        art = manual_server.artifact
        new = _perturbed(art)
        manual_server.publish(new)
        fut = manual_server.link_probability(np.array([[0, 1]]))
        manual_server.process_once()
        expect = QueryEngine(new).link_probability(np.array([[0, 1]]))
        np.testing.assert_array_equal(fut.result(5), expect)

    def test_invalid_artifact_rejected(self, manual_server):
        art = manual_server.artifact
        bad = _perturbed(art)
        bad.pi[0] = -1.0  # frozen dataclass, but arrays are mutable
        with pytest.raises(ValueError):
            manual_server.publish(bad)
        assert manual_server.generation == 0

    def test_swap_under_load_zero_dropped(self):
        """Continuous traffic across a publish: every future completes."""
        art = _artifact(n=60, k=4)
        new = _perturbed(art)
        with ModelServer(
            art, n_workers=2, max_batch=8, cache_size=0
        ) as server:
            swapped = threading.Event()

            def swapper():
                swapped.wait(timeout=30)
                server.publish(new)

            t = threading.Thread(target=swapper)
            t.start()
            rng = np.random.default_rng(0)
            futs = []
            for i in range(300):
                pairs = rng.integers(0, 60, size=(4, 2))
                futs.append((pairs, server.link_probability(pairs)))
                if i == 150:
                    swapped.set()
            t.join(timeout=30)
            errors = 0
            for pairs, fut in futs:
                p = fut.result(timeout=30)
                if len(p) != len(pairs) or not np.all((p > 0) & (p < 1)):
                    errors += 1
            assert errors == 0
            snap = server.stats()
            assert snap["hot_swaps"] == 1
            assert snap["artifact"]["generation"] == 1
            assert snap["endpoints"]["link_probability"]["errors"] == 0
            assert snap["endpoints"]["link_probability"]["requests"] == 300


class TestThreadedWorkers:
    def test_round_trip_through_worker_pool(self):
        with ModelServer(_artifact(), n_workers=2) as server:
            engine = QueryEngine(server.artifact)
            pairs = np.array([[0, 1], [2, 3], [4, 5]])
            got = server.query("link_probability", pairs, timeout=30)
            np.testing.assert_array_equal(got, engine.link_probability(pairs))
            assert server.query("membership", 7, timeout=30) == engine.membership(7)

    def test_close_drains_queued_work(self):
        server = ModelServer(_artifact(), n_workers=1)
        futs = [server.membership(i) for i in range(20)]
        server.close()
        done = sum(1 for f in futs if f.done() and not f.cancelled())
        cancelled = sum(1 for f in futs if f.cancelled())
        assert done + cancelled == 20

    def test_unknown_endpoint_rejected(self):
        with ModelServer(_artifact(), n_workers=0) as server:
            with pytest.raises(ValueError, match="unknown endpoint"):
                server.query("bogus")
            assert set(ENDPOINTS) == {
                "link_probability", "membership",
                "community_members", "recommend_edges",
                "membership_drift",
            }


class TestSizingValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": -1},
            {"max_batch": 0},
            {"queue_limit": 0},
            {"cache_size": -1},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ModelServer(_artifact(), **kwargs)


class TestMembershipDrift:
    """The drift endpoint rides the history retained across hot-swaps."""

    def _drain(self, server, fut):
        server.process_once()
        return fut.result(timeout=5)

    def test_disabled_without_drift_window(self):
        with ModelServer(_artifact(), n_workers=0) as server:
            with pytest.raises(ValueError, match="drift_window"):
                server.membership_drift(0)

    def test_engine_requires_history(self):
        engine = QueryEngine(_artifact())
        with pytest.raises(ValueError, match="without drift tracking"):
            engine.membership_drift(0, None)

    def test_initial_artifact_is_generation_zero(self):
        with ModelServer(_artifact(), n_workers=0, drift_window=4) as server:
            d = self._drain(server, server.membership_drift(3))
            assert d["node"] == 3
            assert d["first_seen_generation"] == 0
            assert len(d["generations"]) == 1

    def test_history_survives_hot_swap(self):
        art = _artifact()
        with ModelServer(art, n_workers=0, drift_window=4) as server:
            server.publish(_perturbed(art))
            d = self._drain(server, server.membership_drift(0))
            gens = [g["generation"] for g in d["generations"]]
            assert len(gens) == 2 and gens[0] < gens[1]

    def test_failed_publish_not_recorded(self, tmp_path):
        art = _artifact()
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"garbage")
        with ModelServer(art, n_workers=0, drift_window=4) as server:
            with pytest.raises(Exception):
                server.publish_path(bad)
            d = self._drain(server, server.membership_drift(0))
            assert len(d["generations"]) == 1

    def test_unknown_node_error_propagates(self):
        with ModelServer(_artifact(), n_workers=0, drift_window=4) as server:
            fut = server.membership_drift(10_000)
            server.process_once()
            with pytest.raises(KeyError):
                fut.result(timeout=5)

    def test_drift_answers_through_worker_threads(self):
        art = _artifact()
        with ModelServer(art, n_workers=2, drift_window=4) as server:
            server.publish(_perturbed(art))
            d = server.query("membership_drift", 1, None)
            assert len(d["generations"]) == 2


class TestHistoryPersistence:
    """drift history checkpointed beside the artifact survives restarts."""

    def _drain(self, server, fut):
        server.process_once()
        return fut.result(timeout=5)

    def test_restart_resumes_drift_history(self, tmp_path):
        art = _artifact()
        swapped = _perturbed(art)
        hpath = tmp_path / "history.npz"
        with ModelServer(
            art, n_workers=0, drift_window=4, history_path=hpath
        ) as server:
            server.publish(swapped)
        assert hpath.exists()
        # Restart on the already-recorded artifact: the history reloads
        # and the same version is NOT recorded twice.
        with ModelServer(
            swapped, n_workers=0, drift_window=4, history_path=hpath
        ) as server:
            d = self._drain(server, server.membership_drift(0))
            assert [g["generation"] for g in d["generations"]] == [0, 1]

    def test_restart_with_new_artifact_extends_history(self, tmp_path):
        art = _artifact()
        hpath = tmp_path / "history.npz"
        with ModelServer(
            art, n_workers=0, drift_window=4, history_path=hpath
        ) as server:
            server.publish(_perturbed(art))
        with ModelServer(
            _perturbed(art, seed=9), n_workers=0, drift_window=4,
            history_path=hpath,
        ) as server:
            d = self._drain(server, server.membership_drift(0))
            assert [g["generation"] for g in d["generations"]] == [0, 1, 2]

    def test_fresh_history_written_at_startup(self, tmp_path):
        hpath = tmp_path / "history.npz"
        with ModelServer(
            _artifact(), n_workers=0, drift_window=4, history_path=hpath
        ):
            pass
        assert hpath.exists()

    def test_queries_are_answered_while_a_history_save_is_in_flight(
        self, tmp_path, monkeypatch
    ):
        """The publish records the generation under the queue lock and
        writes the history after releasing it: a submit (and the worker
        that answers it) does not wait for the write."""
        from repro.stream.tracking import MembershipHistory

        art = _artifact()
        new = _perturbed(art)
        started, release = threading.Event(), threading.Event()
        real_save = MembershipHistory.save

        def slow_save(self, path):
            started.set()
            assert release.wait(timeout=30)
            return real_save(self, path)

        hpath = tmp_path / "history"
        with ModelServer(art, n_workers=1, drift_window=4, history_path=hpath) as server:
            monkeypatch.setattr(MembershipHistory, "save", slow_save)
            publisher = threading.Thread(target=server.publish, args=(new,))
            publisher.start()
            try:
                assert started.wait(timeout=30)
                pairs = np.array([[0, 1], [2, 3]])
                answer = server.link_probability(pairs).result(timeout=10)
                assert publisher.is_alive()  # the save has not returned
                np.testing.assert_array_equal(
                    answer, QueryEngine(new).link_probability(pairs)
                )
                d = server.query("membership_drift", 0, None, timeout=10)
                assert len(d["generations"]) == 2  # recorded before the write
            finally:
                release.set()
                publisher.join(timeout=30)
            assert not publisher.is_alive()
        assert len(MembershipHistory.load(hpath).generations) == 2

    def test_unwritable_history_path_degrades_durability_not_serving(self, tmp_path):
        art = _artifact()
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with ModelServer(
            art, n_workers=0, drift_window=4, history_path=blocker / "history"
        ) as server:
            assert server.publish(_perturbed(art)) == 1

    def test_no_history_path_keeps_memory_only_behavior(self):
        art = _artifact()
        with ModelServer(art, n_workers=0, drift_window=4) as server:
            server.publish(_perturbed(art))
            d = self._drain(server, server.membership_drift(0))
            assert len(d["generations"]) == 2
