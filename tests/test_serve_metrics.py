"""``serve.metrics`` and the serving drill's seeded inputs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import chaosbench
from repro.serve.metrics import LatencyHistogram, ServerMetrics


class TestDeterministicInputs:
    def test_request_pool_seeded(self):
        w = chaosbench.ServeWorkload(
            n_vertices=2000, n_communities=32, n_clients=2,
            requests_per_client=300, pairs_per_request=32, pool_size=128,
        )
        a = chaosbench._request_pool(np.random.default_rng(3), w)
        b = chaosbench._request_pool(np.random.default_rng(3), w)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_zipf_is_skewed(self):
        rng = np.random.default_rng(0)
        draws = chaosbench._zipf_indices(rng, 100, 5000, 1.1)
        counts = np.bincount(draws, minlength=100)
        assert counts[0] > counts[50] > 0

    def test_perturbed_artifact_changes_version(self):
        art = chaosbench.synthetic_artifact(50, 4, seed=0)
        new = chaosbench.perturbed_artifact(art, seed=1)
        assert new.version != art.version
        assert new.iteration == art.iteration + 1
        new.validate()


class TestLatencyHistogram:
    def test_quantiles_bracket_observations(self):
        h = LatencyHistogram()
        for v in [0.001, 0.002, 0.003, 0.004, 0.1]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert 0.0005 < snap["p50_ms"] / 1e3 < 0.01
        assert snap["p99_ms"] / 1e3 <= 0.2

    def test_empty_histogram(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0 and snap["p50_ms"] == 0.0

    def test_extreme_values_clamped_into_range(self):
        h = LatencyHistogram()
        h.observe(1e-9)  # below first bucket
        h.observe(1e6)  # beyond last bucket
        assert h.snapshot()["count"] == 2


class TestServerMetrics:
    def test_cache_hit_rate(self):
        m = ServerMetrics()
        assert m.snapshot()["cache"]["hit_rate"] == 0.0
        m.count("cache_hits")
        m.count("cache_hits")
        m.count("cache_misses")
        assert m.snapshot()["cache"]["hit_rate"] == pytest.approx(2 / 3)

    def test_snapshot_shape(self):
        m = ServerMetrics(queue_depth=lambda: 7)
        m.record_request("membership", 0.002, queries=1)
        m.record_error("membership")
        m.record_batch(3)
        m.count("rejected")
        m.count("hot_swaps")
        snap = m.snapshot()
        assert snap["queue_depth"] == 7
        assert snap["rejected"] == 1 and snap["hot_swaps"] == 1
        ep = snap["endpoints"]["membership"]
        assert ep["requests"] == 1 and ep["errors"] == 1
        assert snap["batching"]["mean_batch_size"] == 3.0
        assert snap["recommend"]["survivors_per_returned"] == 0.0  # none yet

    def test_scripted_snapshot_is_pinned(self):
        """Every counter lands under its snapshot key: a scripted call
        sequence, each counter a different total, gives this dict but for
        the fields that divide by wall time."""
        m = ServerMetrics(queue_depth=lambda: 7)
        m.record_request("link", 0.002, queries=4)
        m.record_request("link", 0.004, queries=2)
        m.record_request("membership", 0.0005)
        m.record_error("link")
        m.record_batch(3)
        m.record_batch(5)
        for name in ("cache_hits",) * 3 + ("cache_misses",):
            m.count(name)
        m.count("cache_evictions", 2)
        m.count("stale_cache_evictions", 4)
        names = ("rejected", "hot_swaps", "deadline_exceeded", "shed", "degraded_answers",
                 "worker_respawns", "rollbacks", "publish_failures", "quarantines")
        for n, name in enumerate(names, start=1):
            for _ in range(n):
                m.count(name)
        m.record_recommend(99, 12, 10)
        snap = m.snapshot()
        del snap["elapsed_seconds"]
        for ep in snap["endpoints"].values():
            del ep["qps"], ep["queries_per_s"]
        assert snap == {
            "endpoints": {
                "link": {"requests": 2, "queries": 6, "errors": 1, "count": 2,
                         "mean_ms": 3.0, "p50_ms": 2.0522392473943722,
                         "p99_ms": 4.088307834594116},
                "membership": {"requests": 1, "queries": 1, "errors": 0, "count": 1,
                               "mean_ms": 0.5, "p50_ms": 0.45995211110595463,
                               "p99_ms": 0.5118086588536525},
            },
            "queue_depth": 7,
            "cache": {"hits": 3, "misses": 1, "evictions": 2, "stale_evictions": 4,
                      "hit_rate": 0.75},
            "batching": {"batches": 2, "batched_requests": 8, "mean_batch_size": 4.0},
            "recommend": {"candidates": 99, "survivors": 12, "returned": 10,
                          "survivors_per_returned": 1.2},
            "rejected": 1,
            "hot_swaps": 2,
            "resilience": {"deadline_exceeded": 3, "shed": 4, "degraded_answers": 5,
                           "worker_respawns": 6, "rollbacks": 7, "publish_failures": 8,
                           "quarantines": 9},
        }

    def test_an_unknown_counter_is_refused(self):
        with pytest.raises(KeyError):
            ServerMetrics().count("cache_hit")

    def test_recommend_counters_accumulate(self):
        m = ServerMetrics()
        m.record_recommend(99, 12, 10)
        m.record_recommend(99, 99, 10)  # a tie-heavy query: everything survived
        assert m.snapshot()["recommend"] == {
            "candidates": 198,
            "survivors": 111,
            "returned": 20,
            "survivors_per_returned": 111 / 20,
        }
