"""Serving bench: quick-mode validity and the committed baseline."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import servebench
from repro.serve.metrics import LatencyHistogram, ServerMetrics

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


class TestQuickRun:
    @pytest.fixture(scope="class")
    def report(self):
        return servebench.run_serve_bench(quick=True, seed=0)

    def test_schema_and_workload(self, report):
        assert report["schema"] == servebench.SCHEMA
        assert report["quick"] is True
        w = servebench.QUICK
        assert report["workload"]["n_vertices"] == w.n_vertices
        r = report["results"]
        assert (
            r["requests_completed"]
            + r["errors"]
            + r["deadline_exceeded"]
            + r["dropped"]
            == w.total_requests
        )

    def test_no_dropped_or_errored(self, report):
        assert report["results"]["errors"] == 0
        assert report["results"]["dropped"] == 0
        assert report["hot_swap"]["zero_dropped_or_errored"] is True

    def test_error_taxonomy_clean_run(self, report):
        r = report["results"]
        assert r["error_types"] == []
        assert r["shed_rejections"] == 0
        assert r["deadline_exceeded"] == 0
        assert r["degraded_answers"] == 0

    def test_hot_swap_performed_mid_run(self, report):
        hs = report["hot_swap"]
        assert hs["performed"] is True
        assert hs["generation"] >= 1
        assert 0 < hs["at_request"] <= servebench.QUICK.total_requests

    def test_latency_and_cache_stats_present(self, report):
        r = report["results"]
        assert r["p50_ms"] > 0 and r["p99_ms"] >= r["p50_ms"]
        assert 0 <= r["cache_hit_rate"] <= 1
        lp = report["server"]["endpoints"]["link_probability"]
        assert lp["queries"] > 0 and lp["requests"] > 0

    def test_storage_phase_present_and_sane(self, report):
        s = report["storage"]
        assert s["artifact"]["n_vertices"] == servebench.QUICK.storage_n_vertices
        assert s["artifact"]["v1_npz_bytes"] > 0
        assert s["artifact"]["v2_dir_bytes"] > 0
        cs = s["cold_start"]
        for fmt in ("v1_npz", "v2_dir"):
            assert cs[fmt]["first_answer_s"] > 0
            assert cs[fmt]["rss_delta_bytes"] >= 0
        # the mapped directory must beat the compressed archive
        assert s["cold_start_speedup"] > 1.0
        assert 0 <= s["cold_rss_fraction"] < 1.0

    def test_storage_post_swap_serves_the_published_version(self, report):
        ps = report["storage"]["post_swap"]
        assert ps["swap_installed"] is True
        assert ps["swap_generation"] >= 1
        assert ps["requests"] == servebench.QUICK.storage_requests
        assert ps["p99_ms"] >= ps["p50_ms"] > 0

    def test_cold_start_acceptance_keys(self, report):
        acc = report["acceptance"]
        assert acc["target_cold_start_speedup"] == servebench.TARGET_COLD_START_SPEEDUP
        assert acc["achieved_cold_start_speedup"] == pytest.approx(
            report["storage"]["cold_start_speedup"]
        )
        assert isinstance(acc["meets_cold_start_target"], bool)

    def test_compare_reports_flags_cold_start_regression(self, report):
        import copy

        slower = copy.deepcopy(report)
        slower["storage"]["cold_start_speedup"] = (
            report["storage"]["cold_start_speedup"] * 0.2
        )
        rows = servebench.compare_reports(report, slower, threshold=0.5)
        bad = [r for r in rows if r["regressed"]]
        assert any("cold_start_speedup" in r["metric"] for r in bad)
        clean = servebench.compare_reports(report, copy.deepcopy(report))
        ratio_row = next(
            r for r in clean if r["metric"] == "storage/cold_start_speedup"
        )
        assert ratio_row["ratio"] == pytest.approx(1.0)
        assert ratio_row["regressed"] is False

    def test_rows_and_save_load(self, report, tmp_path):
        rows = servebench.report_rows(report)
        assert any("queries/s" == r["metric"] for r in rows)
        path = tmp_path / "r.json"
        servebench.save_report(report, path)
        loaded = servebench.load_report(path)
        assert loaded["results"]["queries_completed"] == report["results"][
            "queries_completed"
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "wrong/0"}))
        with pytest.raises(ValueError, match="expected schema"):
            servebench.load_report(bad)


class TestCommittedBaseline:
    """The checked-in BENCH_serve.json must prove the acceptance criteria."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return servebench.load_report(BASELINE)

    def test_baseline_exists_and_parses(self, baseline):
        assert baseline["schema"] == servebench.SCHEMA

    def test_meets_throughput_target(self, baseline):
        acc = baseline["acceptance"]
        assert acc["target_queries_per_s"] == servebench.TARGET_QUERIES_PER_S
        assert acc["achieved_queries_per_s"] >= servebench.TARGET_QUERIES_PER_S
        assert acc["meets_target"] is True

    def test_acceptance_workload_shape(self, baseline):
        w = baseline["workload"]
        assert w["n_vertices"] == 10_000 and w["n_communities"] == 64
        assert baseline["quick"] is False

    def test_meets_cold_start_target(self, baseline):
        acc = baseline["acceptance"]
        assert acc["target_cold_start_speedup"] == servebench.TARGET_COLD_START_SPEEDUP
        assert acc["meets_cold_start_target"] is True
        assert (
            baseline["storage"]["cold_start_speedup"]
            >= servebench.TARGET_COLD_START_SPEEDUP
        )
        assert baseline["storage"]["post_swap"]["swap_installed"] is True

    def test_hot_swap_clean(self, baseline):
        hs = baseline["hot_swap"]
        assert hs["performed"] is True
        assert hs["zero_dropped_or_errored"] is True
        assert baseline["results"]["errors"] == 0
        assert baseline["results"]["dropped"] == 0


class TestDeterministicInputs:
    def test_request_pool_seeded(self):
        w = servebench.QUICK
        a = servebench._request_pool(np.random.default_rng(3), w)
        b = servebench._request_pool(np.random.default_rng(3), w)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_zipf_is_skewed(self):
        rng = np.random.default_rng(0)
        draws = servebench._zipf_indices(rng, 100, 5000, 1.1)
        counts = np.bincount(draws, minlength=100)
        assert counts[0] > counts[50] > 0

    def test_perturbed_artifact_changes_version(self):
        art = servebench.synthetic_artifact(50, 4, seed=0)
        new = servebench.perturbed_artifact(art, seed=1)
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
        assert m.cache_hit_rate == 0.0
        m.record_cache(True)
        m.record_cache(True)
        m.record_cache(False)
        assert m.cache_hit_rate == pytest.approx(2 / 3)

    def test_snapshot_shape(self):
        m = ServerMetrics(queue_depth=lambda: 7)
        m.record_request("membership", 0.002, queries=1)
        m.record_error("membership")
        m.record_batch(3)
        m.record_rejected()
        m.record_hot_swap()
        snap = m.snapshot()
        assert snap["queue_depth"] == 7
        assert snap["rejected"] == 1 and snap["hot_swaps"] == 1
        ep = snap["endpoints"]["membership"]
        assert ep["requests"] == 1 and ep["errors"] == 1
        assert snap["batching"]["mean_batch_size"] == 3.0
        assert snap["recommend"]["survivors_per_returned"] == 0.0  # none yet

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
