"""The microbenchmark gate, its two suites and the committed records."""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench import gate, kernbench, storebench
from repro.bench.harness import format_table
from tests.oracles import load_report

ROOT = Path(__file__).resolve().parent.parent
WORSE = st.floats(min_value=1.001, max_value=1e6)


def _set(report: dict, path: str, value) -> None:
    *parents, leaf = path.split("/")
    for key in parents:
        report = report.setdefault(key, {})
    report[leaf] = value


def _drop(report: dict, path: str) -> None:
    *parents, leaf = path.split("/")
    for key in parents:
        report = report[key]
    del report[leaf]


def _floors(suite: str) -> list[tuple]:
    return [entry for entry in gate.FLOORS if entry[0] == suite]


def _passing(suite: str) -> dict:
    """A report that holds exactly the gated metrics, each on its floor."""
    report = {"schema": gate.SCHEMA, "suite": suite}
    for _, path, _, floor in _floors(suite):
        _set(report, path, floor)
    return report


class TestCheck:
    def test_every_floor_is_declared_once(self):
        paths = [(suite, path) for suite, path, _, _ in gate.FLOORS]
        assert len(paths) == len(set(paths))
        assert {suite for suite, _ in paths} == set(gate.SUITES)
        assert {better for _, _, better, _ in gate.FLOORS} <= {"higher", "lower"}

    @pytest.mark.parametrize("suite", gate.SUITES)
    def test_report_on_its_floors_passes(self, suite):
        rows = gate.check(_passing(suite))
        assert [r["metric"] for r in rows] == [path for _, path, _, _ in _floors(suite)]
        assert all(r["ok"] for r in rows)

    @pytest.mark.parametrize("entry", gate.FLOORS, ids=lambda e: e[1])
    @given(factor=WORSE)
    def test_crossing_one_floor_flags_exactly_that_row(self, entry, factor):
        suite, path, better, floor = entry
        report = _passing(suite)
        worse = floor / factor if better == "higher" else floor * factor
        _set(report, path, worse)
        assert [r["metric"] for r in gate.check(report) if not r["ok"]] == [path]
        # the far side of the same floor is a pass
        _set(report, path, floor * factor if better == "higher" else floor / factor)
        assert all(r["ok"] for r in gate.check(report))

    @pytest.mark.parametrize("entry", gate.FLOORS, ids=lambda e: e[1])
    def test_absent_metric_is_skipped_not_failed(self, entry):
        suite, path, _, _ = entry
        report = _passing(suite)
        _drop(report, path)
        rows = gate.check(report)
        assert path not in [r["metric"] for r in rows]
        assert len(rows) == len(_floors(suite)) - 1 and all(r["ok"] for r in rows)

    def test_backend_without_a_floor_is_reported_but_not_gated(self):
        report = _passing("kernels")
        for kernel in report["kernels"].values():
            kernel["speedups"]["no-floor-backend"] = 0.01
        assert len(gate.check(report)) == len(_floors("kernels"))
        assert all(r["ok"] for r in gate.check(report))
        for kernel in report["kernels"].values():  # a host without fused
            del kernel["speedups"]["fused"]
        assert [r["metric"] for r in gate.check(report)] == [
            "sampler/end_to_end/speedups/fused"
        ]

    def test_save_load_round_trip_and_rejections(self, tmp_path):
        report = _passing("store")
        gate.save_report(report, tmp_path / "r.json")
        assert load_report(tmp_path / "r.json") == report
        for key, bad in (("schema", "repro-kernel-bench/2"), ("suite", "stream")):
            gate.save_report({**report, key: bad}, tmp_path / "bad.json")
            with pytest.raises(ValueError, match="expected schema"):
                load_report(tmp_path / "bad.json")


class TestCommittedRecords:
    """BENCH_kernels.json / BENCH_store.json: full size, every floor met."""

    @pytest.mark.parametrize("suite", gate.SUITES)
    def test_record_meets_every_floor(self, suite):
        full_size = {"kernels": kernbench.KernelWorkload, "store": storebench.StoreWorkload}
        report = load_report(ROOT / f"BENCH_{suite}.json")
        assert report["suite"] == suite
        assert report["workload"] == asdict(full_size[suite]())
        rows = gate.check(report)
        assert len(rows) == len(_floors(suite))
        assert [r["metric"] for r in rows if not r["ok"]] == []


class TestSuitesRun:
    """Tiny workloads: the runners report what the gate and the tables read.

    Floors are calibrated at full size and do not apply here.
    """

    def test_kernels(self):
        tiny = kernbench.KernelWorkload(
            m=8, n=4, k=8, e=32, h=32, repeats=1, inner=1,
            sampler_vertices=200, sampler_iterations=2, sampler_passes=1,
        )
        report = kernbench.run_kernel_bench(seed=1, workload=tiny)
        assert len(gate.check(report)) == len(_floors("kernels"))
        assert report["kernels"]["phi_gradient"]["elements"] == 8 * 4 * 8
        table = format_table(kernbench.report_rows(report))
        assert "fused_speedup" in table and "sampler end-to-end" in table
        assert report["kernels"]["phi_gradient"]["headroom"]["block_rows"] == 8

    def test_phi_headroom_times_the_fused_kernels_operands(self):
        """The report-only gather / gather + contractions timing rebuilds
        the fused phi kernel's block loop; its operands are the size of
        the workspace buffers the kernel itself just used."""
        from repro.core import kernels

        rng = np.random.default_rng(0)
        m, n, k = 40, 64, 128  # five blocks of 8 rows
        pi_a, phi_sum, pi_b, y, beta, mask = kernbench._phi_workload(rng, m, n, k, 100)
        workspace = kernels.KernelWorkspace()
        kernels.get_backend("fused").phi_gradient_sum(
            pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=workspace
        )
        used = workspace.buffers()
        timed = kernbench._phi_headroom_operands(m, n, k, pi_a.itemsize)
        assert timed["phi_rows"][0] == 8
        assert {name: used[name].size for name in timed} == {
            name: int(np.prod(shape)) for name, shape in timed.items()
        }

    @pytest.fixture(scope="class")
    def store_report(self):
        tiny = storebench.StoreWorkload(
            n_vertices=20_000, avg_degree=10,
            artifact_vertices=8_000, artifact_communities=32, reps=1,
        )
        return storebench.run_store_bench(seed=1, workload=tiny)

    def test_store_every_mode_reports(self, store_report):
        assert len(gate.check(store_report)) == len(_floors("store"))
        for mode in storebench.MODES:
            r = store_report["graph_load"][mode]
            assert r["load_s"] > 0 and r["query_s"] > 0 and r["rss_delta_bytes"] >= 0
        for load in storebench.ARTIFACT_LOADS:
            r = store_report["cold_start"][load]
            assert r["first_answer_s"] > 0 and r["rss_delta_bytes"] >= 0
        assert store_report["graph_load"]["n_edges"] > 0
        # what the format exists for, with a wide margin even at this size
        assert store_report["graph_load"]["csr_mmap"]["speedup"] > 1.0
        assert store_report["cold_start"]["mmap"]["speedup"] > 1.0
        assert 0 <= store_report["cold_start"]["mmap"]["rss_fraction"] < 1.0
        assert list(store_report["cold_start"]["file_bytes"]) == ["model"]  # one container raced

    def test_store_table_shows_the_cold_start_rows(self, store_report):
        """``bench-serve`` computed these after its ``return`` and never
        printed them."""
        rows = {r["what"]: r for r in storebench.report_rows(store_report)}
        cold = store_report["cold_start"]
        assert rows["cold_start resident"]["ms"] == cold["resident"]["first_answer_s"] * 1e3
        assert rows["cold_start mmap"]["ms"] == cold["mmap"]["first_answer_s"] * 1e3
        assert rows["cold_start mmap"]["speedup"] == cold["mmap"]["speedup"]
        assert rows["cold_start mmap"]["rss_fraction"] == cold["mmap"]["rss_fraction"]
        table = format_table(list(rows.values()))
        for cell in ("cold_start resident", "cold_start mmap", "speedup", "rss_fraction"):
            assert cell in table
