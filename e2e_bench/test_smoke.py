"""Smoke test of the benchmark itself (not part of tier-1).

    python -m pytest e2e_bench -q

Runs the whole suite once at ``--smoke`` sizes and checks what the
contract promises: every declared metric is there with its unit, names
are well-formed, ``BENCHMARK.json`` says what ``spec.py`` says, and the
recorded spans nest.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from e2e_bench import spec

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke_out(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("e2e_smoke")
    done = subprocess.run(
        [sys.executable, "-m", "e2e_bench", "--smoke", "--seed", "7", "--out", str(out)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-4000:]
    return out


def test_smoke_run_passes_every_check(smoke_out):
    result = json.loads((smoke_out / "result.json").read_text())
    assert result["smoke"] is True
    assert set(result["workloads"]) == set(spec.WORKLOADS)
    for workload, entry in result["workloads"].items():
        assert all(entry["checks"].values()), (workload, entry["checks"])
        assert entry["ops_attempted"] >= 1 and entry["ops_failed"] == 0


def test_every_declared_metric_is_reported_with_its_unit(smoke_out):
    result = json.loads((smoke_out / "result.json").read_text())
    for workload, entry in result["workloads"].items():
        assert list(entry["end_to_end"]) == [m.name for m in spec.END_TO_END]
        for m in spec.END_TO_END:
            cell = entry["end_to_end"][m.name]
            assert cell["unit"] == m.unit and cell["value"] > 0, (workload, m.name, cell)
            assert cell["native"] == spec.is_native(m, workload)
        assert list(entry["per_layer"]) == [name for name, *_ in spec.PER_LAYER]
        for name, unit, _better, _moves in spec.PER_LAYER:
            cell = entry["per_layer"][name]
            assert cell["unit"] == unit and cell["value"] >= 0, (workload, name, cell)
    # every per-layer metric is exercised by at least one workload
    exercised = {
        name
        for entry in result["workloads"].values()
        for name, cell in entry["per_layer"].items()
        if cell["exercised"]
    }
    assert exercised == {name for name, *_ in spec.PER_LAYER}


def test_benchmark_json_matches_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["e2e_bench"] and bench["run_seconds"] == spec.RUN_SECONDS
    assert bench["workloads"] == [{"name": n, "why": why} for n, why in spec.WORKLOADS.items()]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _moves in spec.PER_LAYER
    ]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(x["unit"]) for key in ("end_to_end", "per_layer") for x in bench[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def _session_members(sid: int) -> list[int]:
    """Pids of the live (not zombie) processes in session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_bytes().rsplit(b")", 1)[1].split()
        except OSError:  # ended meanwhile
            continue
        if int(fields[3]) == sid and fields[0] != b"Z":
            members.append(int(entry.name))
    return members


def test_train_mp_leaves_no_process_behind():
    """Forked workers and multiprocessing's resource tracker have ended
    by the time ``run.py`` has: nothing is left in the run's own session."""
    run = subprocess.Popen(
        [sys.executable, "e2e_bench/run.py", "--workload", "train_mp", "--seed", "7",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    out, _ = run.communicate(timeout=120)
    left = _session_members(run.pid)
    assert run.returncode == 0 and json.loads(out.splitlines()[-1])["correct"]
    assert left == []


def test_spans_nest_and_self_times_are_not_negative(smoke_out):
    for workload in spec.WORKLOADS:
        spans = json.loads((smoke_out / f"trace_{workload}.json").read_text())
        assert spans, workload
        covered = defaultdict(float)
        for span in spans:
            assert set(span) == {"name", "start", "end", "parent", "op"}
            assert NAME.fullmatch(span["name"]) and span["end"] >= span["start"]
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                covered[span["parent"]] += span["end"] - span["start"]
        for index, span in enumerate(spans):
            assert span["end"] - span["start"] - covered[index] >= -1e-9, (workload, span)
