"""Storage-tier microbench: what the container formats buy at load time.

``run_store_bench`` measures two things, every sample **in a fresh
subprocess** so the peak-RSS reading (VmHWM, reset by exec) is clean.

*Graph load.* One synthetic graph is persisted as a SNAP edge list, a
compressed NPZ and a CSR store container; each path is timed standing
the graph up and answering a small query mix:

- ``edge_list`` — stream-parse + full canonicalization (the portable
  worst case every raw download starts from);
- ``npz`` — decompress + full ``Graph.__init__`` rebuild;
- ``csr_resident`` — container read into heap arrays, no re-sorting;
- ``csr_mmap`` — container memory-mapped read-only; load is
  O(manifest) and only touched pages become resident.

*Artifact cold start.* One synthetic model is saved as an artifact
container and opened two ways, each timed from "imports done" to the
first link-probability answer:

- ``resident`` — ``provider="resident", verify="full"``: every byte read
  into heap arrays and hashed, what any format that must be read whole
  costs;
- ``mmap`` — the default load: O(manifest) work, lazy digests, only the
  pages the answer touches resident.

A ``baseline`` child per phase imports the stack but loads nothing and
pins the interpreter+NumPy floor, so every mode also reports
``rss_delta_bytes`` — the memory the *payload* cost — and, against the
phase's slow path (``edge_list``, ``resident``) in the same run, a
``speedup`` and an ``rss_fraction``. The runner only measures;
:mod:`repro.bench.gate` holds the floors (``repro bench store``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.bench import gate

MODES = ("edge_list", "npz", "csr_resident", "csr_mmap")
#: cold-start rows, named by the provider the artifact is opened with
ARTIFACT_LOADS = ("resident", "mmap")


@dataclass(frozen=True)
class StoreWorkload:
    """Synthetic graph and artifact sizes; the defaults are full size.

    The artifact is sized on its own: the cold-start gap only shows
    where reading and hashing every byte costs something (``pi`` alone
    is ``artifact_vertices * artifact_communities * 8`` bytes).
    """

    n_vertices: int = 200_000
    avg_degree: int = 20
    artifact_vertices: int = 50_000
    artifact_communities: int = 64
    reps: int = 3  # fresh subprocesses per mode; min is reported


def _make_graph(workload: StoreWorkload, seed: int):
    from repro.graph.graph import Graph

    rng = np.random.default_rng(seed)
    n = workload.n_vertices
    m = n * workload.avg_degree // 2
    a = rng.integers(0, n, size=int(m * 1.1))
    b = rng.integers(0, n, size=int(m * 1.1))
    ok = a != b
    lo, hi = np.minimum(a[ok], b[ok]), np.maximum(a[ok], b[ok])
    _, idx = np.unique(lo * np.int64(n) + hi, return_index=True)
    idx = idx[:m]
    return Graph(n, np.column_stack([lo, hi])[idx])


# Peak-RSS probe shared by every measurement child. VmHWM is the
# current mm's high-water mark and is reset by exec, unlike
# ru_maxrss, which Linux seeds at fork with the *parent's* peak and
# never resets — a fat parent (pytest, a bench that just built a graph)
# would otherwise put an inherited floor under every child's reading.
PEAK_RSS_SNIPPET = r"""
def _peak_rss_bytes():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource  # non-Linux fallback: process-lifetime high water
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
"""

# Runs inside the graph child: import, load by mode, touch a query mix,
# emit JSON with phase times and peak RSS. Kept to stdlib + repro imports.
_GRAPH_SCRIPT = PEAK_RSS_SNIPPET + r"""
import json, sys, time
t0 = time.perf_counter()
import numpy as np
from repro.graph import io as gio
mode, path, n_vertices = sys.argv[1], sys.argv[2], int(sys.argv[3])
t1 = time.perf_counter()
g = None
if mode == "edge_list":
    g = gio.load_edge_list(path, n_vertices=n_vertices)
elif mode == "npz":
    g = gio.load_npz(path)
elif mode == "csr_resident":
    g = gio.load_csr(path, provider="resident")
elif mode == "csr_mmap":
    g = gio.load_csr(path, provider="mmap")
elif mode != "baseline":
    raise SystemExit(f"unknown mode {mode!r}")
t2 = time.perf_counter()
if g is not None:
    rng = np.random.default_rng(0)
    vs = rng.integers(0, g.n_vertices, size=256)
    deg = int(g.degrees[vs].sum())
    pairs = np.column_stack([vs, (vs + 1) % g.n_vertices])
    hits = int(g.has_edges(pairs).sum())
    nb = sum(int(g.neighbors(int(v)).size) for v in vs[:16])
t3 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "load_s": t2 - t1,
    "query_s": t3 - t2,
    "maxrss_bytes": _peak_rss_bytes(),
}))
"""

# Runs inside the artifact child: load the container as argv says, answer
# one small link-probability batch, emit time-to-first-answer and peak RSS.
_COLD_SCRIPT = PEAK_RSS_SNIPPET + r"""
import json, sys, time
t0 = time.perf_counter()
import numpy as np
from repro.serve.artifact import load_artifact
from repro.serve.engine import QueryEngine
t1 = time.perf_counter()
path = sys.argv[1]
if path != "baseline":
    provider = sys.argv[2]  # resident is the slow path: read whole, hash everything
    art = load_artifact(path, provider=provider, verify="full" if provider == "resident" else True)
    eng = QueryEngine(art)
    n = art.n_nodes
    pairs = np.column_stack(
        [np.arange(64) % n, (np.arange(64) + 1) % n]
    ).astype(np.int64)
    probs = eng.link_probability(pairs)
    assert probs.shape == (64,) and np.all((probs > 0) & (probs < 1))
t2 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "first_answer_s": t2 - t1,
    "maxrss_bytes": _peak_rss_bytes(),
}))
"""


def trim_heap() -> None:
    """Release freed heap pages back to the OS (Linux/glibc best-effort).

    Measurement children are *forked*, and Linux seeds a forked child's
    ``ru_maxrss`` with the parent's resident size at fork time — so a
    parent that just built and serialized a big graph hands every child
    a huge RSS floor that swamps the child's own usage. Calling this
    after dropping the big objects (and before spawning children) pulls
    that floor back down near the interpreter baseline. The residual
    floor is still measured by the ``baseline`` child and subtracted.
    """
    import ctypes
    import gc

    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


def measure_subprocess(
    script: str, argv: list[str], timeout: float = 600.0
) -> dict[str, float]:
    """Run ``script`` in a fresh interpreter and parse its JSON stdout.

    The child gets ``src/`` on ``PYTHONPATH`` so ``repro`` imports work
    regardless of how the parent was launched. A fresh process per
    sample is what makes the peak-RSS reading trustworthy: the high
    water resets at exec, so it can never be polluted by whatever the
    parent (pytest, the CLI, a prior mode) already touched — scripts
    should report ``PEAK_RSS_SNIPPET``'s ``_peak_rss_bytes()`` rather
    than ``ru_maxrss``, which Linux seeds from the parent's peak.
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench child ({argv[:1]}) failed: {proc.stderr.strip()[-500:]}"
        )
    return json.loads(proc.stdout)


def _race(
    script: str,
    baseline_argv: list[str],
    argvs: dict[str, list[str]],
    time_key: str,
    reps: int,
) -> dict[str, Any]:
    """Run ``script`` once per entry of ``argvs``; the first is the slow path.

    Every number a child reports is the min over ``reps`` fresh children.
    Each entry gains ``rss_delta_bytes`` (over the ``baseline`` child,
    which loads nothing) and, against the first entry, ``speedup`` (its
    ``time_key`` over ours) and ``rss_fraction`` (our delta over its).
    """

    def best(argv: list[str]) -> dict[str, float]:
        samples = [measure_subprocess(script, argv) for _ in range(reps)]
        return {key: min(s[key] for s in samples) for key in samples[0]}

    results = {"baseline": best(baseline_argv)}
    slow = None
    for name, argv in argvs.items():
        r = best(argv)
        r["rss_delta_bytes"] = max(
            0, r["maxrss_bytes"] - results["baseline"]["maxrss_bytes"]
        )
        slow = slow or r
        r["speedup"] = slow[time_key] / max(r[time_key], 1e-9)
        r["rss_fraction"] = r["rss_delta_bytes"] / max(slow["rss_delta_bytes"], 1)
        results[name] = r
    return results


def _file_bytes(paths: dict[str, Path]) -> dict[str, int]:
    """On-disk size per distinct file (a container is a directory)."""
    return {
        p.name: sum(f.stat().st_size for f in p.iterdir())
        if p.is_dir()
        else p.stat().st_size
        for p in sorted(set(paths.values()))
    }


def _graph_load(w: StoreWorkload, seed: int, tmp: Path) -> dict[str, Any]:
    """Load time, query time and peak RSS of one graph per storage mode."""
    from repro.graph import io as gio

    graph = _make_graph(w, seed)
    paths = {
        "edge_list": tmp / "graph.txt",
        "npz": tmp / "graph.npz",
        "csr_resident": tmp / "graph.csr",
        "csr_mmap": tmp / "graph.csr",
    }
    gio.save_edge_list(graph, paths["edge_list"])
    gio.save_npz(graph, paths["npz"])
    gio.save_csr(graph, paths["csr_resident"])
    n_edges, n_vertices = graph.n_edges, str(graph.n_vertices)
    del graph  # children fork from this process: shrink their RSS floor
    trim_heap()
    results = _race(
        _GRAPH_SCRIPT,
        ["baseline", "-", n_vertices],
        {mode: [mode, str(paths[mode]), n_vertices] for mode in MODES},
        "load_s",
        w.reps,
    )
    results["n_edges"] = n_edges
    results["file_bytes"] = _file_bytes(paths)
    return results


def _cold_start(w: StoreWorkload, seed: int, tmp: Path) -> dict[str, Any]:
    """Cold-start-to-first-answer and peak RSS of one artifact container,
    read whole and verified against mapped with lazy digests."""
    from repro.bench.chaosbench import synthetic_artifact
    from repro.serve.artifact import save_artifact

    path = save_artifact(
        tmp / "model", synthetic_artifact(w.artifact_vertices, w.artifact_communities, seed)
    )
    trim_heap()  # as above: keep the children's floor low
    results = _race(
        _COLD_SCRIPT,
        ["baseline"],
        {provider: [str(path), provider] for provider in ARTIFACT_LOADS},
        "first_answer_s",
        w.reps,
    )
    results["file_bytes"] = _file_bytes({"model": path})
    return results


def run_store_bench(
    seed: int = 0, workload: Optional[StoreWorkload] = None
) -> dict[str, Any]:
    """Run both storage phases; returns the JSON-ready report."""
    w = workload or StoreWorkload()
    with tempfile.TemporaryDirectory(prefix="repro-storebench-") as tmp:
        return {
            "schema": gate.SCHEMA,
            "suite": "store",
            "seed": int(seed),
            "workload": asdict(w),
            "graph_load": _graph_load(w, seed, Path(tmp)),
            "cold_start": _cold_start(w, seed, Path(tmp)),
        }


def report_rows(report: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten a report for :func:`repro.bench.harness.format_table`.

    One row per graph-load mode and per artifact load; ``speedup`` and
    ``rss_fraction`` are against the phase's slow path (``edge_list``,
    ``resident``), so every gated ratio is a cell of this table.
    """
    phases = (
        ("graph_load", "load_s", MODES),
        ("cold_start", "first_answer_s", ARTIFACT_LOADS),
    )
    return [
        {
            "what": f"{phase} {name}",
            "ms": r[time_key] * 1e3,
            "rss_delta_MB": r["rss_delta_bytes"] / 1e6,
            "speedup": r["speedup"],
            "rss_fraction": r["rss_fraction"],
        }
        for phase, time_key, names in phases
        for name in names
        for r in [report[phase][name]]
    ]
