"""Kernel-backend microbench: every registered backend, one report.

``run_kernel_bench`` times the four hot-path kernels (phi gradient, phi
update, weighted theta gradient, link probability) under every backend
registered in this environment on the acceptance workloads (m=256, n=32,
K=128 for phi; E=8192 for theta; H=8192 pairs for link scoring — each
1,048,576 elements), plus an end-to-end sequential sampler run per
backend. The phi gradient is timed as the engines run it, from a ``pi``
table and the neighbor ids, so the row gather is inside the timed call
for every backend (up front for ``reference``, block by block inside
``fused``). The JSON-ready report holds per-kernel
elements/sec and per-backend ``speedups`` over ``reference`` measured in
the same run. Beside the phi gradient it records, ungated, what the
fused kernel cannot go below on this host (``headroom``): its block by
block gather alone, and the gather plus the two contractions.

The runner only measures. Which of those speedups are held to a floor,
and what a miss costs, is :mod:`repro.bench.gate`'s business
(``repro bench kernels``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.bench import gate
from repro.bench.harness import best_of

#: the denominator backend of every speedup ratio.
BASELINE_BACKEND = "reference"


@dataclass(frozen=True)
class KernelWorkload:
    """Kernel and sampler sizes; the defaults are the acceptance workloads."""

    m: int = 256  # phi: mini-batch vertices
    n: int = 32  # phi: neighbors per vertex
    table_rows: int = 10_000  # phi: rows of the pi table the neighbors come from
    k: int = 128  # communities, every kernel
    e: int = 8192  # theta: weighted pairs
    h: int = 8192  # link scoring: pairs
    repeats: int = 5
    inner: int = 10
    sampler_vertices: int = 800
    sampler_iterations: int = 40
    sampler_passes: int = 3


def _phi_workload(rng: np.random.Generator, m: int, n: int, k: int, table_rows: int):
    pi_a = rng.dirichlet(np.ones(k), size=m)
    phi_sum = rng.gamma(5.0, 1.0, size=m) + 1.0
    pi = rng.dirichlet(np.ones(k), size=table_rows)
    pi_b = (pi, rng.integers(0, table_rows, size=(m, n)))  # a deferred gather
    y = rng.random((m, n)) < 0.1
    beta = rng.uniform(0.1, 0.9, k)
    mask = np.ones((m, n), dtype=bool)
    return pi_a, phi_sum, pi_b, y, beta, mask


def _theta_workload(rng: np.random.Generator, e: int, k: int):
    pi_a = rng.dirichlet(np.ones(k), size=e)
    pi_b = rng.dirichlet(np.ones(k), size=e)
    y = (rng.random(e) < 0.5).astype(np.int64)
    theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
    weights = rng.uniform(0.5, 50.0, size=e)
    return pi_a, pi_b, y, theta, weights


def _link_workload(rng: np.random.Generator, h: int, k: int):
    pi_a = rng.dirichlet(np.ones(k), size=h)
    pi_b = rng.dirichlet(np.ones(k), size=h)
    beta = rng.uniform(0.1, 0.9, k)
    return pi_a, pi_b, beta


def _phi_headroom_operands(m: int, n: int, k: int, itemsize: int) -> dict[str, tuple]:
    """Shapes of what :func:`_phi_headroom` times, under the names of the
    fused kernel's workspace buffers of the same role — a test holds the
    two to each other, so this cannot go on describing a kernel that has
    changed."""
    from repro.core import kernels

    rows = kernels._phi_block_rows(m, n, k, itemsize)
    return {
        "phi_rows": (rows, n, k),
        "phi_q": (m, 3, k),
        "phi_o": (rows, 3, n),
        "phi_w": (rows, 2, n),
        "phi_g": (m, 2, k),
    }


def _phi_headroom(pi_b, w: KernelWorkload) -> dict[str, Any]:
    """Seconds of the fused phi gradient's two unavoidable parts.

    The kernel's block loop with everything else taken out: ``gather_s``
    takes each block's neighbor rows from the table and nothing more,
    ``gather_contractions_s`` adds the ``(rows, 3, K) @ (rows, K, n)`` and
    ``(rows, 2, n) @ (rows, n, K)`` products on operands of the kernel's
    shapes (their values do not matter to the time). What the fused
    timing shows above the second is ``(rows, n)`` ufunc calls and the
    ``(m, K)`` epilogue.
    """
    table, index = pi_b
    (m, n), k = index.shape, table.shape[1]
    shapes = _phi_headroom_operands(m, n, k, table.itemsize)
    block, q, overlaps, weights, sums = (
        np.ones(shapes[name], table.dtype)
        for name in ("phi_rows", "phi_q", "phi_o", "phi_w", "phi_g")
    )
    rows = len(block)

    def walk(contract: bool) -> None:
        for a in range(0, m, rows):
            b = min(a + rows, m)
            taken = np.take(table, index[a:b], axis=0, out=block[: b - a], mode="clip")
            if contract:
                np.matmul(q[a:b], taken.transpose(0, 2, 1), out=overlaps[: b - a])
                np.matmul(weights[: b - a], taken, out=sums[a:b])

    best = {False: float("inf"), True: float("inf")}
    for _ in range(w.repeats):
        for contract in best:
            best[contract] = min(best[contract], best_of(partial(walk, contract), 1, w.inner))
    return {"block_rows": rows, "gather_s": best[False], "gather_contractions_s": best[True]}


def _bench_kernels(
    backend_names: list[str], w: KernelWorkload, seed: int
) -> dict[str, dict[str, Any]]:
    from repro.core import kernels

    rng = np.random.default_rng(seed)
    m, n, k, e, h = w.m, w.n, w.k, w.e, w.h

    pi_a, phi_sum, pi_b, y, beta, mask = _phi_workload(rng, m, n, k, w.table_rows)
    delta = 1e-4
    t_pi_a, t_pi_b, t_y, theta, t_weights = _theta_workload(rng, e, k)
    l_pi_a, l_pi_b, l_beta = _link_workload(rng, h, k)
    noise = rng.standard_normal((m, k))
    phi = pi_a * phi_sum[:, None]

    def calls_for(backend) -> dict[str, Any]:
        """The four timed calls, bound to one backend and its workspace."""
        ws = kernels.KernelWorkspace()
        grad = backend.phi_gradient_sum(
            pi_a, phi_sum, pi_b, y, beta, delta, mask=mask, workspace=ws
        ).copy()
        return {
            "phi_gradient": lambda: backend.phi_gradient_sum(
                pi_a, phi_sum, pi_b, y, beta, delta, mask=mask, workspace=ws
            ),
            "phi_update": lambda: backend.update_phi(
                phi, grad, 0.01, 0.1, 100.0, noise, workspace=ws
            ),
            "theta_gradient": lambda: backend.theta_gradient_weighted(
                t_pi_a, t_pi_b, t_y, theta, delta, weights=t_weights, workspace=ws
            ),
            "link_probability": lambda: backend.link_probability(
                l_pi_a, l_pi_b, l_beta, delta, workspace=ws
            ),
        }

    calls = {}
    for name in backend_names:
        calls[name] = calls_for(kernels.get_backend(name))
    elements = {
        "phi_gradient": m * n * k,
        "phi_update": m * k,
        "theta_gradient": e * k,
        "link_probability": h * k,
    }
    report: dict[str, dict[str, Any]] = {}
    for kernel, count in elements.items():
        # Interleave the backends repeat by repeat and keep each one's
        # best, so a load spike hits every backend instead of biasing the
        # one that ran under it: timed back to back, the fused/reference
        # ratio of phi_update spread 0.62-1.32 over ten runs on the
        # reference host; interleaved, 1.07-1.29.
        best = {name: float("inf") for name in backend_names}
        for _ in range(w.repeats):
            for name in backend_names:
                best[name] = min(best[name], best_of(calls[name][kernel], 1, w.inner))
        report[kernel] = {"elements": count}
        for name, seconds in best.items():
            report[kernel][name] = {
                "seconds": seconds,
                "elements_per_s": count / seconds,
            }
    if "fused" in backend_names:
        report["phi_gradient"]["headroom"] = _phi_headroom(pi_b, w)
    return report


def _bench_sampler(
    backend_names: list[str], w: KernelWorkload, seed: int
) -> dict[str, Any]:
    """End-to-end sequential sampler iterations/sec per backend."""
    from dataclasses import replace

    from repro.config import AMMSBConfig, StepSizeConfig
    from repro.core.sampler import AMMSBSampler
    from repro.graph.generators import planted_overlapping_graph

    rng = np.random.default_rng(seed)
    n_vertices, iters = w.sampler_vertices, w.sampler_iterations
    graph, _ = planted_overlapping_graph(
        n_vertices, 8, memberships_per_vertex=2, rng=rng
    )
    # Large enough that the kernels dominate over graph/minibatch sampling.
    base = AMMSBConfig(
        n_communities=64,
        mini_batch_vertices=128,
        neighbor_sample_size=32,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
        seed=seed,
    )
    out: dict[str, Any] = {"iterations": iters, "n_vertices": n_vertices}
    samplers = {}
    for name in backend_names:
        cfg = replace(base, kernel_backend=name)
        samplers[name] = AMMSBSampler(graph, cfg)
        samplers[name].run(2)  # warm caches and workspace buffers
    # Interleaved for the same reason as the kernels above.
    best = {name: float("inf") for name in backend_names}
    for _ in range(w.sampler_passes):
        for name in backend_names:
            start = time.perf_counter()
            samplers[name].run(iters)
            best[name] = min(best[name], time.perf_counter() - start)
    for name in backend_names:
        samplers[name].close()
        out[name] = {
            "seconds": best[name],
            "iterations_per_s": iters / best[name],
        }
    return out


def _add_speedups(report: dict[str, Any]) -> None:
    """Attach ``speedups: {backend: reference_s / backend_s}`` per entry."""
    entries = list(report["kernels"].values()) + [report["sampler"]["end_to_end"]]
    for entry in entries:
        base = entry.get(BASELINE_BACKEND)
        if base is None:
            continue
        speedups = {
            name: base["seconds"] / timing["seconds"]
            for name, timing in entry.items()
            if isinstance(timing, dict)
            and "seconds" in timing
            and name != BASELINE_BACKEND
        }
        if speedups:
            entry["speedups"] = speedups


def run_kernel_bench(
    seed: int = 0, workload: Optional[KernelWorkload] = None
) -> dict[str, Any]:
    """Time every registered backend; returns the JSON-ready report."""
    from repro.core import kernels

    w = workload or KernelWorkload()
    names = kernels.available_backends()
    report: dict[str, Any] = {
        "schema": gate.SCHEMA,
        "suite": "kernels",
        "seed": int(seed),
        "backends": list(names),
        "workload": asdict(w),
        "kernels": _bench_kernels(names, w, seed),
        "sampler": {"end_to_end": _bench_sampler(names, w, seed)},
    }
    _add_speedups(report)
    return report


def report_rows(report: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten a report for :func:`repro.bench.harness.format_table`."""
    columns = report["backends"]
    rows = []
    for kernel, data in report["kernels"].items():
        row: dict[str, Any] = {"kernel": kernel}
        for name in columns:
            if name in data:
                row[f"{name}_Melem/s"] = data[name]["elements_per_s"] / 1e6
        for name, value in data.get("speedups", {}).items():
            row[f"{name}_speedup"] = value
        rows.append(row)
        headroom = data.get("headroom", {})
        for part, label in (("gather_s", "gather"), ("gather_contractions_s", "gather + contractions")):
            if part in headroom and "fused_Melem/s" in row:
                rate = data["elements"] / headroom[part] / 1e6
                rows.append({"kernel": f"  fused: {label} alone", "fused_Melem/s": rate})
    sampler = report["sampler"]["end_to_end"]
    row = {"kernel": "sampler end-to-end"}
    for name in columns:
        if name in sampler:
            row[f"{name}_Melem/s"] = ""
            row[f"{name}_iters/s"] = sampler[name]["iterations_per_s"]
    for name, value in sampler.get("speedups", {}).items():
        row[f"{name}_speedup"] = value
    rows.append(row)
    return rows
