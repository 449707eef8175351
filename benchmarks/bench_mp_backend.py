"""Real-parallelism benchmark: the multiprocess backend on this machine.

Unlike the simulated-clock figures, these numbers are genuine wall-clock
on the host running the suite: worker processes execute the phi kernels
concurrently over shared memory.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.dist.mp import MultiprocessAMMSBSampler
from repro.graph.generators import generate_ammsb_graph


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    graph, _ = generate_ammsb_graph(4000, 16, rng=rng, target_edges=40_000)
    cfg = AMMSBConfig(
        n_communities=48,
        mini_batch_vertices=768,
        neighbor_sample_size=48,
        seed=1,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    return graph, cfg


def run_iterations(graph, cfg, n_workers, iters=15) -> float:
    with MultiprocessAMMSBSampler(graph, cfg, n_workers=n_workers) as s:
        s.run(2)  # warm up pipes and page in the table
        t0 = time.perf_counter()
        s.run(iters)
        return time.perf_counter() - t0


def test_mp_single_worker(benchmark, workload):
    graph, cfg = workload
    elapsed = benchmark.pedantic(
        lambda: run_iterations(graph, cfg, 1), rounds=1, iterations=1, warmup_rounds=0
    )
    assert elapsed > 0


def test_mp_multi_worker_not_slower(benchmark, workload):
    """With >= 2 cores, 4 worker processes must not lose to 1 (the phi
    stage is data-parallel; only IPC overhead works against it)."""
    graph, cfg = workload

    def compare():
        t1 = run_iterations(graph, cfg, 1)
        t4 = run_iterations(graph, cfg, min(4, max(2, (os.cpu_count() or 2))))
        return t1, t4

    t1, t4 = benchmark.pedantic(compare, rounds=1, iterations=1, warmup_rounds=0)
    print(f"\n1 worker: {t1:.2f}s   4 workers: {t4:.2f}s   speedup {t1 / t4:.2f}x")
    assert t4 < t1 * 1.35


def test_mp_result_independent_of_worker_count(benchmark, workload):
    """Different worker counts shard the same blocks differently, but every
    random number is keyed by (iteration, block), not by worker: one
    trajectory, so the held-out perplexity is the same number."""
    from repro.graph.split import split_heldout

    graph, cfg = workload
    split = split_heldout(graph, 0.02, np.random.default_rng(3))

    def run(workers):
        with MultiprocessAMMSBSampler(
            split.train, cfg, n_workers=workers, heldout=split
        ) as s:
            s.run(300)
            return s.evaluate_perplexity()

    def compare():
        return run(1), run(3)

    p1, p3 = benchmark.pedantic(compare, rounds=1, iterations=1, warmup_rounds=0)
    assert p1 == p3
