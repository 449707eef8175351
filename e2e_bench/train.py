"""``train_*`` workloads: blocks of SG-MCMC iterations on one engine.

Set-up builds the graph, the held-out split and the engine and runs the
warm-up iterations; the measured part is ``blocks`` short timed blocks. After
each the host probe is read (``util.HostProbe``: block rates are reported
as the nominal host would have shown them), and after each block of the
last third one posterior sample is recorded for held-out perplexity.

The untraced run times whole blocks of ``sampler.run``. The traced run
keeps the same schedule — so its final state digest equals the untraced
run's — but records every second block: for the sequential engine by
replaying ``step()`` as its four public stage calls, for the mp engine
around ``step()`` and the master's serial draw. The blocks it does not
record give the untraced rate of the same process, hence
``trace.overhead_ratio``.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core.kernels import KernelBackend
from repro.core.perplexity import PerplexityEstimator
from repro.core.sampler import AMMSBSampler
from repro.graph.generators import generate_ammsb_graph
from repro.graph.split import split_heldout

from e2e_bench.spec import TrainSize
from e2e_bench.trace import Tracer
from e2e_bench.util import Outcome, host_factor, state_digest, state_ok, summary

KERNELS = ("phi_gradient_sum", "update_phi", "theta_gradient_weighted", "update_theta")
STAGES = {
    "draw": "core.minibatch.sample",
    "neighbors": "core.minibatch.sample_neighbors",
    "phi": "core.sampler.update_phi_pi",
    "theta": "core.sampler.update_beta_theta",
}


def make_inputs(size, seed: int):
    """Graph, held-out split and config of a workload, from the seed alone."""
    start = time.perf_counter()
    graph, _truth = generate_ammsb_graph(
        size.n_vertices,
        size.k,
        rng=np.random.default_rng([seed, 1]),
        target_edges=size.n_edges,
        degree_heterogeneity=0.75,
    )
    generate_s = time.perf_counter() - start
    config = AMMSBConfig(
        n_communities=size.k,
        mini_batch_vertices=size.m,
        neighbor_sample_size=size.n,
        kernel_backend="fused",
        dtype="float64",
        seed=seed,
    )
    return graph, config, generate_s


def heldout_of(graph, seed: int):
    return split_heldout(
        graph, 0.01, rng=np.random.default_rng([seed, 2]), max_links=5000
    )


def _timing_kernels(backend: KernelBackend, tracer: Tracer) -> KernelBackend:
    """A backend whose four training kernels record ``core.kernels.*`` spans."""

    def timed(name: str):
        fn = getattr(backend, name)

        def kernel(*args, **kwargs):
            with tracer.span(f"core.kernels.{name}"):
                return fn(*args, **kwargs)

        return kernel

    return KernelBackend(
        backend.name,
        *(timed(name) for name in KERNELS),
        link_probability=backend.link_probability,
    )


def _replay_block(sampler: AMMSBSampler, tracer: Tracer, n_iter: int) -> None:
    """``step()`` as its four public stage calls, in the same order."""
    draws = sampler.minibatch_sampler
    k = sampler.config.n_communities
    for _ in range(n_iter):
        tracer.op = sampler.iteration
        with tracer.span(STAGES["draw"]):
            minibatch = draws.sample(sampler.rng)
        with tracer.span(STAGES["neighbors"]):
            neighbors = draws.sample_neighbors(minibatch.vertices, sampler.rng)
        with tracer.span(STAGES["phi"]):
            sampler.update_phi_pi(minibatch, neighbors)
        with tracer.span(STAGES["theta"]):
            sampler.update_beta_theta(minibatch)
        sampler.iteration += 1
        tracer.add("minibatch.vertices", minibatch.n_vertices)
        tracer.add("minibatch.pairs", minibatch.n_edges)
        tracer.add("neighbors.unmasked", int(neighbors.mask.sum()))
        tracer.add("neighbors.slots", neighbors.mask.size)
        tracer.add("phi.elements", neighbors.mask.size * k)
        # computed, not measured: float64 reads of pi_b (m, n, K) and pi_a
        # (m, K), the bool labels and mask, and the (m, K) gradient written
        tracer.add(
            "phi.bytes",
            8 * (neighbors.mask.size * k + 2 * minibatch.n_vertices * k)
            + 2 * neighbors.mask.size,
        )


def _time_blocks(run_block, n_blocks: int, n_iter: int, after_block) -> tuple[list, list]:
    """Iterations per second of each block: as the clock read them, and
    multiplied by the host factor read right after the block (util.HostProbe)."""
    raw, rates = [], []
    for block in range(n_blocks):
        start = time.perf_counter()
        run_block(block, n_iter)
        raw.append(n_iter / (time.perf_counter() - start))
        rates.append(raw[-1] * host_factor())
        after_block(block)
    return raw, rates


def _reference_rate(make_sampler, warmup: int, n_iter: int, blocks: int = 3) -> float:
    """Median block rate of another engine on the same inputs."""
    sampler = make_sampler()
    sampler.run(warmup)
    _raw, rates = _time_blocks(lambda _b, n: sampler.run(n), blocks, n_iter, lambda _b: None)
    return statistics.median(rates)


class Workload:
    """Set-up in ``__init__``, the timed blocks in :meth:`measure`."""

    def __init__(self, size: TrainSize, seed: int, _workdir=None) -> None:
        self.size = size
        self.mp = size.engine == "mp"
        graph, self.config, self.generate_s = make_inputs(size, seed)
        host_factor()  # the host between the phases of set-up (run.py)
        self.split = heldout_of(graph, seed)
        self.estimator = PerplexityEstimator(
            self.split.heldout_pairs, self.split.heldout_labels, self.config.delta
        )
        start = time.perf_counter()
        if self.mp:
            from repro.dist.mp import MultiprocessAMMSBSampler

            self.sampler = MultiprocessAMMSBSampler(
                self.split.train, self.config, n_workers=2, heldout=self.split
            )
        else:
            self.sampler = AMMSBSampler(self.split.train, self.config, heldout=self.split)
        self.startup_s = time.perf_counter() - start
        host_factor()
        self.close_s = 0.0
        first = self.state()
        self.perplexity_before = self.estimator.single_sample_value(first.pi, first.beta)
        self.sampler.run(size.warmup)

    def state(self):
        return self.sampler.state_snapshot() if self.mp else self.sampler.state

    def close(self) -> None:
        if self.mp:
            start = time.perf_counter()
            self.sampler.close()
            self.close_s = time.perf_counter() - start

    def measure(self, tracer: Optional[Tracer]) -> Outcome:
        size, sampler, mp = self.size, self.sampler, self.mp
        if tracer is not None:
            if mp:
                tracer.wrap(sampler, "step", "dist.mp.step")
                tracer.wrap(sampler.master, "next_draw", "dist.master.next_draw")
            else:
                tracer.wrap(
                    sampler.graph,
                    "has_edges",
                    "graph.has_edges",
                    after=lambda t, args, _kw, _res: t.add("has_edges.pairs", len(args[0])),
                )
                sampler.kernels = _timing_kernels(sampler.kernels, tracer)

        def run_block(block: int, n_iter: int) -> None:
            if tracer is None or block % 2 == 0:
                sampler.run(n_iter)
                return
            tracer.enabled = True
            if mp:
                for _ in range(n_iter):
                    tracer.op = sampler.iteration
                    sampler.step()
            else:
                _replay_block(sampler, tracer, n_iter)
            tracer.enabled = False

        def after_block(block: int) -> None:
            # Posterior samples of the last third of the run only: on
            # train_sampling the single-sample perplexity dips to ~12, humps
            # to ~50 somewhere between iteration 300 and 900 depending on the
            # seed, and only then settles (~25 and falling slowly). Pooled over
            # all blocks it read 14.5..24.9 over ten seeds; the tail reads alike.
            if 3 * block >= 2 * size.blocks:
                state = self.state()
                self.estimator.record(state.pi, state.beta)

        try:
            raw, rates = _time_blocks(run_block, size.blocks, size.iters_per_block, after_block)
            final = self.state()
            recoveries = len(sampler.recoveries) if mp else 0
        finally:
            if tracer is not None:
                tracer.restore()
            self.close()

        plain = rates if tracer is None else rates[0::2]
        rate = statistics.median(plain)
        perplexity_after = self.estimator.single_sample_value(final.pi, final.beta)
        layers: dict[str, float] = {}
        if tracer is not None:
            traced_iters = (size.blocks // 2) * size.iters_per_block
            layers = _layers(tracer, traced_iters, mp)
            layers["graph.generate_s"] = self.generate_s
            layers["trace.overhead_ratio"] = statistics.median(rates[1::2]) / rate
            if mp:
                layers.update(self._other_engines(rate))
                layers["dist.mp.startup_s"] = self.startup_s
                layers["dist.mp.close_s"] = self.close_s
                layers["dist.mp.recoveries"] = recoveries
                layers["dist.mp.worker_peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
                )
        return Outcome(
            native={"iter_per_s": rate, "heldout_perplexity": self.estimator.value()},
            ops_per_s=rate,
            attempted=size.blocks * size.iters_per_block,
            failed=0,
            checks={
                "state_valid": state_ok(final),
                "perplexity_fell": perplexity_after < self.perplexity_before,
                "no_recoveries": recoveries == 0,
            },
            layers=layers,
            detail={
                "state_digest": state_digest(final),
                "iterations": size.warmup + size.blocks * size.iters_per_block,
                "iter_per_s": summary(plain),
                "block_iter_per_s": rates,
                "raw_block_iter_per_s": raw,
                "perplexity_before": self.perplexity_before,
                "perplexity_after": perplexity_after,
                "n_train_edges": self.split.train.n_edges,
                "n_heldout": self.split.n_heldout,
            },
        )

    def _other_engines(self, mp_rate: float) -> dict[str, float]:
        """The sequential and threaded engines on the same inputs, one after
        the other and after the workers exited, so that no more than two
        threads or processes ever run."""
        from repro.parallel.sampler import ThreadedAMMSBSampler

        size, split, config = self.size, self.split, self.config
        n_iter = size.iters_per_block
        sequential = _reference_rate(
            lambda: AMMSBSampler(split.train, config, heldout=split), size.warmup, n_iter
        )
        threaded = _reference_rate(
            lambda: ThreadedAMMSBSampler(split.train, config, heldout=split, n_threads=2),
            size.warmup,
            n_iter,
        )
        return {
            "dist.mp.parallel_efficiency": mp_rate / (2.0 * sequential),
            "parallel.sampler.iter_per_s": threaded,
            "parallel.sampler.speedup_vs_sequential": threaded / sequential,
        }


def _layers(tracer: Tracer, iters: int, mp: bool) -> dict[str, float]:
    totals = tracer.totals()
    counts = tracer.counts
    if mp:
        return {
            "dist.mp.step.ms_per_iter": totals.ms("dist.mp.step", iters),
            "dist.master.next_draw.ms_per_iter": totals.ms("dist.master.next_draw", iters),
        }
    out = {
        "graph.has_edges.ms_per_iter": totals.ms("graph.has_edges", iters),
        "graph.has_edges.pairs_per_iter": counts["has_edges.pairs"] / iters,
        "graph.has_edges.ns_per_pair": 1e9
        * totals.total["graph.has_edges"]
        / max(counts["has_edges.pairs"], 1),
        "core.minibatch.sample.ms_per_iter": totals.ms(STAGES["draw"], iters),
        "core.minibatch.sample_neighbors.ms_per_iter": totals.ms(STAGES["neighbors"], iters),
        "core.minibatch.sample_neighbors.self_ms_per_iter": totals.self_ms(
            STAGES["neighbors"], iters
        ),
        "core.minibatch.vertices_per_iter": counts["minibatch.vertices"] / iters,
        "core.minibatch.pairs_per_iter": counts["minibatch.pairs"] / iters,
        "core.minibatch.neighbor_mask_ratio": counts["neighbors.unmasked"]
        / max(counts["neighbors.slots"], 1),
        "core.sampler.update_phi_pi.ms_per_iter": totals.ms(STAGES["phi"], iters),
        "core.sampler.update_phi_pi.self_ms_per_iter": totals.self_ms(STAGES["phi"], iters),
        "core.sampler.update_beta_theta.ms_per_iter": totals.ms(STAGES["theta"], iters),
        "core.sampler.update_beta_theta.self_ms_per_iter": totals.self_ms(
            STAGES["theta"], iters
        ),
        "core.kernels.phi_gradient_sum.elements_per_iter": counts["phi.elements"] / iters,
        "core.kernels.phi_gradient_sum.computed_bytes_per_iter": counts["phi.bytes"] / iters,
    }
    for name in KERNELS:
        out[f"core.kernels.{name}.ms_per_iter"] = totals.ms(f"core.kernels.{name}", iters)
    staged = sum(totals.total[span] for span in STAGES.values())
    for stage, span in STAGES.items():
        out[f"core.sampler.stage_share.{stage}"] = totals.total[span] / staged
    return out
