"""The benchmark's contract: workloads, sizes and metric names in one place.

Everything a later issue quotes ("metric X on workload Y") is declared
here, and ``BENCHMARK.json`` is checked against it by ``test_smoke.py``.
Sizes are constants so that, for a fixed seed, every count and digest
repeats exactly; only ``--seconds`` scales the *operation counts* (never
a graph size), linearly from the ``RUN_SECONDS`` reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: The run length the operation counts below are sized for (the value of
#: ``run_seconds`` in BENCHMARK.json): each workload's timed part takes
#: about this long on the 2-core reference box in its fast regime.
RUN_SECONDS = 10


@dataclass(frozen=True)
class TrainSize:
    n_vertices: int
    n_edges: int
    k: int  # communities
    m: int  # mini-batch vertices
    n: int  # neighbor sample size
    warmup: int  # untimed iterations before the first block
    blocks: int
    iters_per_block: int
    engine: str = "sequential"  # or "mp" (2 forked workers)
    setups: int = 3  # set-up is repeated; setup_s takes the median (see run.py)

    def scaled(self, factor: float) -> "TrainSize":
        return replace(
            self, iters_per_block=max(1, round(self.iters_per_block * factor))
        )


@dataclass(frozen=True)
class StreamSize:
    n_vertices: int  # of the final graph the stream converges to
    n_edges: int
    k: int
    m: int
    n: int
    base_fraction: float
    #: batch run that seeds StreamTrainer.from_checkpoint. 1000, not the
    #: issue's 100: held-out perplexity dips, humps and only settles after
    #: ~1000 iterations at this size, and before that it is chaotic in the seed.
    warm_iters: int
    gen0_iters: int  # generation 0 (set-up) training budget
    generations: int  # timed generations
    arrivals_per_gen: int
    iters_per_gen: int
    setups: int = 1  # ~9 s each: repeating it would cost more than a whole run

    def scaled(self, factor: float) -> "StreamSize":
        return replace(self, generations=max(2, round(self.generations * factor)))


@dataclass(frozen=True)
class ServeSize:
    n_nodes: int
    k: int
    #: timed blocks. Fifty, not the issue's eight: the host probe is read
    #: between blocks (util.HostProbe), and the three swaps then fall in
    #: blocks 12, 25 and 37, so neither the traced (odd) nor the untraced
    #: (even) blocks of a traced run carry all of them.
    blocks: int
    block: int  # completed requests per block
    warmup: int  # untimed requests before the first block
    outstanding: int = 16
    cache_size: int = 4096
    pairs_per_link: int = 16
    zipf: float = 1.1
    #: request mix: link_probability, membership, recommend_edges. Recommends
    #: are not placed independently but one every ``1 / mix[2]`` requests, so
    #: with 16 in flight no two ever share a batch. Placed at random, 1 to 5
    #: share a batch by chance, and that chance alone set peak RSS (460-720
    #: MiB), the block rates (900-4000 req/s) and the recommend median.
    mix: tuple[float, float, float] = (0.73, 0.25, 0.02)
    top_n: int = 10
    checked: int = 200  # link answers compared with the numpy reference
    setups: int = 3

    @property
    def requests(self) -> int:
        return self.blocks * self.block

    @property
    def swap_every(self) -> int:
        return self.requests // 4

    def scaled(self, factor: float) -> "ServeSize":
        return replace(self, block=max(self.outstanding * 4, round(self.block * factor)))


# -- the size table ------------------------------------------------------------
#
# ISSUE 12 sized the workloads for <30 s runs (24x100, 20x16, 20x32
# iterations; 12 and 6 generations; 40 000 requests). The driver's cap
# (136 runs in 3420 s) leaves ~10 s of timed work per run, so the
# *operation counts* are scaled down; graph sizes, K, M, n and
# per-generation deltas are the issue's. The timed part is cut into ~40
# short blocks (the issue had 20-24 long ones) because the host probe is
# read between blocks, and ~40 readings a run left half the spread that 13
# did on train_sampling (util.HostProbe, README "Host-normalised times").

FULL = {
    "train_sampling": TrainSize(100_000, 1_000_000, 32, 256, 32, 20, 40, 30),
    "train_kernel": TrainSize(10_000, 150_000, 128, 512, 64, 5, 35, 4),
    "train_mp": TrainSize(10_000, 150_000, 128, 512, 64, 5, 40, 7, engine="mp"),
    "stream_small_delta": StreamSize(
        50_000, 500_000, 32, 256, 32, 0.99, 1000, 50, 5, 800, 50
    ),
    "stream_large_delta": StreamSize(
        50_000, 500_000, 32, 256, 32, 0.8, 1000, 50, 3, 29_600, 300
    ),
    "serve_mixed": ServeSize(100_000, 32, 50, 400, 400),
}

#: Same code paths, tiny inputs: the whole suite (untraced + traced) runs
#: in under a minute. Results are marked ``smoke`` and are never a baseline.
SMOKE = {
    "train_sampling": TrainSize(3_000, 30_000, 16, 64, 16, 3, 4, 40),
    "train_kernel": TrainSize(1_000, 10_000, 16, 64, 16, 2, 4, 25),
    "train_mp": TrainSize(1_000, 10_000, 16, 64, 16, 2, 4, 25, engine="mp"),
    "stream_small_delta": StreamSize(
        3_000, 30_000, 8, 64, 16, 0.97, 20, 10, 2, 300, 10
    ),
    "stream_large_delta": StreamSize(
        3_000, 30_000, 8, 64, 16, 0.8, 20, 10, 2, 2_000, 40
    ),
    "serve_mixed": ServeSize(3_000, 8, 10, 80, 60, checked=50),
}

WORKLOADS = {
    "train_sampling": (
        "Largest graph (N=1e5, E=1e6, pi 25 MB > LLC): mini-batch draw, neighbor"
        " sampling and Graph.has_edges are ~50% of an iteration, so sampling-layer"
        " work shows and kernel work shows only half."
    ),
    "train_kernel": (
        "Small graph, wide K/M/n (the paper's per-vertex regime): the phi stage is"
        " ~87%, so kernel/gather work shows and a sampling optimisation must show"
        " no change; single-process baseline for train_mp."
    ),
    "train_mp": (
        "train_kernel inputs on 2 forked workers (shm pi, three barriers per"
        " iteration, serial master draw): guards the executor/pi-store seam and"
        " gives scaling efficiency against train_kernel."
    ),
    "stream_small_delta": (
        "0.2% delta per generation on a 5e4-vertex graph: fixed O(E)+O(N*K) costs"
        " (compact, split, checkpoint, export) are ~80% of a generation, so"
        " overlay-aware sampling or container checkpoints pay here."
    ),
    "stream_large_delta": (
        "Same loop with ~30k arrivals and 300 iterations per generation:"
        " training-dominated with real ingest/dedup/extend work, so a small-delta"
        " win bought by slower sampling or ingest shows as a loss."
    ),
    "serve_mixed": (
        "Closed loop, 16 in flight, 73% link / 25% membership / 2% recommend, 1e5-node"
        " artifact hot-swapped under load: recommends head-of-line block links, so"
        " batching, cache and load-path changes each show."
    ),
}


# -- end-to-end metrics ----------------------------------------------------------


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by. It has to
    #: cover the spread of ten runs with ten seeds on a noisy shared host
    #: (README "Bounds"), so it is wider than ISSUE 12 proposed.
    bound: float
    #: workload-name prefixes on which the metric is natively defined;
    #: elsewhere the cell repeats the workload's headline number.
    native: tuple[str, ...]


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, ("train_", "stream_", "serve_")),
    EndToEnd("iter_per_s", "1/s", "higher", 0.25, ("train_",)),
    EndToEnd("heldout_perplexity", "perplexity", "lower", 0.25, ("train_", "stream_")),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.25, ("train_", "stream_", "serve_")),
    EndToEnd("arrival_to_servable_s", "s", "lower", 0.25, ("stream_",)),
    EndToEnd("requests_per_s", "1/s", "higher", 0.25, ("serve_",)),
    EndToEnd("link_p99_ms", "ms", "lower", 0.25, ("serve_",)),
    EndToEnd("recommend_p50_ms", "ms", "lower", 0.25, ("serve_",)),
)


def is_native(metric: EndToEnd, workload: str) -> bool:
    return workload.startswith(metric.native)


# -- per-layer metrics (traced run) ---------------------------------------------
#
# (name, unit, better, the end-to-end metric @ workload it should move)

PER_LAYER = (
    ("graph.has_edges.ms_per_iter", "ms", "lower", "iter_per_s @ train_sampling; none @ train_kernel"),
    ("graph.has_edges.pairs_per_iter", "count", "lower", "iter_per_s @ train_sampling"),
    ("graph.has_edges.ns_per_pair", "ns", "lower", "iter_per_s @ train_sampling"),
    ("graph.split_heldout.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("graph.io.save_csr.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("graph.io.save_csr.bytes_per_gen", "bytes", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("graph.generate_s", "s", "lower", "setup_s @ all"),
    ("core.minibatch.sample.ms_per_iter", "ms", "lower", "iter_per_s @ train_sampling"),
    ("core.minibatch.sample_neighbors.ms_per_iter", "ms", "lower", "iter_per_s @ train_sampling"),
    ("core.minibatch.sample_neighbors.self_ms_per_iter", "ms", "lower", "iter_per_s @ train_sampling"),
    ("core.minibatch.vertices_per_iter", "count", "higher", "iter_per_s @ train_sampling"),
    ("core.minibatch.pairs_per_iter", "count", "higher", "iter_per_s @ train_sampling"),
    ("core.minibatch.neighbor_mask_ratio", "ratio", "higher", "iter_per_s @ train_sampling"),
    ("core.sampler.update_phi_pi.ms_per_iter", "ms", "lower", "iter_per_s @ train_kernel, train_sampling"),
    ("core.sampler.update_phi_pi.self_ms_per_iter", "ms", "lower", "iter_per_s @ train_kernel, train_sampling"),
    ("core.sampler.update_beta_theta.ms_per_iter", "ms", "lower", "iter_per_s @ train_sampling"),
    ("core.sampler.update_beta_theta.self_ms_per_iter", "ms", "lower", "iter_per_s @ train_sampling"),
    ("core.sampler.stage_share.draw", "ratio", "lower", "iter_per_s @ train_sampling"),
    ("core.sampler.stage_share.neighbors", "ratio", "lower", "iter_per_s @ train_sampling"),
    ("core.sampler.stage_share.phi", "ratio", "lower", "iter_per_s @ train_kernel"),
    ("core.sampler.stage_share.theta", "ratio", "lower", "iter_per_s @ train_sampling"),
    ("core.kernels.phi_gradient_sum.ms_per_iter", "ms", "lower", "iter_per_s @ train_kernel, train_mp"),
    ("core.kernels.update_phi.ms_per_iter", "ms", "lower", "iter_per_s @ train_kernel, train_mp"),
    ("core.kernels.theta_gradient_weighted.ms_per_iter", "ms", "lower", "iter_per_s @ train_kernel, train_mp"),
    ("core.kernels.update_theta.ms_per_iter", "ms", "lower", "iter_per_s @ train_kernel, train_mp"),
    ("core.kernels.phi_gradient_sum.elements_per_iter", "count", "lower", "iter_per_s @ train_kernel"),
    ("core.kernels.phi_gradient_sum.computed_bytes_per_iter", "bytes", "lower", "iter_per_s @ train_kernel (computed from tensor sizes)"),
    ("core.init.extend_state_informed.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_large_delta"),
    ("core.checkpoint.save_state.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("core.checkpoint.save_state.bytes_per_gen", "bytes", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("parallel.sampler.iter_per_s", "1/s", "higher", "none today; guards the threaded executor"),
    ("parallel.sampler.speedup_vs_sequential", "ratio", "higher", "none today; guards the threaded executor"),
    ("dist.mp.startup_s", "s", "lower", "setup_s @ train_mp"),
    ("dist.mp.close_s", "s", "lower", "setup_s @ train_mp"),
    ("dist.mp.step.ms_per_iter", "ms", "lower", "iter_per_s @ train_mp"),
    ("dist.master.next_draw.ms_per_iter", "ms", "lower", "iter_per_s @ train_mp (serial fraction)"),
    ("dist.mp.parallel_efficiency", "ratio", "higher", "iter_per_s @ train_mp"),
    ("dist.mp.recoveries", "count", "lower", "iter_per_s @ train_mp (must be 0)"),
    ("dist.mp.worker_peak_rss_mb", "MiB", "lower", "peak_rss_mb @ train_mp"),
    ("stream.trainer.ingest.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_large_delta"),
    ("stream.journal.append_edges.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_large_delta"),
    ("stream.journal.append_edges.bytes_per_gen", "bytes", "lower", "arrival_to_servable_s @ stream_large_delta"),
    ("stream.delta.ingest_pairs.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_large_delta"),
    ("stream.delta.accepted_per_gen", "count", "higher", "arrival_to_servable_s @ stream_*"),
    ("stream.delta.rejected_per_gen", "count", "lower", "arrival_to_servable_s @ stream_*"),
    ("stream.delta.compact.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("stream.delta.compact.self_ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("stream.journal.compact.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_*"),
    ("stream.trainer.train.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_large_delta"),
    ("stream.trainer.train_share", "ratio", "lower", "arrival_to_servable_s @ stream_*"),
    ("stream.trainer.run_generation.self_ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_*"),
    ("serve.artifact.export.ms_per_gen", "ms", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("serve.artifact.export.bytes_per_gen", "bytes", "lower", "arrival_to_servable_s @ stream_small_delta"),
    ("serve.server.publish_path.ms", "ms", "lower", "arrival_to_servable_s @ stream_small_delta; link_p99_ms @ serve_mixed"),
    ("serve.engine.link_probability.ms_per_batch", "ms", "lower", "requests_per_s, link_p99_ms @ serve_mixed"),
    ("serve.engine.recommend_edges_batch.ms_per_batch", "ms", "lower", "recommend_p50_ms, link_p99_ms @ serve_mixed"),
    ("serve.engine.recommend.candidate_pairs_per_s", "1/s", "higher", "recommend_p50_ms @ serve_mixed"),
    ("serve.server.mean_batch_size", "count", "higher", "requests_per_s @ serve_mixed"),
    ("serve.server.cache_hit_ratio", "ratio", "higher", "requests_per_s @ serve_mixed"),
    ("serve.server.engine_busy_share", "ratio", "lower", "requests_per_s, link_p99_ms @ serve_mixed"),
    ("trace.overhead_ratio", "ratio", "higher", "every headline: traced / untraced rate in one process"),
)
