"""Calibrated per-stage cost model of the distributed algorithm.

This is the timing engine behind every scaling figure. Each BSP stage of
the algorithm's iteration (Section III-C of the paper) gets a closed-form
time from the workload shape (N, |E|, K, M, n, C, |E_h|) and a small set of
constants calibrated against the paper's own measurements (Table III:
com-Friendster, 64 workers, K = 12288, times in ms/iteration):

====================  ==========  =================================
stage                 paper (ms)  model
====================  ==========  =================================
draw/deploy           45.6        M * c_draw + scatter bytes / bw
load pi               205         reqs * c_req + bytes / bw_loaded
update phi (compute)  74          (M/C) * n * K / node kernel rate
update pi             3.8         (M/C) * K / rate + posted writes
update beta/theta     25.9        (E_n/C) * K * c_beta + reduce/bcast
total (+ perplexity   450         sum + barriers + amortized
amortized)                        perplexity pass
====================  ==========  =================================

Calibration notes (full derivation in ``repro.bench.calibrate``):

- ``bw_loaded`` (2.2 GB/s) is the effective DKV *read* bandwidth when all
  64 clients hammer all 64 servers concurrently while compute threads
  share the memory bus — far below the single-stream 6.8 GB/s roofline of
  Figure 5, which the discrete-event DKV benchmark reproduces separately.
- Writes are posted (completion off the critical path), so they are
  charged at the full NIC bandwidth, matching update_pi's small 3.8 ms.
- ``c_beta`` is ~11x the phi kernel per-element cost: the theta gradient
  does scattered accumulation (np.add.at-style) against streaming reads.
- The gap between Table III's stage sum (360 ms) and its reported total
  (450 ms) is the periodic held-out perplexity pass amortized over
  iterations plus two MPI barriers; the model charges both explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.spec import ClusterSpec, MachineSpec
from repro.sim.network import NetworkParams


@dataclass(frozen=True)
class WorkloadShape:
    """Everything the cost model needs to know about one experiment.

    Attributes:
        n_vertices / n_edges: full graph shape (Table II numbers are used
            directly — the analytic mode never materializes the graph).
        n_communities: K.
        mini_batch_vertices: M (paper Figure 1 uses 16384).
        neighbor_sample_size: n (paper Figure 1 uses 32).
        heldout_pairs: |E_h| (links + non-links).
        perplexity_interval: iterations between held-out evaluations.
    """

    n_vertices: int
    n_edges: int
    n_communities: int
    mini_batch_vertices: int = 16384
    neighbor_sample_size: int = 32
    heldout_pairs: int = 0
    perplexity_interval: int = 64

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_vertices

    @property
    def minibatch_edges(self) -> float:
        """|E_n| estimate under stratified random-node sampling.

        Each draw contributes ~(avg_degree + s_nonlink)/2 pairs and one
        extra vertex (the stratum center), so |E_n| ~= M * (1 - 1/draw).
        For the graphs in Table II this is within a few percent of M.
        """
        s_nl = max(64.0, self.avg_degree)
        per_draw = 0.5 * (self.avg_degree + s_nl) + 1.0
        return self.mini_batch_vertices * (1.0 - 1.0 / per_draw)

    def value_bytes(self) -> int:
        """One DKV value: pi row + phi_sum = (K+1) floats."""
        return 4 * (self.n_communities + 1)


@dataclass
class StageTimes:
    """Per-iteration stage timings (seconds) plus derived aggregates."""

    draw_deploy: float = 0.0
    sample_neighbors: float = 0.0
    load_pi: float = 0.0
    update_phi_compute: float = 0.0
    update_phi: float = 0.0  # load + compute (+ overlap when pipelined)
    update_pi: float = 0.0
    update_beta_theta: float = 0.0
    barriers: float = 0.0
    perplexity_amortized: float = 0.0
    total: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "draw_deploy": self.draw_deploy,
            "sample_neighbors": self.sample_neighbors,
            "load_pi": self.load_pi,
            "update_phi_compute": self.update_phi_compute,
            "update_phi": self.update_phi,
            "update_pi": self.update_pi,
            "update_beta_theta": self.update_beta_theta,
            "barriers": self.barriers,
            "perplexity_amortized": self.perplexity_amortized,
            "total": self.total,
        }


@dataclass(frozen=True)
class CostModel:
    """Stage-time calculator for one cluster spec.

    All constants are per-node unless stated; calibrated values are the
    module-docstring defaults. The model is deterministic and cheap, so
    benchmarks can sweep hundreds of configurations.
    """

    cluster: ClusterSpec
    #: master-side cost per mini-batch vertex draw (rejection sampling,
    #: stratum bookkeeping) — calibrated from Table III draw/deploy.
    c_draw_per_vertex: float = 2.7e-6
    #: client-side fixed cost per DKV request (WQE + doorbell + poll).
    #: Kept small — requests are posted in deep batches, so per-request
    #: work amortizes; a larger value would make small clusters (fewer
    #: workers => more requests each) disproportionately slow and break
    #: the paper's flat weak-scaling curve (Figure 2).
    c_dkv_request: float = 0.5e-6
    #: effective DKV read bandwidth under full-cluster load (bytes/s).
    dkv_read_bw_loaded: float = 2.08e9
    #: per-element cost of the theta-gradient kernel (s per edge*K element).
    c_beta_element: float = 1.56e-9
    #: straggler/imbalance cost absorbed by each step of the update_beta
    #: reduce — the collective waits for the slowest rank, so it inherits
    #: the jitter of the preceding compute phases. This is what makes
    #: update_beta_theta 'relatively constant across cluster sizes'
    #: (paper Section IV-A): the sync term dwarfs the per-worker compute.
    reduce_straggler_per_step: float = 3.0e-3
    #: per-draw cost of neighbor sampling (worker side).
    c_neighbor_draw: float = 0.1e-6
    #: pipelining chunk count for the double-buffered update_phi.
    pipeline_chunks: int = 9
    #: update_beta slowdown under pipelining: the next iteration's
    #: prefetched pi loads trail into the beta stage, so the penalty is
    #: proportional to load_pi (Table III: +7.7 ms on a 205 ms load).
    beta_load_interference: float = 0.0375

    # -- building blocks ---------------------------------------------------

    @property
    def _net(self) -> NetworkParams:
        return self.cluster.network

    @property
    def _machine(self) -> MachineSpec:
        return self.cluster.machine

    def node_kernel_rate(self, threads: int | None = None) -> float:
        """Kernel elements/second of one node."""
        return self._machine.kernel_ops_per_sec(threads)

    def tree_collective_time(self, nbytes: int) -> float:
        """Binomial-tree reduce or bcast across the cluster."""
        steps = max(1, math.ceil(math.log2(self.cluster.n_nodes)))
        per_step = self._net.per_message_overhead + self._net.latency + nbytes / self._net.bandwidth
        return steps * per_step

    def barrier_time(self) -> float:
        """One MPI barrier (dissemination algorithm, zero payload)."""
        steps = max(1, math.ceil(math.log2(self.cluster.n_nodes)))
        return steps * (self._net.per_message_overhead + self._net.latency)

    # -- stages (all return seconds per iteration) ---------------------------

    def t_draw_deploy(self, shape: WorkloadShape) -> float:
        """Master draws the mini-batch and scatters it with its E-slice."""
        draw = shape.mini_batch_vertices * self.c_draw_per_vertex
        # Scatter payload: vertex ids + the adjacency slice (edge endpoints).
        scatter_bytes = shape.mini_batch_vertices * 8 + shape.minibatch_edges * 8
        scatter = scatter_bytes / self._net.bandwidth + self._net.latency
        return draw + scatter

    def t_sample_neighbors(self, shape: WorkloadShape) -> float:
        m_per_worker = shape.mini_batch_vertices / self.cluster.n_workers
        return m_per_worker * shape.neighbor_sample_size * self.c_neighbor_draw

    def dkv_read_time(self, n_requests: float, nbytes: float) -> float:
        """Synchronous batched DKV reads on the critical path."""
        return n_requests * self.c_dkv_request + nbytes / self.dkv_read_bw_loaded

    def dkv_write_time(self, n_requests: float, nbytes: float) -> float:
        """Posted DKV writes (full NIC bandwidth, overlapped completions)."""
        return n_requests * self.c_dkv_request + nbytes / self._net.bandwidth

    def t_load_pi(self, shape: WorkloadShape) -> float:
        m_per_worker = shape.mini_batch_vertices / self.cluster.n_workers
        reqs = m_per_worker * (1 + shape.neighbor_sample_size)
        nbytes = reqs * shape.value_bytes()
        return self.dkv_read_time(reqs, nbytes)

    def t_update_phi_compute(self, shape: WorkloadShape) -> float:
        m_per_worker = shape.mini_batch_vertices / self.cluster.n_workers
        ops = m_per_worker * shape.neighbor_sample_size * shape.n_communities
        return ops / self.node_kernel_rate()

    def t_update_pi(self, shape: WorkloadShape) -> float:
        m_per_worker = shape.mini_batch_vertices / self.cluster.n_workers
        ops = m_per_worker * shape.n_communities
        write_bytes = m_per_worker * shape.value_bytes()
        return ops / self.node_kernel_rate() + self.dkv_write_time(m_per_worker, write_bytes)

    def t_update_beta_theta(self, shape: WorkloadShape) -> float:
        edges_per_worker = shape.minibatch_edges / self.cluster.n_workers
        compute = edges_per_worker * shape.n_communities * self.c_beta_element
        theta_bytes = shape.n_communities * 2 * 4
        steps = max(1, math.ceil(math.log2(self.cluster.n_nodes)))
        reduce_t = (
            self.tree_collective_time(theta_bytes)
            + steps * self.reduce_straggler_per_step
        )
        beta_master = shape.n_communities / self.node_kernel_rate(threads=1)
        bcast_t = self.tree_collective_time(shape.n_communities * 4)
        return compute + reduce_t + beta_master + bcast_t

    def t_perplexity(self, shape: WorkloadShape) -> float:
        """One full held-out evaluation (every perplexity_interval iters).

        Unlike the mini-batch load, this is a bulk sequential sweep over the
        statically partitioned E_h — large batched reads with no compute
        interleaving — so the loads run at the full NIC bandwidth rather
        than the loaded-DKV rate.
        """
        if shape.heldout_pairs <= 0:
            return 0.0
        pairs_per_node = shape.heldout_pairs / self.cluster.n_nodes
        # pi rows for both endpoints come from the DKV store.
        reqs = 2 * pairs_per_node
        load = reqs * self.c_dkv_request + reqs * shape.value_bytes() / self._net.bandwidth
        compute = pairs_per_node * shape.n_communities / self.node_kernel_rate()
        return load + compute + self.tree_collective_time(8)

    # -- full iteration -------------------------------------------------------

    def iteration(self, shape: WorkloadShape, pipelined: bool = False) -> StageTimes:
        """Assemble one iteration's stage breakdown.

        Non-pipelined: stages run back to back (with two MPI barriers, as
        in Section III-C). Pipelined (Section III-D): loading pi is
        double-buffered against both the update_phi computation and the
        master's next-mini-batch deployment, so the update_phi block costs
        ``max(parts) + (sum of overlapped parts) / chunks`` — the first
        chunk cannot be overlapped.
        """
        t = StageTimes()
        t.draw_deploy = self.t_draw_deploy(shape)
        t.sample_neighbors = self.t_sample_neighbors(shape)
        t.load_pi = self.t_load_pi(shape)
        t.update_phi_compute = self.t_update_phi_compute(shape)
        t.update_pi = self.t_update_pi(shape)
        t.update_beta_theta = self.t_update_beta_theta(shape)
        t.barriers = 2 * self.barrier_time()
        if shape.perplexity_interval > 0:
            t.perplexity_amortized = self.t_perplexity(shape) / shape.perplexity_interval

        if pipelined:
            parts = (t.load_pi, t.update_phi_compute, t.draw_deploy)
            residual = (t.load_pi + t.update_phi_compute) / self.pipeline_chunks
            t.update_phi = max(parts) + residual
            beta = t.update_beta_theta + self.beta_load_interference * t.load_pi
            t.update_beta_theta = beta
            t.total = (
                t.sample_neighbors
                + t.update_phi
                + t.update_pi
                + beta
                + t.barriers
                + t.perplexity_amortized
            )
        else:
            t.update_phi = t.load_pi + t.update_phi_compute
            t.total = (
                t.draw_deploy
                + t.sample_neighbors
                + t.update_phi
                + t.update_pi
                + t.update_beta_theta
                + t.barriers
                + t.perplexity_amortized
            )
        return t


@dataclass(frozen=True)
class SingleNodeModel:
    """Vertical-scaling comparator (paper Section IV-D, Figure 4).

    A single shared-memory machine runs the same kernels with all state in
    local RAM: no DKV, no collectives; "loading pi" becomes DRAM reads at
    memory bandwidth, shared with the compute threads.
    """

    machine: MachineSpec
    threads: int

    def iteration(self, shape: WorkloadShape) -> StageTimes:
        t = StageTimes()
        rate = self.machine.kernel_ops_per_sec(self.threads)
        m = shape.mini_batch_vertices
        t.draw_deploy = m * 2.7e-6 / max(1, self.threads // 4)  # threaded draw
        t.sample_neighbors = m * shape.neighbor_sample_size * 0.1e-6 / self.threads
        # pi accesses hit DRAM; charge bytes at the residual bandwidth not
        # consumed by the compute threads (the kernels are memory bound, so
        # this is the dominant coupling).
        nbytes = m * (1 + shape.neighbor_sample_size) * shape.value_bytes()
        t.load_pi = nbytes / (self.machine.memory_bandwidth * 0.5)
        t.update_phi_compute = m * shape.neighbor_sample_size * shape.n_communities / rate
        t.update_phi = max(t.load_pi, t.update_phi_compute) + min(
            t.load_pi, t.update_phi_compute
        ) * 0.1
        t.update_pi = m * shape.n_communities / rate
        t.update_beta_theta = shape.minibatch_edges * shape.n_communities * 1.56e-9 * (
            16.0 / self.threads
        )
        if shape.perplexity_interval > 0 and shape.heldout_pairs:
            perp = shape.heldout_pairs * shape.n_communities / rate
            t.perplexity_amortized = perp / shape.perplexity_interval
        t.total = (
            t.draw_deploy
            + t.sample_neighbors
            + t.update_phi
            + t.update_pi
            + t.update_beta_theta
            + t.perplexity_amortized
        )
        return t
