"""Distributed BSP orchestration of SG-MCMC with simulated timing.

One :class:`DistributedAMMSBSampler` iteration executes the paper's stage
sequence (Section III-C):

1. **draw/deploy** — the master draws the mini-batch and scatters, per
   worker, its vertices + strata, charged with the adjacency slice the
   paper ships beside them (in the pipelined configuration this was
   prefetched during the previous update_phi);
2. **sample neighbors** — each worker draws V_n for its vertices;
3. **update_phi** — each worker batch-reads the pi rows it needs from the
   DKV store and runs the phi kernel; *barrier*;
4. **update_pi** — workers write the new ``[pi | phi_sum]`` rows; *barrier*;
5. **update_beta/theta** — workers compute h-scaled theta-gradient
   partials from DKV-fresh pi; MPI reduce; master updates theta and
   broadcasts beta;
6. periodically, **perplexity** over the statically partitioned E_h.

Every stage really executes (the result is the sequential reference's
run, bit for bit, for any worker count), while a simulated clock charges each
stage from the calibrated :class:`~repro.cluster.costmodel.CostModel`
using the *actual* traffic and op counts of the run; stage time is the
max over workers (BSP barrier semantics). Pipelining changes only the
clock composition, exactly as in Section III-D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.cluster.comm import Communicator
from repro.cluster.costmodel import CostModel, StageTimes
from repro.cluster.dkv import DKVStore, DKVTraffic
from repro.cluster.spec import ClusterSpec, das5
from repro.faults import FaultPlan, armed
from repro.core import stages
from repro.core.kernels import KernelWorkspace
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import ModelState, init_state
from repro.dist.master import MasterContext
from repro.dist.worker import DKVRows, WorkerContext
from repro.dist.partition import partition_heldout
from repro.graph.graph import Graph, edge_keys
from repro.graph.split import HeldoutSplit

#: DKV client id used by the master (it is not a DKV server, so every
#: master read is remote — matching the paper's master/worker split).
MASTER_CLIENT = -1


@dataclass
class DistributedTiming:
    """Simulated-clock record of a run."""

    per_iteration: list[StageTimes] = field(default_factory=list)
    perplexity_passes: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(t.total for t in self.per_iteration) + sum(self.perplexity_passes)

    def mean_stage_times(self) -> dict[str, float]:
        """Average per-iteration breakdown (seconds)."""
        if not self.per_iteration:
            return {}
        keys = self.per_iteration[0].as_dict().keys()
        n = len(self.per_iteration)
        return {
            k: sum(t.as_dict()[k] for t in self.per_iteration) / n for k in keys
        }


class DistributedAMMSBSampler:
    """Master-worker distributed SG-MCMC for a-MMSB.

    Args:
        graph: training graph (the master's; its in-process workers
            answer ``y_ab`` from it, the scatter charges their slices).
        config: shared configuration.
        cluster: cluster spec (worker count, machine, network). Defaults
            to 4 DAS5 workers.
        heldout: optional held-out split, statically partitioned across
            all ranks for distributed perplexity.
        pipelined: enable the double-buffering/prefetch pipeline of
            Section III-D (changes the simulated clock, and the master
            genuinely prefetches the next mini-batch).
        state: optional initial state (random otherwise).
        faults: optional :class:`~repro.faults.FaultPlan`. DKV server
            stalls degrade into retries / circuit-broken stale pi reads
            (real staleness in the numerics, extra simulated seconds in
            the clock); worker stalls are charged as straggler time at
            barriers; a stall past ``comm_timeout`` raises
            :class:`~repro.faults.CommTimeout` instead of hanging. An
            empty plan is bit-identical to ``faults=None``.
        comm_timeout: collective deadline in simulated seconds (armed
            only when a fault plan is present).
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        cluster: Optional[ClusterSpec] = None,
        heldout: Optional[HeldoutSplit] = None,
        pipelined: bool = True,
        state: Optional[ModelState] = None,
        faults: Optional[FaultPlan] = None,
        comm_timeout: Optional[float] = 60.0,
    ) -> None:
        self.graph = graph
        self.kernels, self.config = stages.pinned_backend(config)
        self.workspace = KernelWorkspace()
        self.cluster = cluster or das5(4)
        self.pipelined = pipelined
        self.cost = CostModel(self.cluster)
        self.faults = armed(faults)
        n_workers = self.cluster.n_workers
        self.comm = Communicator(
            n_workers + 1,
            faults=self.faults,
            timeout=comm_timeout if self.faults is not None else None,
        )

        heldout_keys = None
        if heldout is not None:
            heldout_keys = np.sort(edge_keys(heldout.heldout_pairs, graph.n_vertices))
        self.master = MasterContext(graph, config, n_workers, heldout_keys)

        k = config.n_communities
        self.dkv = DKVStore(
            graph.n_vertices,
            k + 1,
            n_workers,
            dtype=np.dtype(config.dtype),
            faults=self.faults,
        )
        init = state if state is not None else init_state(graph.n_vertices, config)
        self.dkv.populate(np.concatenate([init.pi, init.phi_sum[:, None]], axis=1))
        self.theta = init.theta.copy()

        self.workers = [
            WorkerContext(config, graph, DKVRows(self.dkv, w), heldout_keys)
            for w in range(n_workers)
        ]
        self._degrees = graph.degrees
        self._master_rows = DKVRows(self.dkv, MASTER_CLIENT)

        # Static E_h partition over all ranks (master participates too),
        # each part with its own running average.
        self._heldout_parts: list[PerplexityEstimator] = []
        if heldout is not None:
            parts = partition_heldout(
                heldout.heldout_pairs, heldout.heldout_labels, n_workers + 1
            )
            self._heldout_parts = [PerplexityEstimator(*p, config.delta) for p in parts]

        self.iteration = 0
        self.timing = DistributedTiming()

    # -- derived views ----------------------------------------------------------

    @property
    def beta(self) -> np.ndarray:
        return self.theta[:, 1] / self.theta.sum(axis=1)

    def state_snapshot(self) -> ModelState:
        """Gather the distributed state into a local ModelState (for
        metrics/tests; the paper would checkpoint the same way)."""
        values = self.dkv.snapshot()
        return ModelState(
            pi=values[:, :-1].copy(), phi_sum=values[:, -1].copy(), theta=self.theta.copy()
        )

    # -- timing helpers -----------------------------------------------------------

    def _read_time(self, traffic: DKVTraffic) -> float:
        """Simulated time of one worker's synchronous batched DKV reads."""
        c = self.cost
        local_bytes = traffic.bytes_total - traffic.bytes_remote
        t = traffic.n_requests * c.c_dkv_request
        t += traffic.bytes_remote / c.dkv_read_bw_loaded
        t += local_bytes / (self.cluster.machine.memory_bandwidth * 0.5)
        return t

    def _write_time(self, traffic: DKVTraffic) -> float:
        c = self.cost
        local_bytes = traffic.bytes_total - traffic.bytes_remote
        t = traffic.n_requests * c.c_dkv_request
        t += traffic.bytes_remote / self.cluster.network.bandwidth
        t += local_bytes / (self.cluster.machine.memory_bandwidth * 0.5)
        return t

    # -- one iteration --------------------------------------------------------------

    def step(self) -> StageTimes:
        """Run one distributed iteration."""
        cfg = self.config
        cost = self.cost
        t = StageTimes()
        # Fault windows are indexed by iteration; advance the DKV clock.
        if self.faults is not None:
            self.dkv.set_iteration(self.iteration)

        # -- stage 1: draw + deploy (master) --------------------------------
        draw = self.master.next_draw(self.iteration)
        shards = self.comm.scatter([None] + list(draw.shards))[1:]
        payload = draw.scatter_payload_bytes(self._degrees)
        t.draw_deploy = (
            draw.minibatch.n_vertices * cost.c_draw_per_vertex
            + payload / self.cluster.network.bandwidth
            + self.cluster.network.latency
        )

        # -- stage 2+3: neighbor sampling + update_phi (workers) ------------
        beta = self.beta
        results = []
        t_sample = t_load = t_comp = 0.0
        for worker, shard in zip(self.workers, shards):
            ns = worker.sample_neighbors(shard)
            res = worker.update_phi_pi(shard, ns, beta, self.iteration)
            results.append(res)
            t_sample = max(t_sample, shard.vertices.size * cfg.neighbor_sample_size * cost.c_neighbor_draw)
            t_load = max(t_load, self._read_time(res.read_traffic))
            t_comp = max(t_comp, res.ops_phi / cost.node_kernel_rate())
        t.sample_neighbors = t_sample
        t.load_pi = t_load + self.dkv.fault_stats.drain_delay()
        t.update_phi_compute = t_comp
        straggler_lag = self.comm.barrier(iteration=self.iteration)

        # Pipelined: the master prepares the *next* mini-batch while the
        # workers are inside update_phi (this really happens — the next
        # step() consumes the prefetched draw).
        if self.pipelined:
            self.master.prefetch(self.iteration + 1)

        # -- stage 4: update_pi (write-back) ---------------------------------
        t_pi = 0.0
        for worker, res in zip(self.workers, results):
            traffic = worker.write_pi(res)
            t_pi = max(
                t_pi,
                res.ops_pi / cost.node_kernel_rate() + self._write_time(traffic),
            )
        t.update_pi = t_pi + self.dkv.fault_stats.drain_delay()
        self.comm.barrier(iteration=self.iteration)

        # -- stage 5: update_beta/theta ---------------------------------------
        partials = []
        t_beta_work = 0.0
        for worker, shard in zip(self.workers, shards):
            part, traffic, ops = worker.theta_partial(shard, self.theta)
            partials.append(part)
            t_beta_work = max(
                t_beta_work,
                ops * cost.c_beta_element + self._read_time(traffic),
            )
        t_beta_work += self.dkv.fault_stats.drain_delay()
        # The reduce gathers the pair-block partials; the master adds
        # them in block order, as every engine does.
        blocks = self.comm.reduce(
            [{}] + partials, op=lambda a, b: {**a, **b}, iteration=self.iteration
        )
        self.theta = stages.apply_theta(
            self.kernels, self.workspace, cfg, self.theta, blocks, self.iteration
        )
        self.comm.bcast(self.beta)
        theta_bytes = self.theta.nbytes
        steps = max(1, math.ceil(math.log2(self.cluster.n_nodes)))
        t.update_beta_theta = (
            t_beta_work
            + cost.tree_collective_time(theta_bytes)
            + steps * cost.reduce_straggler_per_step
            + cfg.n_communities / cost.node_kernel_rate(threads=1)
            + cost.tree_collective_time(cfg.n_communities * 8)
        )
        # BSP semantics: an injected straggler delays every barrier party.
        t.barriers = 2 * cost.barrier_time() + straggler_lag

        # -- clock composition (Section III-D) ---------------------------------
        if self.pipelined:
            parts = (t.load_pi, t.update_phi_compute, t.draw_deploy)
            residual = (t.load_pi + t.update_phi_compute) / cost.pipeline_chunks
            t.update_phi = max(parts) + residual
            t.update_beta_theta += cost.beta_load_interference * t.load_pi
            t.total = (
                t.sample_neighbors
                + t.update_phi
                + t.update_pi
                + t.update_beta_theta
                + t.barriers
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
            )

        self.iteration += 1
        self.timing.per_iteration.append(t)
        return t

    # -- perplexity --------------------------------------------------------------

    def evaluate_perplexity(self) -> float:
        """One distributed perplexity pass (Eqn 7, sample-averaged).

        Each rank evaluates its static E_h slice against DKV-fresh pi,
        accumulates into its local running probability sums, and the
        log-average is reduced to the master.
        """
        if not self._heldout_parts:
            raise RuntimeError("no held-out split was provided")
        beta = self.beta
        t_pass = 0.0
        for rank, part in enumerate(self._heldout_parts):
            if rank == 0:
                # Master's slice: read through the DKV as a pure client.
                probs = stages.heldout_probabilities(
                    self._master_rows, self.config, part.pairs, part.labels, beta
                )
                traffic = self._master_rows.traffic
            else:
                probs, traffic = self.workers[rank - 1].perplexity_partial(
                    part.pairs, part.labels, beta
                )
            part.add(probs)
            compute = len(part.pairs) * self.config.n_communities / self.cost.node_kernel_rate()
            load = (
                traffic.n_requests * self.cost.c_dkv_request
                + traffic.bytes_remote / self.cluster.network.bandwidth
            )
            t_pass = max(t_pass, compute + load)
        reduced = self.comm.reduce(
            [np.array(stages.heldout_log_sum(self._heldout_parts))]
            + [np.zeros(2)] * self.cluster.n_workers
        )
        t_pass += self.cost.tree_collective_time(16)
        t_pass += self.dkv.fault_stats.drain_delay()
        self.timing.perplexity_passes.append(t_pass)
        return float(np.exp(-reduced[0] / max(reduced[1], 1)))

    # -- driver -------------------------------------------------------------------

    def run(self, n_iterations: int, perplexity_every: int = 0) -> list[StageTimes]:
        """Run iterations; optionally evaluate perplexity periodically.

        Returns the per-iteration simulated stage times.
        """
        out = []
        for _ in range(n_iterations):
            out.append(self.step())
            if (
                perplexity_every
                and self._heldout_parts
                and self.iteration % perplexity_every == 0
            ):
                self.evaluate_perplexity()
        return out

    def last_perplexity(self) -> float:
        """Recompute the current averaged perplexity without a new sample."""
        return stages.pooled_perplexity(self._heldout_parts)
