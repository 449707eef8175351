"""The distributed engine in one process, under a simulated clock.

:class:`DistributedAMMSBSampler` runs :mod:`repro.dist.protocol`'s
iteration over :class:`InProcessTransport`: the ranks are
:class:`~repro.dist.worker.WorkerContext` objects over the DKV store,
called in turn. Every stage really executes — the result is the
sequential engine's run, bit for bit, for any worker count — while
:class:`SimulatedClock` observes each call and charges it from the
calibrated :class:`~repro.cluster.costmodel.CostModel`, using the call's
own records: the shards' and slices' bytes in draw/deploy,
``PhiStageResult``'s op counts, the ``DKVTraffic`` of every batch, the
theta partials' op counts, and the DKV fault ladder's simulated delay. A
stage's time is the max over workers (BSP barrier semantics); pipelining
(Section III-D) changes only how the clock composes the stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.cluster.costmodel import CostModel, StageTimes
from repro.cluster.dkv import DKVFaultStats, DKVStore, DKVTraffic
from repro.cluster.spec import ClusterSpec, das5
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import ModelState
from repro.dist.master import MasterDraw
from repro.dist.protocol import MasterLoop
from repro.dist.worker import DKVRows, PhiStageResult, WorkerContext
from repro.faults import CommTimeout, FaultPlan, armed
from repro.graph.graph import Graph
from repro.graph.split import HeldoutSplit

#: DKV client id used by the master (it is not a DKV server, so every
#: master read is remote — matching the paper's master/worker split).
MASTER_CLIENT = -1

#: Collective deadline in simulated seconds, armed by a fault plan: a
#: worker lagging longer (a crashed one lags forever) raises
#: :class:`~repro.faults.CommTimeout` at the update_phi barrier.
COMM_TIMEOUT = 60.0


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


def _slowest(seconds) -> float:
    """A stage's time under BSP: its slowest party's."""
    return max(seconds, default=0.0)


class SimulatedClock:
    """Charges the in-process transport's calls to :attr:`timing`.

    One method per transport call, each fed that call's records. The
    iteration's :class:`StageTimes` is composed and recorded when its
    last stage (theta partials) is charged. Worker stalls in ``faults``
    are straggler time at the barriers; a lag past :data:`COMM_TIMEOUT`
    raises :class:`~repro.faults.CommTimeout` after update_phi, before
    any ``pi`` row is written.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        config: AMMSBConfig,
        degrees: np.ndarray,
        fault_stats: DKVFaultStats,
        faults: Optional[FaultPlan],
        pipelined: bool,
    ) -> None:
        self.cluster = cluster
        self.cost = CostModel(cluster)
        self.config = config
        self.degrees = degrees
        self.fault_stats = fault_stats
        self.faults = faults
        self.pipelined = pipelined
        self.timing = DistributedTiming()
        self._t = StageTimes()
        self._lag = 0.0

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

    def _straggler_lag(self, iteration: int) -> float:
        if self.faults is None:
            return 0.0
        worker, lag = self.faults.max_worker_lag(iteration)
        if lag > COMM_TIMEOUT:
            raise CommTimeout("barrier", worker, lag, COMM_TIMEOUT)
        return lag

    def phi_compute(
        self, draw: MasterDraw, results: list[PhiStageResult], iteration: int
    ) -> None:
        """draw/deploy (the shards plus their adjacency slices, as the
        paper's master scatters them), neighbor sampling, load_pi and the
        phi kernel; then the barrier's deadline."""
        cost, cfg = self.cost, self.config
        t = self._t = StageTimes()
        t.draw_deploy = (
            draw.minibatch.n_vertices * cost.c_draw_per_vertex
            + draw.scatter_payload_bytes(self.degrees) / self.cluster.network.bandwidth
            + self.cluster.network.latency
        )
        t.sample_neighbors = _slowest(
            s.vertices.size * cfg.neighbor_sample_size * cost.c_neighbor_draw
            for s in draw.shards
        )
        load = _slowest(self._read_time(r.read_traffic) for r in results)
        t.load_pi = load + self.fault_stats.drain_delay()
        t.update_phi_compute = _slowest(r.ops_phi / cost.node_kernel_rate() for r in results)
        self._lag = self._straggler_lag(iteration)

    def pi_write(self, results: list[PhiStageResult], traffic: list[DKVTraffic]) -> None:
        rate = self.cost.node_kernel_rate()
        t_pi = _slowest(r.ops_pi / rate + self._write_time(w) for r, w in zip(results, traffic))
        self._t.update_pi = t_pi + self.fault_stats.drain_delay()

    def theta_partial(self, theta: np.ndarray, work: list[tuple[int, DKVTraffic]]) -> None:
        """The workers' partials (``(ops, traffic)`` each), the reduce,
        the master's update and the beta broadcast; then the iteration's
        composition (Section III-D) is recorded."""
        cost, k, t = self.cost, self.config.n_communities, self._t
        t_work = _slowest(ops * cost.c_beta_element + self._read_time(tr) for ops, tr in work)
        t_work += self.fault_stats.drain_delay()
        steps = max(1, math.ceil(math.log2(self.cluster.n_nodes)))
        t.update_beta_theta = (
            t_work
            + cost.tree_collective_time(theta.nbytes)
            + steps * cost.reduce_straggler_per_step
            + k / cost.node_kernel_rate(threads=1)
            + cost.tree_collective_time(k * 8)
        )
        # BSP semantics: an injected straggler delays every barrier party.
        t.barriers = 2 * cost.barrier_time() + self._lag
        if self.pipelined:
            # The master drew this iteration while the workers ran the
            # previous update_phi; pi loads are chunked against compute.
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
        self.timing.per_iteration.append(t)

    def perplexity(self, parts: list[PerplexityEstimator], traffic: list[DKVTraffic]) -> None:
        """Each rank's slice (compute + its reads), then the reduce of the
        log-sums to the master."""
        cost, bandwidth = self.cost, self.cluster.network.bandwidth
        rate = cost.node_kernel_rate()
        t_pass = _slowest(
            len(p.pairs) * self.config.n_communities / rate
            + (tr.n_requests * cost.c_dkv_request + tr.bytes_remote / bandwidth)
            for p, tr in zip(parts, traffic)
        )
        t_pass += cost.tree_collective_time(16)
        t_pass += self.fault_stats.drain_delay()
        self.timing.perplexity_passes.append(t_pass)


class InProcessTransport:
    """The ranks as objects in this process, called in turn; the clock
    observes every call. Never raises ``WorkerCrashed``: an injected crash
    or stall past the deadline is the clock's ``CommTimeout``.

    ``ranks``: the master's DKV client, then the workers.
    """

    def __init__(self, dkv: DKVStore, ranks: list[WorkerContext], clock: SimulatedClock) -> None:
        self.dkv = dkv
        self.ranks = ranks
        self.workers = ranks[1:]
        self.clock = clock
        self._shards = []
        self._results: list[PhiStageResult] = []

    def phi_compute(
        self, draw: MasterDraw, beta: np.ndarray, iteration: int, overlap: Callable[[], None]
    ) -> None:
        self.dkv.set_iteration(iteration)  # fault windows are indexed by iteration
        self._shards = draw.shards
        self._results = [
            worker.update_phi_pi(shard, worker.sample_neighbors(shard), beta, iteration)
            for worker, shard in zip(self.workers, draw.shards)
        ]
        self.clock.phi_compute(draw, self._results, iteration)
        overlap()

    def pi_write(self) -> None:
        traffic = [w.write_pi(res) for w, res in zip(self.workers, self._results)]
        self.clock.pi_write(self._results, traffic)

    def theta_partial(self, theta: np.ndarray) -> dict[int, np.ndarray]:
        blocks: dict[int, np.ndarray] = {}
        work = []
        for worker, shard in zip(self.workers, self._shards):
            partials, traffic, ops = worker.theta_partial(shard, theta)
            blocks.update(partials)
            work.append((ops, traffic))
        self.clock.theta_partial(theta, work)
        return blocks

    def perplexity(
        self, parts: list[PerplexityEstimator], beta: np.ndarray
    ) -> list[np.ndarray]:
        out = [
            self.ranks[j % len(self.ranks)].perplexity_partial(part.pairs, part.labels, beta)
            for j, part in enumerate(parts)
        ]
        self.clock.perplexity(parts, [traffic for _, traffic in out])
        return [probs for probs, _ in out]

    def close(self) -> None:
        """Nothing to release: the ranks are this process's objects."""


class DistributedAMMSBSampler(MasterLoop):
    """Master-worker distributed SG-MCMC for a-MMSB on a simulated cluster.

    Args:
        graph: training graph (the master's; its in-process workers
            answer ``y_ab`` from it, the clock charges their slices).
        config: shared configuration.
        cluster: cluster spec (worker count, machine, network). Defaults
            to 4 DAS5 workers.
        heldout: optional held-out split, statically partitioned across
            all ranks (the master too) for distributed perplexity.
        pipelined: compose the clock as the double-buffering/prefetch
            pipeline of Section III-D; the master draws ahead either way.
        state: optional initial state (random otherwise).
        faults: optional :class:`~repro.faults.FaultPlan`. DKV server
            stalls degrade into retries / circuit-broken stale pi reads
            (real staleness in the numerics, extra simulated seconds in
            the clock); worker stalls are charged as straggler time at
            barriers; a stall past :data:`COMM_TIMEOUT` raises
            :class:`~repro.faults.CommTimeout` instead of hanging. An
            empty plan is bit-identical to ``faults=None``.
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
    ) -> None:
        self.cluster = cluster or das5(4)
        self.pipelined = pipelined
        self.faults = armed(faults)
        super().__init__(graph, config, self.cluster.n_workers, heldout, state)

    def _connect(self, init: ModelState, heldout_keys: Optional[np.ndarray]) -> InProcessTransport:
        n_workers = self.cluster.n_workers
        self.dkv = DKVStore(
            self.graph.n_vertices,
            self.config.n_communities + 1,
            n_workers,
            dtype=np.dtype(self.config.dtype),
            faults=self.faults,
        )
        self.dkv.populate(np.concatenate([init.pi, init.phi_sum[:, None]], axis=1))
        clock = SimulatedClock(
            self.cluster, self.config, self.graph.degrees, self.dkv.fault_stats,
            self.faults, self.pipelined,
        )
        self.cost, self.timing = clock.cost, clock.timing
        # The master's DKV client (MASTER_CLIENT = -1) first, then the workers.
        ranks = [
            WorkerContext(self.config, self.graph, DKVRows(self.dkv, client), heldout_keys)
            for client in range(MASTER_CLIENT, n_workers)
        ]
        return InProcessTransport(self.dkv, ranks, clock)

    def state_snapshot(self) -> ModelState:
        """Gather the distributed state into a local ModelState (for
        metrics/tests; the paper would checkpoint the same way)."""
        values = self.dkv.snapshot()
        return ModelState(
            pi=values[:, :-1].copy(), phi_sum=values[:, -1].copy(), theta=self.theta.copy()
        )
