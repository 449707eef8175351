"""Worker rank: neighbor sampling and the update kernels against the DKV.

A worker never touches the global graph or the full pi matrix. Its inputs
per iteration are exactly what the master scattered (its
:class:`~repro.dist.partition.WorkerShard`) plus values it reads from the
DKV store; its outputs are DKV writes (new pi rows) and a theta-gradient
partial sum handed to the MPI reduce.

The numerical kernels are the shared ones from :mod:`repro.core.gradients`
— a worker computes exactly what the sequential sampler would compute for
its slice of the mini-batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core import kernels
from repro.core.minibatch import NeighborSample, concat_strata, heldout_rows, sample_neighbor_sets
from repro.cluster.dkv import DKVStore, DKVTraffic
from repro.dist.partition import WorkerShard


@dataclass
class PhiStageResult:
    """What update_phi/update_pi produced at one worker."""

    vertices: np.ndarray
    new_values: np.ndarray  # (m, K+1): new pi rows + phi_sum
    read_traffic: DKVTraffic
    write_traffic: Optional[DKVTraffic] = None
    ops_phi: int = 0
    ops_pi: int = 0


class WorkerContext:
    """State and behaviour of one worker rank.

    Args:
        worker: 0-based worker index (DKV server id; MPI rank worker+1).
        config: shared configuration.
        n_vertices: N (needed for neighbor sampling and update scales).
        dkv: the distributed KV store holding ``[pi | phi_sum]`` rows.
        heldout_keys: canonical held-out keys (broadcast at init), masked
            out of neighbor sets.
    """

    def __init__(
        self,
        worker: int,
        config: AMMSBConfig,
        n_vertices: int,
        dkv: DKVStore,
        heldout_keys: Optional[np.ndarray] = None,
    ) -> None:
        self.worker = worker
        self.config = config
        self.n_vertices = n_vertices
        self.dkv = dkv
        self.heldout = heldout_rows(heldout_keys, n_vertices)
        # Independent per-worker streams; offsets keep them disjoint from
        # the master's streams for any worker count.
        self.rng = np.random.default_rng(config.seed + 1009 * (worker + 1))
        self.noise_rng = np.random.default_rng(config.seed + 2003 * (worker + 1))
        self.kernels = kernels.resolve_backend(config.kernel_backend)
        if self.kernels.name != config.kernel_backend:
            self.config = config = config.with_updates(kernel_backend=self.kernels.name)
        self.kernels.warmup()
        self.workspace = kernels.KernelWorkspace()

    # -- neighbor sampling ----------------------------------------------------

    def sample_neighbors(self, shard: WorkerShard) -> NeighborSample:
        """Draw V_n per shard vertex; labels come from the scattered
        adjacency slice — the worker has no other view of E."""
        return sample_neighbor_sets(
            shard.vertices,
            self.rng,
            self.n_vertices,
            self.config.neighbor_sample_size,
            shard.adjacency.links_against,
            self.heldout,
        )

    # -- update_phi / update_pi --------------------------------------------------

    def update_phi_pi(
        self,
        shard: WorkerShard,
        neighbor_sample: NeighborSample,
        beta: np.ndarray,
        eps_t: float,
        noise: Optional[np.ndarray] = None,
    ) -> PhiStageResult:
        """Load pi from the DKV, run Eqns 5-6 for the shard, produce new rows.

        The write-back is separate (:meth:`write_pi`) because the paper
        puts an MPI barrier between update_phi and update_pi for memory
        consistency.
        """
        cfg = self.config
        vs = shard.vertices
        m = vs.size
        if m == 0:
            return PhiStageResult(
                vertices=vs,
                new_values=np.zeros((0, self.dkv.value_dim)),
                read_traffic=DKVTraffic(),
            )
        # One batched DKV read covers the shard vertices and all neighbors.
        all_keys = np.concatenate([vs, neighbor_sample.neighbors.reshape(-1)])
        values, read_traffic = self.dkv.read_batch(self.worker, all_keys)
        pi_a = values[:m, :-1]
        phi_sum_a = values[:m, -1]
        pi_b = values[m:, :-1].reshape(m, -1, cfg.n_communities)

        grad = self.kernels.phi_gradient_sum(
            pi_a,
            phi_sum_a,
            pi_b,
            neighbor_sample.labels,
            beta,
            cfg.delta,
            mask=neighbor_sample.mask,
            workspace=self.workspace,
        )
        counts = np.maximum(neighbor_sample.counts, 1)
        scale = self.n_vertices / counts
        if noise is None:
            noise = self.noise_rng.standard_normal(pi_a.shape)
        phi_a = pi_a * phi_sum_a[:, None]
        new_phi = self.kernels.update_phi(
            phi_a,
            grad,
            eps_t=eps_t,
            alpha=cfg.effective_alpha,
            scale=scale,
            noise=noise,
            phi_floor=cfg.phi_floor,
            phi_clip=cfg.phi_clip,
            workspace=self.workspace,
        )
        sums = new_phi.sum(axis=1)
        new_values = np.concatenate([new_phi / sums[:, None], sums[:, None]], axis=1)
        return PhiStageResult(
            vertices=vs,
            new_values=new_values,
            read_traffic=read_traffic,
            ops_phi=int(m * neighbor_sample.neighbors.shape[1] * cfg.n_communities),
            ops_pi=int(m * cfg.n_communities),
        )

    def write_pi(self, result: PhiStageResult) -> DKVTraffic:
        """update_pi stage: write the new ``[pi | phi_sum]`` rows through
        the DKV store (unique vertices, so no write/write hazards)."""
        if result.vertices.size == 0:
            return DKVTraffic()
        traffic = self.dkv.write_batch(self.worker, result.vertices, result.new_values)
        result.write_traffic = traffic
        return traffic

    # -- update_beta partials -------------------------------------------------------

    def theta_partial(
        self, shard: WorkerShard, theta: np.ndarray
    ) -> tuple[np.ndarray, DKVTraffic, int]:
        """h-scaled theta-gradient partial sum over this worker's strata.

        All strata are concatenated into one batched DKV read (fresh
        values — the stage runs after the update_pi barrier) and one
        weighted kernel call, instead of a per-stratum Python loop.
        """
        cfg = self.config
        if not shard.strata:
            return np.zeros_like(theta), DKVTraffic(), 0
        pairs, labels, weights = concat_strata(shard.strata)
        values, traffic = self.dkv.read_batch(self.worker, pairs.reshape(-1))
        pi_pairs = values[:, :-1].reshape(len(pairs), 2, cfg.n_communities)
        grad = self.kernels.theta_gradient_weighted(
            pi_pairs[:, 0],
            pi_pairs[:, 1],
            labels,
            theta,
            cfg.delta,
            weights=weights,
            workspace=self.workspace,
        )
        ops = len(pairs) * cfg.n_communities
        return grad, traffic, ops

    # -- perplexity partials ------------------------------------------------------------

    def perplexity_partial(
        self, pairs: np.ndarray, labels: np.ndarray, beta: np.ndarray
    ) -> tuple[np.ndarray, DKVTraffic]:
        """Per-pair link probabilities for this rank's static E_h slice."""
        from repro.core.perplexity import link_probability

        if len(pairs) == 0:
            return np.zeros(0), DKVTraffic()
        values, traffic = self.dkv.read_batch(self.worker, pairs.reshape(-1))
        pi_pairs = values[:, :-1].reshape(len(pairs), 2, self.config.n_communities)
        p1 = link_probability(pi_pairs[:, 0], pi_pairs[:, 1], beta, self.config.delta)
        return np.where(labels, p1, 1.0 - p1), traffic
