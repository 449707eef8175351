"""Worker rank: neighbor sampling and the update kernels against the DKV.

A worker never touches the global graph or the full pi matrix. Its inputs
per iteration are exactly what the master scattered (its
:class:`~repro.dist.partition.WorkerShard`) plus values it reads from the
DKV store; its outputs are DKV writes (new pi rows) and a theta-gradient
partial sum handed to the MPI reduce.

The stage math is the shared one from :mod:`repro.core.stages` — a worker
computes exactly what the sequential sampler would compute for its slice
of the mini-batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core import stages
from repro.core.kernels import KernelWorkspace
from repro.core.minibatch import NeighborSample, concat_strata, heldout_rows, sample_neighbor_sets
from repro.cluster.dkv import DKVStore, DKVTraffic
from repro.dist.partition import WorkerShard


class DKVRows:
    """One client's view of the DKV store as a row store
    (:class:`repro.core.stages.RowStore`).

    Reads and writes go through the store's batched operations (with
    their dedupe, fault ladder and accounting), one batch per stage;
    ``traffic`` is the accounting of this client's last batch.
    """

    def __init__(self, dkv: DKVStore, client: int) -> None:
        self.dkv = dkv
        self.client = client
        self.traffic = DKVTraffic()

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.dkv.dtype)

    def read_rows(self, vertices, others):
        m = vertices.size
        keys = np.concatenate([vertices, others.reshape(-1)])
        values, self.traffic = self.dkv.read_batch(self.client, keys)
        pi = values[:, :-1]
        return pi[:m], values[:m, -1], pi[m:].reshape(others.shape + pi.shape[1:])

    def write_rows(self, vertices, pi_rows, phi_sum) -> None:
        values = np.concatenate([pi_rows, phi_sum[:, None]], axis=1)
        self.traffic = self.dkv.write_batch(self.client, vertices, values)


@dataclass
class PhiStageResult:
    """What update_phi/update_pi produced at one worker."""

    vertices: np.ndarray
    pi_rows: np.ndarray  # (m, K) new pi rows
    phi_sum: np.ndarray  # (m,) their phi row sums
    read_traffic: DKVTraffic
    ops_phi: int = 0
    ops_pi: int = 0


class WorkerContext:
    """State and behaviour of one worker rank.

    The same object runs in-process against the simulated DKV store
    (:class:`~repro.dist.sampler.DistributedAMMSBSampler`) and inside a
    forked worker process against the shared-memory table
    (:mod:`repro.dist.mp`); only ``rows`` differs.

    Args:
        worker: 0-based worker index (DKV server id; MPI rank worker+1).
        config: shared configuration.
        n_vertices: N (needed for neighbor sampling and update scales).
        rows: the store holding ``[pi | phi_sum]`` rows
            (:class:`DKVRows`, or :class:`~repro.core.stages.TableRows`
            over shared memory).
        heldout_keys: canonical held-out keys (broadcast at init), masked
            out of neighbor sets.
    """

    def __init__(
        self,
        worker: int,
        config: AMMSBConfig,
        n_vertices: int,
        rows: stages.RowStore,
        heldout_keys: Optional[np.ndarray] = None,
    ) -> None:
        self.worker = worker
        self.n_vertices = n_vertices
        self.rows = rows
        self.heldout = heldout_rows(heldout_keys, n_vertices)
        # Independent per-worker streams; offsets keep them disjoint from
        # the master's streams for any worker count.
        self.rng = np.random.default_rng(config.seed + 1009 * (worker + 1))
        self.noise_rng = np.random.default_rng(config.seed + 2003 * (worker + 1))
        self.kernels, self.config = stages.pinned_backend(config)
        self.workspace = KernelWorkspace()

    def _last_traffic(self) -> DKVTraffic:
        """Accounting of the store's last batch (zero for a store that
        keeps none, such as the shared-memory table)."""
        return getattr(self.rows, "traffic", None) or DKVTraffic()

    # -- neighbor sampling ----------------------------------------------------

    def sample_neighbors(
        self,
        shard: WorkerShard,
        links_against: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> NeighborSample:
        """Draw V_n per shard vertex; labels come from the scattered
        adjacency slice — the worker has no other view of E — unless the
        host answers ``y_ab`` itself (``links_against``: a mapped graph)."""
        return sample_neighbor_sets(
            shard.vertices,
            self.rng,
            self.n_vertices,
            self.config.neighbor_sample_size,
            links_against or shard.adjacency.links_against,
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
        """Load pi from the store, run Eqns 5-6 for the shard, produce new rows.

        The write-back is separate (:meth:`write_pi`) because the paper
        puts an MPI barrier between update_phi and update_pi for memory
        consistency.
        """
        k = self.config.n_communities
        vs = shard.vertices
        m = vs.size
        if m == 0:
            empty = np.zeros((0, k + 1), dtype=self.rows.dtype)
            return PhiStageResult(vs, empty[:, :-1], empty[:, -1], DKVTraffic())
        if noise is None:
            noise = self.noise_rng.standard_normal((m, k))
        # One batched read covers the shard vertices and all neighbors.
        pi_rows, phi_sum = stages.phi_stage(
            self.rows, self.kernels, self.workspace, self.config,
            self.n_vertices, vs, neighbor_sample, beta, eps_t, noise,
        )
        return PhiStageResult(
            vs, pi_rows, phi_sum, self._last_traffic(),
            ops_phi=int(m * neighbor_sample.neighbors.shape[1] * k),
            ops_pi=int(m * k),
        )

    def write_pi(self, result: PhiStageResult) -> DKVTraffic:
        """update_pi stage: write the new ``[pi | phi_sum]`` rows through
        the store (unique vertices, so no write/write hazards)."""
        if result.vertices.size == 0:
            return DKVTraffic()
        self.rows.write_rows(result.vertices, result.pi_rows, result.phi_sum)
        return self._last_traffic()

    # -- update_beta partials -------------------------------------------------------

    def theta_partial(
        self, shard: WorkerShard, theta: np.ndarray
    ) -> tuple[np.ndarray, DKVTraffic, int]:
        """h-scaled theta-gradient partial sum over this worker's strata.

        All strata are concatenated into one batched read (fresh
        values — the stage runs after the update_pi barrier) and one
        weighted kernel call, instead of a per-stratum Python loop.
        """
        if not shard.strata:
            return np.zeros_like(theta), DKVTraffic(), 0
        pairs, labels, weights = concat_strata(shard.strata)
        grad = stages.theta_partial(
            self.rows, self.kernels, self.workspace, self.config,
            pairs, labels, weights, theta,
        )
        return grad, self._last_traffic(), len(pairs) * self.config.n_communities

    # -- perplexity partials ------------------------------------------------------------

    def perplexity_partial(
        self, pairs: np.ndarray, labels: np.ndarray, beta: np.ndarray
    ) -> tuple[np.ndarray, DKVTraffic]:
        """Per-pair link probabilities for this rank's static E_h slice."""
        probs = stages.heldout_probabilities(self.rows, self.config, pairs, labels, beta)
        return probs, self._last_traffic()
