"""The stage math of one SG-MCMC iteration, written once.

Algorithm 1 is draw -> neighbors -> phi/pi -> theta/beta. The engines
(sequential, threaded, simulated-distributed, multiprocess) differ in
*where* a stage runs and *where the ``pi`` rows live* (paper S7: a
key-value store, workers touch only the rows they need), never in what a
stage computes. So the computation lives here, over a kernel backend, a
workspace and a :class:`RowStore`, and every engine is an executor of
these functions; ``tests/test_layout.py`` keeps each training kernel
called from this module and nowhere else.

Two row stores exist. :class:`~repro.core.state.ModelState`'s split
``pi`` / ``phi_sum`` arrays, on the heap or over :mod:`repro.dist.mp`'s
POSIX-shm segment, are resident, so they answer a stage's neighbor rows
as a *deferred gather* ``(pi, index)`` and the phi kernel copies them
one cache-sized block at a time (:func:`repro.core.kernels.gather_rows`).
A store behind a network (:class:`repro.dist.worker.DKVRows`) answers
the gathered rows from its one batched read.
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.config import AMMSBConfig
from repro.core import kernels
from repro.core.kernels import KernelBackend, KernelWorkspace
from repro.core.minibatch import (
    PHI_NOISE, THETA_NOISE, NeighborSample, block_draws, block_rng,
)
from repro.core.perplexity import PerplexityEstimator, link_probability

_NO_KEYS = np.zeros(0, dtype=np.int64)


class RowStore(Protocol):
    """Where ``pi`` rows live, keyed by vertex id."""

    dtype: np.dtype  # storage dtype: reads return it, writes are cast to it

    def read_rows(
        self, vertices: np.ndarray, others: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | tuple[np.ndarray, np.ndarray]]:
        """One stage's reads in one round trip: ``(pi[vertices],
        phi_sum[vertices], pi[others])`` for 1-D ``vertices`` and an
        ``others`` index array of any shape. The third element may be the
        deferred gather ``(pi, others)`` in place of the copy."""

    def write_rows(
        self, vertices: np.ndarray, pi_rows: np.ndarray, phi_sum: np.ndarray
    ) -> None:
        """Store new rows for unique ``vertices``; other rows are untouched."""


def pinned_backend(config: AMMSBConfig) -> tuple[KernelBackend, AMMSBConfig]:
    """Resolve ``config.kernel_backend`` and pin the resolved name.

    Env-sourced misses fall back to ``fused``; the *resolved* name is what
    the returned config (and therefore any checkpoint) records.
    """
    backend = kernels.resolve_backend(config.kernel_backend)
    if backend.name != config.kernel_backend:
        config = config.with_updates(kernel_backend=backend.name)
    return backend, config


def phi_noise(
    config: AMMSBConfig, iteration: int, blocks: Sequence[int], n_rows: int
) -> np.ndarray:
    """The Langevin noise of Eqn 5 at ``iteration`` for the ``n_rows``
    mini-batch rows of the row ``blocks``: ``(n_rows, K)`` standard
    normals, each block its own :func:`~repro.core.minibatch.block_rng`
    stream. A function of (seed, iteration, blocks) alone, so it is drawn
    wherever the mini-batch is drawn, ahead of the state it is added to."""
    k = config.n_communities
    return block_draws(
        config.seed, PHI_NOISE, blocks, n_rows,
        lambda g, n: g.standard_normal((n, k)), iteration,
    )


def phi_stage(
    rows: RowStore, backend: KernelBackend, workspace: KernelWorkspace,
    config: AMMSBConfig, n_vertices: int, vertices: np.ndarray,
    neighbor_sample: NeighborSample, noise: np.ndarray, beta: np.ndarray,
    iteration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Eqns 5-6 at ``iteration`` for ``vertices``, a run of whole row
    blocks of the mini-batch: their new ``(pi_rows, phi_sum)``.

    ``noise`` is those blocks' rows of :func:`phi_noise`, and the kernels
    compute every row from that row's inputs alone, so a row's result
    does not depend on which blocks share the call. Nothing is written:
    the caller stores the rows once every reader of the old ones is done
    (the paper's barrier between update_phi and update_pi).
    """
    pi_a, phi_sum_a, pi_b = rows.read_rows(vertices, neighbor_sample.neighbors)
    grad = backend.phi_gradient_sum(
        pi_a, phi_sum_a, pi_b, neighbor_sample.labels, beta, config.delta,
        mask=neighbor_sample.mask, workspace=workspace,
    )
    new_phi = backend.update_phi(
        pi_a * phi_sum_a[:, None],
        grad,
        eps_t=config.step_phi.at(iteration),
        alpha=config.effective_alpha,
        scale=n_vertices / np.maximum(neighbor_sample.counts, 1),  # Eqn 5's N/|V_n|
        noise=noise,
        phi_floor=config.phi_floor,
        phi_clip=config.phi_clip,
        workspace=workspace,
    )
    phi_sum = new_phi.sum(axis=1)
    if np.any(phi_sum <= 0):
        raise ValueError("phi rows must have positive sums")
    return new_phi / phi_sum[:, None], phi_sum


def _pair_rows(rows: RowStore, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pi`` rows of both endpoints of ``(E, 2)`` pairs."""
    pi = kernels.gather_rows(rows.read_rows(_NO_KEYS, pairs)[2])
    return pi[:, 0], pi[:, 1]


def theta_partials(
    rows: RowStore, backend: KernelBackend, workspace: KernelWorkspace,
    config: AMMSBConfig, pairs: np.ndarray, labels: np.ndarray,
    weights: np.ndarray, theta: np.ndarray, bounds: Sequence[int],
) -> list[np.ndarray]:
    """h-weighted theta-gradient sums (Eqn 4), one per pair block, over
    whole blocks of mini-batch pairs read in one round trip: block j is
    ``[bounds[j], bounds[j + 1])`` of ``pairs``, as
    :func:`~repro.core.minibatch.pair_bounds` cut it. The gradient is
    linear in the per-pair terms, so the blocks computed anywhere add up
    to the whole mini-batch's gradient (:func:`apply_theta`)."""
    pi_a, pi_b = _pair_rows(rows, pairs)
    return [
        backend.theta_gradient_weighted(
            pi_a[a:b], pi_b[a:b], labels[a:b], theta, config.delta,
            weights=weights[a:b], workspace=workspace,
        )
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def apply_theta(
    backend: KernelBackend, workspace: KernelWorkspace, config: AMMSBConfig,
    theta: np.ndarray, partials: Mapping[int, np.ndarray], iteration: int,
) -> np.ndarray:
    """SGRLD theta update (Eqn 3) at ``iteration`` from the mini-batch's
    pair-block partials, ``{block: partial}``, summed in block order by
    whoever reduces: one rounding, whatever computed the blocks."""
    grad_total = np.zeros_like(theta)
    for block in sorted(partials):
        grad_total += partials[block]
    noise = block_rng(config.seed, THETA_NOISE, 0, iteration).standard_normal(theta.shape)
    return backend.update_theta(
        theta, grad_total, eps_t=config.step_theta.at(iteration), eta=config.eta,
        scale=1.0, noise=noise, workspace=workspace,
    )


def heldout_probabilities(
    rows: RowStore, config: AMMSBConfig, pairs: np.ndarray, labels: np.ndarray,
    beta: np.ndarray,
) -> np.ndarray:
    """``p(y_ab)`` under the current sample for a slice of E_h."""
    p1 = link_probability(*_pair_rows(rows, pairs), beta, config.delta)
    return np.where(labels, p1, 1.0 - p1)


def heldout_log_sum(parts: Sequence[PerplexityEstimator]) -> tuple[float, int]:
    """``(sum of log averaged p(y_ab), |E_h|)``: what the ranks reduce."""
    return sum(p.log_sum() for p in parts), sum(len(p.pairs) for p in parts)


def pooled_perplexity(parts: Sequence[PerplexityEstimator]) -> float:
    """Eqn 7 over a partitioned E_h; inf before any sample is recorded."""
    if not parts or parts[0].n_samples == 0:
        return float("inf")
    log_sum, count = heldout_log_sum(parts)
    return float(np.exp(-log_sum / max(count, 1)))
