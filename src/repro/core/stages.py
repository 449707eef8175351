"""The stage math of one SG-MCMC iteration, written once.

Algorithm 1 is draw -> neighbors -> phi/pi -> theta/beta. The engines
(sequential, threaded, simulated-distributed, multiprocess) differ in
*where* a stage runs and *where the ``pi`` rows live* (paper S7: a
key-value store, workers touch only the rows they need), never in what a
stage computes. So the computation lives here, over a kernel backend, a
workspace and a :class:`RowStore`, and every engine is an executor of
these functions; ``tests/test_layout.py`` keeps each training kernel
called from this module and nowhere else.

Two row layouts exist. :class:`~repro.core.state.ModelState`'s split
``pi`` / ``phi_sum`` arrays are a row store themselves.
:class:`TableRows` is the ``[pi | phi_sum]`` table, one ``K + 1``-wide
row per vertex, over an ndarray such as :mod:`repro.dist.mp`'s POSIX-shm
table. Both are resident, so they answer a stage's neighbor rows as a
*deferred gather* ``(table, index)`` and the phi kernel copies them one
cache-sized block at a time (:func:`repro.core.kernels.gather_rows`). A
store behind a network (:class:`repro.dist.worker.DKVRows`) answers the
gathered rows from its one batched read.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.config import AMMSBConfig
from repro.core import kernels
from repro.core.kernels import KernelBackend, KernelWorkspace
from repro.core.minibatch import NeighborSample
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


class TableRows:
    """The ``[pi | phi_sum]`` table layout as a :class:`RowStore`, over an
    ``(N, K + 1)`` ndarray."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = table

    @property
    def dtype(self) -> np.dtype:
        return self.table.dtype

    def read_rows(self, vertices, others):
        own = self.table[vertices]
        return own[:, :-1], own[:, -1], (self.table[:, :-1], others)

    def write_rows(self, vertices, pi_rows, phi_sum) -> None:
        self.table[vertices] = np.concatenate([pi_rows, phi_sum[:, None]], axis=1)


def pinned_backend(config: AMMSBConfig) -> tuple[KernelBackend, AMMSBConfig]:
    """Resolve ``config.kernel_backend``, warm it up, pin the resolved name.

    Env-sourced misses fall back to ``fused``; the *resolved* name is what
    the returned config (and therefore any checkpoint) records.
    """
    backend = kernels.resolve_backend(config.kernel_backend)
    if backend.name != config.kernel_backend:
        config = config.with_updates(kernel_backend=backend.name)
    backend.warmup()
    return backend, config


def phi_stage(
    rows: RowStore, backend: KernelBackend, workspace: KernelWorkspace,
    config: AMMSBConfig, n_vertices: int, vertices: np.ndarray,
    neighbor_sample: NeighborSample, beta: np.ndarray, eps_t: float, noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Eqns 5-6 for ``vertices``: their new ``(pi_rows, phi_sum)``.

    Nothing is written: the caller stores the rows once every reader of
    the old ones is done (the paper's barrier between update_phi and
    update_pi).
    """
    pi_a, phi_sum_a, pi_b = rows.read_rows(vertices, neighbor_sample.neighbors)
    grad = backend.phi_gradient_sum(
        pi_a, phi_sum_a, pi_b, neighbor_sample.labels, beta, config.delta,
        mask=neighbor_sample.mask, workspace=workspace,
    )
    new_phi = backend.update_phi(
        pi_a * phi_sum_a[:, None],
        grad,
        eps_t=eps_t,
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


def theta_partial(
    rows: RowStore, backend: KernelBackend, workspace: KernelWorkspace,
    config: AMMSBConfig, pairs: np.ndarray, labels: np.ndarray,
    weights: np.ndarray, theta: np.ndarray,
) -> np.ndarray:
    """h-weighted theta-gradient sum (Eqn 4) over a slice of mini-batch
    pairs. The gradient is linear in the per-pair terms, so slices
    computed anywhere add up to the whole mini-batch's gradient."""
    pi_a, pi_b = _pair_rows(rows, pairs)
    return backend.theta_gradient_weighted(
        pi_a, pi_b, labels, theta, config.delta, weights=weights, workspace=workspace
    )


def apply_theta(
    backend: KernelBackend, workspace: KernelWorkspace, config: AMMSBConfig,
    theta: np.ndarray, grad_total: np.ndarray, iteration: int, noise: np.ndarray,
) -> np.ndarray:
    """SGRLD theta update (Eqn 3) from the reduced mini-batch gradient."""
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
