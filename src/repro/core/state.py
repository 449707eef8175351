"""Model state for a-MMSB SG-MCMC.

Following the paper's memory trade-off (Section III-A), the state stores
``pi`` (N x K, normalized memberships) and ``phi_sum`` (N,) instead of the
raw ``phi`` matrix; ``phi = pi * phi_sum[:, None]`` is recomputed on demand.
In the distributed engine the concatenation ``[pi_row, phi_sum]`` —
``K + 1`` floats — is exactly the value stored per key in the DKV store.

Globals ``theta`` (K x 2) and the derived ``beta`` are tiny and replicated
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import AMMSBConfig


@dataclass
class ModelState:
    """Mutable sampler state.

    Attributes:
        pi: (N, K) membership probabilities; rows sum to 1.
        phi_sum: (N,) row sums of the unnormalized phi.
        theta: (K, 2) global reparameterization; ``beta = theta[:, 1] /
            theta.sum(axis=1)``.
    """

    pi: np.ndarray
    phi_sum: np.ndarray
    theta: np.ndarray

    @property
    def n_vertices(self) -> int:
        return int(self.pi.shape[0])

    @property
    def n_communities(self) -> int:
        return int(self.pi.shape[1])

    @property
    def beta(self) -> np.ndarray:
        """Community strengths derived from theta, shape (K,)."""
        return self.theta[:, 1] / self.theta.sum(axis=1)

    # -- the split-array row store (repro.core.stages.RowStore) ---------------

    @property
    def dtype(self) -> np.dtype:
        return self.pi.dtype

    def read_rows(
        self, vertices: np.ndarray, others: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """``(pi[vertices], phi_sum[vertices], pi[others])``, the last as
        the deferred gather ``(pi, others)`` (nothing copied yet)."""
        return self.pi[vertices], self.phi_sum[vertices], (self.pi, others)

    def write_rows(
        self, vertices: np.ndarray, pi_rows: np.ndarray, phi_sum: np.ndarray
    ) -> None:
        """Store rows, cast to the storage dtype (float32 in the paper's
        configuration); kernels may compute at higher precision."""
        self.phi_sum[vertices] = phi_sum
        self.pi[vertices] = pi_rows

    def set_phi_rows(self, vertices: np.ndarray, phi: np.ndarray) -> None:
        """Store new phi rows (renormalizing into pi / phi_sum)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        sums = phi.sum(axis=1)
        if np.any(sums <= 0):
            raise ValueError("phi rows must have positive sums")
        self.write_rows(vertices, phi / sums[:, None], sums)

    def copy(self) -> "ModelState":
        return ModelState(pi=self.pi.copy(), phi_sum=self.phi_sum.copy(), theta=self.theta.copy())

    def validate(self) -> None:
        """Raise if simplex/positivity invariants are violated.

        The tolerance adapts to the storage precision (float32 rows
        normalize to 1 only within ~K * eps_f32).
        """
        atol = 1e-8 if self.pi.dtype == np.float64 else 1e-4
        if np.any(self.pi < 0):
            raise ValueError("pi has negative entries")
        if not np.allclose(self.pi.sum(axis=1), 1.0, atol=atol):
            raise ValueError("pi rows do not sum to 1")
        if np.any(self.phi_sum <= 0):
            raise ValueError("phi_sum must be positive")
        if np.any(self.theta <= 0):
            raise ValueError("theta must be positive")


def init_state(
    n_vertices: int,
    config: AMMSBConfig,
    rng: np.random.Generator | None = None,
    provider=None,
    chunk_rows: int = 65536,
) -> ModelState:
    """Random initialization following [Li, Ahn, Welling 2015].

    ``phi_ak ~ Gamma(alpha, 1)`` (expanded-mean parameterization of
    Dirichlet(alpha)) and ``theta_ki ~ Gamma(eta_i, 1)``; a small floor
    keeps every entry strictly positive.

    Args:
        provider: an array-provider name/instance from
            :mod:`repro.store` routing the big ``pi``/``phi_sum``
            allocations (e.g. ``"mmap"`` puts the N x K state in
            swappable file-backed scratch so million-node state never
            has to fit in RAM). ``None`` (default) keeps the legacy
            heap path, whose single full-size gamma draw is
            bit-identical to previous releases. Any explicit provider —
            including ``"resident"`` — instead fills the state
            ``chunk_rows`` rows at a time, so the float64 draw
            temporary stays bounded; the chunked draws consume the RNG
            stream in a different order, so the initialization is a
            different (equally valid) sample for the same seed.
    """
    rng = rng or np.random.default_rng(config.seed)
    k = config.n_communities
    alpha = config.effective_alpha
    dtype = np.dtype(config.dtype)
    if provider is None:
        phi = rng.gamma(alpha, 1.0, size=(n_vertices, k)) + 1e-9
        phi_sum = phi.sum(axis=1)
        pi = (phi / phi_sum[:, None]).astype(dtype)
        phi_sum = phi_sum.astype(dtype)
    else:
        from repro.store import get_provider

        prov = get_provider(provider)
        pi = prov.allocate((n_vertices, k), dtype)
        phi_sum = prov.allocate((n_vertices,), dtype)
        for start in range(0, n_vertices, max(1, chunk_rows)):
            stop = min(n_vertices, start + max(1, chunk_rows))
            phi = rng.gamma(alpha, 1.0, size=(stop - start, k)) + 1e-9
            sums = phi.sum(axis=1)
            pi[start:stop] = (phi / sums[:, None]).astype(dtype, copy=False)
            phi_sum[start:stop] = sums.astype(dtype, copy=False)
    # theta is tiny (K x 2) and replicated; keep it at full precision.
    theta = rng.gamma(100.0, 0.01, size=(k, 2)) + 1e-9
    return ModelState(pi=pi, phi_sum=phi_sum, theta=theta)
