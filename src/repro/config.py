"""Configuration objects shared by every engine.

:class:`AMMSBConfig` collects the model hyperparameters and sampler knobs
of Algorithm 1 with the defaults used in the paper and in
[Li, Ahn, Welling 2015]. All three engines (sequential, threaded,
distributed) take the same config so experiments vary exactly one thing at
a time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional


def _default_kernel_backend() -> str:
    """Default backend, overridable via ``REPRO_KERNEL_BACKEND``."""
    return os.environ.get("REPRO_KERNEL_BACKEND", "fused")


@dataclass(frozen=True)
class StepSizeConfig:
    """SGRLD step-size schedule ``eps_t = a * (1 + t/b) ** -c``.

    The defaults follow [Li, Ahn, Welling 2015]: c in (0.5, 1] satisfies
    the Robbins-Monro conditions sum(eps) = inf, sum(eps^2) < inf.
    """

    a: float = 0.01
    b: float = 1024.0
    c: float = 0.55

    def at(self, t: int) -> float:
        """Step size at iteration ``t`` (0-based)."""
        if t < 0:
            raise ValueError("iteration must be >= 0")
        return self.a * (1.0 + t / self.b) ** (-self.c)


@dataclass(frozen=True)
class AMMSBConfig:
    """Hyperparameters and sampler knobs for a-MMSB SG-MCMC.

    Attributes:
        n_communities: K, number of latent communities.
        alpha: Dirichlet hyperparameter for memberships pi. The common
            heuristic alpha = 1/K is applied when left as None.
        eta: (eta1, eta0) Beta hyperparameters for community strengths.
        delta: inter-community link probability (small).
        mini_batch_vertices: M, number of distinct vertices treated per
            mini-batch (paper Figure 1 uses M = 16384).
        neighbor_sample_size: n, size of each vertex's sampled neighbor set
            V_n (paper Figure 1 uses n = 32).
        strategy: mini-batch strategy: "stratified-random-node" (default,
            the strategy of [16]), "random-pair" (uniform pairs), or
            "full-batch" (every pair each iteration, scale 1 — exact
            gradients for small graphs; the zero-variance reference the
            stochastic strategies are tested against).
        step_phi / step_theta: SGRLD schedules for the local / global updates.
        phi_clip: upper clip on phi values for numerical stability.
        seed: master RNG seed.
        dtype: storage precision for pi/phi_sum ("float32" matches the
            paper's 32-bit arrays and halves the DKV footprint; the
            ``fused`` backend also *computes* the hot path at this
            precision, while ``reference`` upcasts internally).
        kernel_backend: which :mod:`repro.core.kernels` backend every
            engine uses for the SGRLD hot path ("fused" by default,
            "reference" for the plain numpy functions, "numba" for the
            parallel JIT loops when the ``numba`` extra is installed).
            The default can be overridden with the
            ``REPRO_KERNEL_BACKEND`` environment variable; resolution
            happens at engine construction, and an env-sourced name
            that is not registered falls back to "fused" with a
            warning (an explicitly configured unknown name raises).
    """

    n_communities: int = 16
    alpha: Optional[float] = None
    eta: tuple[float, float] = (1.0, 1.0)
    delta: float = 1e-7
    mini_batch_vertices: int = 32
    neighbor_sample_size: int = 32
    strategy: str = "stratified-random-node"
    step_phi: StepSizeConfig = field(default_factory=StepSizeConfig)
    step_theta: StepSizeConfig = field(default_factory=StepSizeConfig)
    phi_clip: float = 1e6
    phi_floor: float = 1e-12
    seed: int = 42
    dtype: str = "float64"
    kernel_backend: str = field(default_factory=_default_kernel_backend)

    def __post_init__(self) -> None:
        if self.n_communities < 1:
            raise ValueError("n_communities must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.mini_batch_vertices < 1:
            raise ValueError("mini_batch_vertices must be >= 1")
        if self.neighbor_sample_size < 1:
            raise ValueError("neighbor_sample_size must be >= 1")
        if self.strategy not in ("stratified-random-node", "random-pair", "full-batch"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if not self.kernel_backend or not isinstance(self.kernel_backend, str):
            raise ValueError("kernel_backend must be a non-empty backend name")

    @property
    def effective_alpha(self) -> float:
        """alpha, defaulting to the 1/K heuristic."""
        return self.alpha if self.alpha is not None else 1.0 / self.n_communities

    def with_updates(self, **kwargs) -> "AMMSBConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
