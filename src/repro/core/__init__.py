"""Core a-MMSB SG-MCMC algorithm (the paper's Section II).

Layout:

- :mod:`repro.core.state` — model state (theta/beta, pi/phi_sum);
- :mod:`repro.core.gradients` — pure vectorized kernels shared by every
  engine (sequential, threaded, distributed);
- :mod:`repro.core.kernels` — pluggable kernel backends (``reference``,
  ``fused``) with reusable workspaces; every engine resolves its backend
  here;
- :mod:`repro.core.schedule` — SGRLD step-size schedules;
- :mod:`repro.core.minibatch` — mini-batch strategies and their
  unbiasedness scale factors h(E_n);
- :mod:`repro.core.sampler` — the sequential reference sampler
  (Algorithm 1);
- :mod:`repro.core.perplexity` — held-out perplexity (Eqn 7);
- :mod:`repro.core.svi` — stochastic variational inference baseline;
- :mod:`repro.core.mcmc_batch` — full-batch Langevin baseline.
"""

from repro.core.state import ModelState, init_state
from repro.core.kernels import (
    KernelBackend,
    KernelWorkspace,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.core.minibatch import Minibatch, MinibatchSampler, Stratum
from repro.core.sampler import AMMSBSampler, IterationStats
from repro.core.perplexity import (
    PerplexityEstimator,
    link_prediction_auc,
    link_probability,
    perplexity,
)
from repro.core.estimation import PosteriorMean, align_communities, extract_communities
from repro.core.diagnostics import ConvergenceMonitor
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.general import GeneralMMSBSampler

__all__ = [
    "ModelState",
    "init_state",
    "KernelBackend",
    "KernelWorkspace",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "Minibatch",
    "MinibatchSampler",
    "Stratum",
    "AMMSBSampler",
    "IterationStats",
    "PerplexityEstimator",
    "link_prediction_auc",
    "link_probability",
    "perplexity",
    "PosteriorMean",
    "align_communities",
    "extract_communities",
    "ConvergenceMonitor",
    "load_checkpoint",
    "save_checkpoint",
    "GeneralMMSBSampler",
]
