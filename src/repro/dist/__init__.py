"""Distributed master-worker SG-MCMC engine (the paper's contribution).

- :mod:`repro.dist.partition` — mini-batch and held-out partitioning,
  and the bytes of the adjacency slice the simulated scatter charges;
- :mod:`repro.dist.master` — master rank: draws mini-batches, partitions
  them, owns the full edge set E;
- :mod:`repro.dist.worker` — worker rank: neighbor sampling (``y_ab``
  from ``Graph.links_from``), update_phi / update_pi against a row
  store, theta-gradient partials, perplexity partials;
- :mod:`repro.dist.protocol` — Algorithm 1's master loop, written once
  over a transport with four calls (``phi_compute``, ``pi_write``,
  ``theta_partial``, ``perplexity``);
- :mod:`repro.dist.sampler` — that loop over the in-process transport,
  with a simulated clock observing each call (functional mode);
- :mod:`repro.dist.mp` — that loop over the pipe transport to forked
  worker processes with shared-memory ``pi``, with failure recovery;
- :mod:`repro.dist.analytic` — closed-form iteration timing at full paper
  scale (no kernel execution), driving the scaling figures.
"""

from repro.dist.sampler import DistributedAMMSBSampler, DistributedTiming
from repro.dist.analytic import analytic_iteration, dataset_shape
from repro.dist.mp import MultiprocessAMMSBSampler

__all__ = [
    "DistributedAMMSBSampler",
    "DistributedTiming",
    "MultiprocessAMMSBSampler",
    "analytic_iteration",
    "dataset_shape",
]
