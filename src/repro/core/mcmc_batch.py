"""Full-batch Langevin Monte Carlo (LMC) baseline.

Section II-B motivates SGLD against classic LMC: LMC computes the exact
gradient from *all* data every iteration (O(N^2 K) here) and applies a
Metropolis-Hastings accept/reject test. This module implements that
baseline for small graphs, both to demonstrate the O(N) -> O(n) win of the
stochastic algorithm and as a numerically exact reference for the kernels
(the full-batch gradient is the expectation the mini-batch estimators are
tested against).

It reuses the exact same kernels from :mod:`repro.core.gradients`: the
"neighbor set" is all other vertices and the "mini-batch" is every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core import gradients
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import ModelState, init_state
from repro.graph.graph import Graph, edge_keys
from repro.graph.split import HeldoutSplit

#: Hard cap — LMC materializes (N, N, K) intermediates.
MAX_VERTICES = 2048
#: Step of the exact MH chain's log-normal random walk.
MH_SIGMA = 0.005


def full_log_likelihood(state: ModelState, graph: Graph, config: AMMSBConfig,
                        exclude_keys: Optional[np.ndarray] = None) -> float:
    """Exact log likelihood sum over all pairs of log p(y_ab | pi, beta)."""
    n = graph.n_vertices
    if n > MAX_VERTICES:
        raise ValueError(f"full-batch likelihood limited to N <= {MAX_VERTICES}")
    pi, beta = state.pi, state.beta
    delta = config.delta

    pairs = np.column_stack(np.triu_indices(n, k=1))
    if exclude_keys is not None and exclude_keys.size:
        keys = edge_keys(pairs, n)
        idx = np.minimum(np.searchsorted(exclude_keys, keys), exclude_keys.size - 1)
        pairs = pairs[exclude_keys[idx] != keys]
    y = graph.has_edges(pairs)
    overlap = (pi[pairs[:, 0]] * pi[pairs[:, 1]]).sum(axis=1)
    same = (pi[pairs[:, 0]] * pi[pairs[:, 1]] * beta).sum(axis=1)
    p1 = np.clip(same + (1 - overlap) * delta, 1e-12, 1 - 1e-12)
    return float(np.where(y, np.log(p1), np.log1p(-p1)).sum())


def full_log_posterior(state: ModelState, graph: Graph, config: AMMSBConfig,
                       exclude_keys: Optional[np.ndarray] = None) -> float:
    """Exact log posterior log p(phi, theta | Y) up to a constant.

    Likelihood from :func:`full_log_likelihood`; priors: expanded-mean
    Gamma(alpha, 1) on phi entries and Gamma(eta_i, 1) on theta entries.
    """
    loglik = full_log_likelihood(state, graph, config, exclude_keys)
    alpha = config.effective_alpha
    phi = state.pi * state.phi_sum[:, None]
    log_prior_phi = float(((alpha - 1) * np.log(np.maximum(phi, 1e-300)) - phi).sum())
    eta = np.array(config.eta)[None, :]
    log_prior_theta = float(((eta - 1) * np.log(state.theta) - state.theta).sum())
    return loglik + log_prior_phi + log_prior_theta


@dataclass
class LMCStats:
    iteration: int
    log_posterior: float
    accepted: Optional[bool] = None


class BatchLangevinAMMSB:
    """Full-batch (Riemannian) Langevin sampler with optional MH test.

    Args:
        graph: training graph (N <= 2048).
        config: shared configuration.
        heldout: optional split for perplexity tracking.
        mh_test: apply the Metropolis-Hastings accept/reject correction
            (doubles the cost; exact but slow, as the paper argues).
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        heldout: Optional[HeldoutSplit] = None,
        mh_test: bool = False,
    ) -> None:
        if graph.n_vertices > MAX_VERTICES:
            raise ValueError(f"LMC baseline limited to N <= {MAX_VERTICES}")
        self.graph = graph
        self.config = config
        self.mh_test = mh_test
        self.rng = np.random.default_rng(config.seed)
        self.state = init_state(graph.n_vertices, config, self.rng)
        self.iteration = 0
        self.history: list[LMCStats] = []

        n = graph.n_vertices
        self._heldout_keys = (
            np.sort(edge_keys(heldout.heldout_pairs, n)) if heldout is not None else None
        )
        self.perplexity_estimator = (
            PerplexityEstimator(heldout.heldout_pairs, heldout.heldout_labels, config.delta)
            if heldout is not None
            else None
        )
        # Precompute the dense neighbor structure once.
        self._all_b = np.tile(np.arange(n), (n, 1))
        mask = self._all_b != np.arange(n)[:, None]
        flat = np.column_stack([np.repeat(np.arange(n), n), self._all_b.reshape(-1)])
        if self._heldout_keys is not None and self._heldout_keys.size:
            keys = edge_keys(flat, n)
            idx = np.minimum(np.searchsorted(self._heldout_keys, keys), self._heldout_keys.size - 1)
            mask &= ~(self._heldout_keys[idx] == keys).reshape(n, n)
        self._mask = mask
        self._labels = graph.has_edges(flat).reshape(n, n) & mask

        pairs = np.column_stack(np.triu_indices(n, k=1))
        if self._heldout_keys is not None and self._heldout_keys.size:
            keys = edge_keys(pairs, n)
            idx = np.minimum(np.searchsorted(self._heldout_keys, keys), self._heldout_keys.size - 1)
            pairs = pairs[self._heldout_keys[idx] != keys]
        self._pairs = pairs
        self._pair_labels = graph.has_edges(pairs)

    def _propose(self) -> ModelState:
        cfg = self.config
        st = self.state
        n = self.graph.n_vertices
        eps_phi = cfg.step_phi.at(self.iteration)
        eps_theta = cfg.step_theta.at(self.iteration)

        pi_b = st.pi[self._all_b]
        grad = gradients.phi_gradient_sum(
            st.pi, st.phi_sum, pi_b, self._labels, st.beta, cfg.delta, mask=self._mask
        )
        counts = np.maximum(self._mask.sum(axis=1, keepdims=True), 1)
        phi = st.pi * st.phi_sum[:, None]
        new_phi = gradients.update_phi(
            phi,
            grad,
            eps_phi,
            cfg.effective_alpha,
            scale=n / counts,  # full batch: n/counts ~= 1, exact correction
            noise=self.rng.standard_normal(phi.shape),
            phi_floor=cfg.phi_floor,
            phi_clip=cfg.phi_clip,
        )
        proposal = st.copy()
        proposal.set_phi_rows(np.arange(n), new_phi)

        gt = gradients.theta_gradient_sum(
            proposal.pi[self._pairs[:, 0]],
            proposal.pi[self._pairs[:, 1]],
            self._pair_labels.astype(np.int64),
            proposal.theta,
            cfg.delta,
        )
        proposal.theta = gradients.update_theta(
            proposal.theta,
            gt,
            eps_theta,
            cfg.eta,
            scale=1.0,
            noise=self.rng.standard_normal(proposal.theta.shape),
        )
        return proposal

    def _propose_mh(self) -> tuple[ModelState, float]:
        """Multiplicative log-normal random-walk proposal of step
        :data:`MH_SIGMA`.

        Returns the proposal and the log proposal-density correction
        ``log q(old|new) - log q(new|old)``, which for a log-normal walk is
        the Jacobian term ``sum(log new - log old)`` over all coordinates —
        making the MH test exact (unlike Langevin proposals, whose
        correction involves the drift and is intractable with the
        reflection |.|).
        """
        st = self.state
        phi = st.pi * st.phi_sum[:, None]
        new_phi = phi * np.exp(MH_SIGMA * self.rng.standard_normal(phi.shape))
        new_theta = st.theta * np.exp(MH_SIGMA * self.rng.standard_normal(st.theta.shape))
        proposal = st.copy()
        proposal.set_phi_rows(np.arange(self.graph.n_vertices), new_phi)
        proposal.theta = new_theta
        log_jacobian = float(np.log(new_phi / np.maximum(phi, 1e-300)).sum()) + float(
            np.log(new_theta / st.theta).sum()
        )
        return proposal, log_jacobian

    def step(self) -> LMCStats:
        """One iteration: Langevin drift, or exact random-walk MH.

        With ``mh_test=True`` the chain is an exact (but slow-mixing)
        Metropolis-Hastings sampler — the classic alternative the paper's
        Section II-B argues against; otherwise it is unadjusted full-batch
        Langevin (the eps->0 limit SGLD inherits its correctness from).
        """
        accepted: Optional[bool] = None
        if self.mh_test:
            proposal, log_jacobian = self._propose_mh()
            lp_old = full_log_posterior(self.state, self.graph, self.config, self._heldout_keys)
            lp_new = full_log_posterior(proposal, self.graph, self.config, self._heldout_keys)
            accepted = bool(np.log(self.rng.random()) < lp_new - lp_old + log_jacobian)
            if accepted:
                self.state = proposal
            lp = lp_new if accepted else lp_old
        else:
            self.state = self._propose()
            lp = float("nan")
        stats = LMCStats(iteration=self.iteration, log_posterior=lp, accepted=accepted)
        self.iteration += 1
        self.history.append(stats)
        return stats

    def run(self, n_iterations: int, perplexity_every: int = 0) -> list[LMCStats]:
        out = []
        for _ in range(n_iterations):
            out.append(self.step())
            if (
                perplexity_every
                and self.perplexity_estimator is not None
                and self.iteration % perplexity_every == 0
            ):
                self.perplexity_estimator.record(self.state.pi, self.state.beta)
        return out
