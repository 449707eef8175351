"""Held-out perplexity (paper Eqn 7).

``perp = exp( - mean_{(a,b) in E_h} log( (1/T) sum_t p(y_ab | beta_t, pi_t) ) )``

where the link probability marginalizes the pairwise community draws:

``p(y=1 | pi_a, pi_b, beta) = sum_k pi_ak pi_bk beta_k
+ (1 - sum_k pi_ak pi_bk) delta``.

:class:`PerplexityEstimator` keeps the running average of per-pair
probabilities over recorded posterior samples, so it implements the
*averaged* perplexity (T grows as sampling proceeds) without retaining the
samples themselves — the same trick the paper's implementation uses to
avoid storing pi snapshots.
"""

from __future__ import annotations

import numpy as np

_PROB_FLOOR = 1e-12


def link_probability(
    pi_a: np.ndarray, pi_b: np.ndarray, beta: np.ndarray, delta: float
) -> np.ndarray:
    """``p(y=1)`` for batched pairs; pi_a/pi_b are (H, K), result (H,)."""
    same = (pi_a * pi_b * beta).sum(axis=1)
    overlap = (pi_a * pi_b).sum(axis=1)
    p = same + (1.0 - overlap) * delta
    return np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def pair_probabilities(
    pi: np.ndarray,
    beta: np.ndarray,
    pairs: np.ndarray,
    labels: np.ndarray,
    delta: float,
) -> np.ndarray:
    """``p(y_ab)`` under one posterior sample for every held-out pair."""
    pairs = np.asarray(pairs, dtype=np.int64)
    p1 = link_probability(pi[pairs[:, 0]], pi[pairs[:, 1]], beta, delta)
    return np.where(labels, p1, 1.0 - p1)


def perplexity(avg_probs: np.ndarray) -> float:
    """Eqn 7 given the per-pair sample-averaged probabilities."""
    if avg_probs.size == 0:
        raise ValueError("empty held-out set")
    return float(np.exp(-np.mean(np.log(np.maximum(avg_probs, _PROB_FLOOR)))))


def link_prediction_auc(
    pi: np.ndarray,
    beta: np.ndarray,
    pairs: np.ndarray,
    labels: np.ndarray,
    delta: float,
) -> float:
    """AUC of held-out link prediction under one (pi, beta) sample.

    The probability that a uniformly chosen held-out link outranks a
    uniformly chosen held-out non-link by predicted p(y=1). Ties count
    half. 0.5 = chance; the Gopalan-Blei line of work reports this metric
    alongside perplexity.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    labels = np.asarray(labels, dtype=bool)
    if not labels.any() or labels.all():
        raise ValueError("AUC needs both links and non-links")
    scores = link_probability(pi[pairs[:, 0]], pi[pairs[:, 1]], beta, delta)
    # Rank-sum (Mann-Whitney) formulation, ties averaged: each tie group
    # [start, end) of the sorted order gets rank 0.5*(start + end - 1) + 1.
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    _, inverse, counts = np.unique(
        sorted_scores, return_inverse=True, return_counts=True
    )
    ends = np.cumsum(counts)
    starts = ends - counts
    ranks = np.empty(len(scores))
    ranks[order] = (0.5 * (starts + ends - 1) + 1.0)[inverse]
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class PerplexityEstimator:
    """Running sample-averaged perplexity over a fixed held-out set.

    Args:
        pairs: (H, 2) held-out pairs.
        labels: (H,) bool link indicators.
        delta: model delta.
        burn_in: samples recorded before this iteration count are ignored
            (SGRLD needs a few hundred iterations before samples are
            meaningful; matching the paper, perplexity is evaluated at
            regular intervals, not every iteration).
    """

    def __init__(
        self,
        pairs: np.ndarray,
        labels: np.ndarray,
        delta: float,
        burn_in: int = 0,
    ) -> None:
        self.pairs = np.asarray(pairs, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=bool)
        if self.pairs.shape[0] != self.labels.shape[0]:
            raise ValueError("pairs and labels must align")
        self.delta = float(delta)
        self.burn_in = int(burn_in)
        self._prob_sum = np.zeros(self.pairs.shape[0])
        self._count = 0

    @property
    def n_samples(self) -> int:
        return self._count

    def record(self, pi: np.ndarray, beta: np.ndarray, iteration: int | None = None) -> None:
        """Add one posterior sample's probabilities to the running average."""
        if iteration is not None and iteration < self.burn_in:
            return
        self.add(pair_probabilities(pi, beta, self.pairs, self.labels, self.delta))

    def add(self, probs: np.ndarray) -> None:
        """Add one sample's per-pair ``p(y_ab)`` computed elsewhere (the
        distributed engines evaluate their E_h slices next to the rows)."""
        self._prob_sum += probs
        self._count += 1

    def log_sum(self) -> float:
        """Sum over pairs of the log averaged probability: this set's
        share of Eqn 7's exponent when E_h is partitioned."""
        avg = self._prob_sum / self._count
        return float(np.log(np.maximum(avg, _PROB_FLOOR)).sum())

    def value(self) -> float:
        """Current averaged perplexity; inf before any sample is recorded."""
        if self._count == 0:
            return float("inf")
        return perplexity(self._prob_sum / self._count)

    def single_sample_value(self, pi: np.ndarray, beta: np.ndarray) -> float:
        """Perplexity of one state alone (no averaging); for diagnostics."""
        return perplexity(pair_probabilities(pi, beta, self.pairs, self.labels, self.delta))

    def reset(self) -> None:
        self._prob_sum[:] = 0.0
        self._count = 0
