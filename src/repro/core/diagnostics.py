"""MCMC convergence diagnostics for SG-MCMC chains.

The paper decides convergence by eye from the perplexity trace (Figure 6:
"the algorithm reached a stable state after 3-4 hours"). This module
provides the standard quantitative tools for the same judgment:

- :func:`autocorrelation` and :func:`effective_sample_size` (initial
  positive sequence estimator of Geyer 1992) for scalar traces;
- :func:`geweke_z` — Geweke's two-window mean-equality Z-score;
- :func:`ConvergenceMonitor` — an online "has the perplexity trace
  flattened" detector usable as a stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def autocorrelation(trace: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Normalized autocorrelation function of a scalar trace.

    Returns rho[0..max_lag], rho[0] == 1. Uses FFT-free direct sums (the
    traces here are short).
    """
    x = np.asarray(trace, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("trace too short")
    if max_lag is None:
        max_lag = min(n - 1, 200)
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0:
        out = np.zeros(max_lag + 1)
        out[0] = 1.0
        return out
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = float(x[: n - lag] @ x[lag:]) / n / var
    return out


def effective_sample_size(trace: np.ndarray) -> float:
    """ESS via Geyer's initial positive sequence estimator.

    Sums autocorrelations over consecutive lag pairs while the pair sums
    remain positive; ESS = n / (1 + 2 * sum(rho)).
    """
    x = np.asarray(trace, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError("trace too short for ESS")
    rho = autocorrelation(x, max_lag=n - 2)
    s = 0.0
    for k in range(1, (len(rho) - 1) // 2 + 1):
        pair = rho[2 * k - 1] + rho[2 * k]
        if pair <= 0:
            break
        s += pair
    ess = n / (1.0 + 2.0 * s)
    return float(min(ess, n))


#: Geweke's windows: the first 10 % of a trace against the last 50 %
GEWEKE_FIRST = 0.1
GEWEKE_LAST = 0.5


def geweke_z(trace: np.ndarray) -> float:
    """Geweke convergence Z-score comparing early vs late window means
    (:data:`GEWEKE_FIRST` against :data:`GEWEKE_LAST`).

    |z| < 2 is the usual "no evidence against convergence" threshold. The
    spectral variance at frequency zero is approximated by the windowed
    batch-means variance.
    """
    x = np.asarray(trace, dtype=np.float64)
    n = x.size
    if n < 20:
        raise ValueError("trace too short for Geweke diagnostic")
    a = x[: int(GEWEKE_FIRST * n)]
    b = x[int((1 - GEWEKE_LAST) * n):]

    def spectral_var(y: np.ndarray) -> float:
        m = max(2, y.size // 8)  # batch size
        n_batches = y.size // m
        if n_batches < 2:
            return float(y.var(ddof=1))
        means = y[: n_batches * m].reshape(n_batches, m).mean(axis=1)
        return float(m * means.var(ddof=1))

    var_a = spectral_var(a) / a.size
    var_b = spectral_var(b) / b.size
    denom = np.sqrt(var_a + var_b)
    if denom == 0:
        return 0.0
    return float((a.mean() - b.mean()) / denom)


@dataclass
class ConvergenceMonitor:
    """Online flatness detector for a perplexity trace.

    Declares convergence when the relative improvement of the best value
    over the trailing ``window`` checkpoints falls below ``rel_tol``.

    Attributes:
        window: checkpoints considered "recent".
        rel_tol: relative improvement below which the trace is flat.
        min_checkpoints: never declare convergence earlier than this.
    """

    window: int = 8
    rel_tol: float = 0.005
    min_checkpoints: int = 12
    values: list[float] = field(default_factory=list)

    def update(self, value: float) -> bool:
        """Record a checkpoint; returns True once converged."""
        if not np.isfinite(value):
            raise ValueError("non-finite perplexity")
        self.values.append(float(value))
        return self.converged

    @property
    def converged(self) -> bool:
        v = self.values
        if len(v) < max(self.min_checkpoints, self.window + 1):
            return False
        best_before = min(v[: -self.window])
        best_recent = min(v[-self.window:])
        return best_recent > best_before * (1.0 - self.rel_tol)

    @property
    def best(self) -> float:
        if not self.values:
            return float("inf")
        return min(self.values)
