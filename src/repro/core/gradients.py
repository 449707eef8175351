"""Pure vectorized SGRLD kernels (Eqns 3-6 of the paper).

Every engine — sequential (:mod:`repro.core.sampler`), multi-threaded
(:mod:`repro.parallel`), and distributed (:mod:`repro.dist`) — calls these
functions with explicit array arguments and explicit pre-drawn noise, so

1. the engines are numerically *identical* given the same mini-batch and
   noise (tested in ``tests/test_dist_equivalence.py``), and
2. the kernels can be unit- and property-tested in isolation.

Shapes use ``m`` = mini-batch vertices, ``n`` = neighbor-sample size,
``K`` = communities, ``E`` = mini-batch edges.

Notation (paper Section II-C): ``B_k = beta_k^y (1-beta_k)^(1-y)`` and
``D = delta^y (1-delta)^(1-y)``;
``f_ab(k) = pi_ak [ pi_bk B_k + (1 - pi_bk) D ]``;
``Z_ab = sum_k f_ab(k)`` — the O(K) normalizer;
``f_ab(k,k) = pi_ak pi_bk B_k`` — the diagonal term used by the theta
gradient.
"""

from __future__ import annotations

import numpy as np

#: Numerical floor to keep divisions finite.
EPS = 1e-300


def bernoulli_factor(beta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``B_k`` broadcast over observations: (..., 1) y against (K,) beta.

    Args:
        beta: (K,) community strengths in (0, 1).
        y: (...,) 0/1 link indicators.

    Returns:
        (..., K) array ``beta_k**y * (1-beta_k)**(1-y)``.
    """
    y = np.asarray(y)
    return np.where(y[..., None] != 0, beta, 1.0 - beta)


def delta_factor(delta: float, y: np.ndarray) -> np.ndarray:
    """``D`` per observation: delta**y * (1-delta)**(1-y), shape (...,)."""
    y = np.asarray(y)
    return np.where(y != 0, delta, 1.0 - delta)


def phi_gradient_terms(
    pi_a: np.ndarray,
    pi_b: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``f_ab(k)`` and ``Z_ab`` for batched (a, b) observations.

    Args:
        pi_a: (m, K) memberships of mini-batch vertices.
        pi_b: (m, n, K) memberships of each vertex's sampled neighbors.
        y: (m, n) link indicators.
        beta: (K,).
        delta: background link probability.

    Returns:
        ``(f, z)`` with shapes (m, n, K) and (m, n).
    """
    b_factor = bernoulli_factor(beta, y)  # (m, n, K)
    d_factor = delta_factor(delta, y)[..., None]  # (m, n, 1)
    f = pi_a[:, None, :] * (pi_b * b_factor + (1.0 - pi_b) * d_factor)
    z = f.sum(axis=-1)
    return f, np.maximum(z, EPS)


def phi_gradient_sum(
    pi_a: np.ndarray,
    phi_sum_a: np.ndarray,
    pi_b: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    delta: float,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Sum over the neighbor set of the phi gradient (Eqn 6), shape (m, K).

    ``sum_b g_ab(phi_ak) = (sum_b f_ab(k)/Z_ab) / phi_ak - n / phi_sum_a``
    and ``phi_ak = pi_ak * phi_sum_a``.

    ``mask`` (m, n) excludes invalid neighbor slots (self pairs, held-out
    collisions) from both the f/Z sum and the per-row count ``n``.
    """
    f, z = phi_gradient_terms(pi_a, pi_b, y, beta, delta)
    w = f / z[..., None]  # (m, n, K)
    if mask is not None:
        w = w * mask[..., None]
        n_eff = mask.sum(axis=1, keepdims=True)  # (m, 1)
    else:
        n_eff = np.full((pi_a.shape[0], 1), y.shape[1], dtype=np.float64)
    s = w.sum(axis=1)  # (m, K)
    phi_a = np.maximum(pi_a * phi_sum_a[:, None], EPS)
    return s / phi_a - n_eff / phi_sum_a[:, None]


def update_phi(
    phi_a: np.ndarray,
    grad_sum: np.ndarray,
    eps_t: float,
    alpha: float,
    scale: float,
    noise: np.ndarray,
    phi_floor: float = 1e-12,
    phi_clip: float = 1e6,
) -> np.ndarray:
    """SGRLD phi update (Eqn 5), vectorized over rows.

    Args:
        phi_a: (m, K) current phi rows.
        grad_sum: (m, K) summed neighbor gradients.
        eps_t: step size.
        alpha: Dirichlet hyperparameter.
        scale: mini-batch correction ``N / |V_n|``.
        noise: (m, K) standard normal draws (pre-drawn by the caller so
            engines can share them).
        phi_floor / phi_clip: stability bounds.

    Returns:
        (m, K) updated phi rows (positive, clipped).
    """
    drift = 0.5 * eps_t * (alpha - phi_a + scale * grad_sum)
    diffusion = np.sqrt(eps_t) * np.sqrt(np.maximum(phi_a, 0.0)) * noise
    out = np.abs(phi_a + drift + diffusion)
    return np.clip(out, phi_floor, phi_clip)


def theta_gradient_sum(
    pi_a: np.ndarray,
    pi_b: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    delta: float,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Sum over mini-batch edges of the theta gradient (Eqn 4), shape (K, 2).

    ``g_ab(theta_ki) = (f_ab(k,k) / Z_ab) * (|1-i-y| / theta_ki
    - 1 / sum_j theta_kj)`` with ``|1-i-y|`` selecting component 1 for
    links and component 0 for non-links.

    Args:
        pi_a / pi_b: (E, K) endpoint memberships per mini-batch edge.
        y: (E,) link indicators.
        theta: (K, 2).
        delta: background probability.
        weights: optional (E,) per-edge h-scale weights. The gradient is
            linear in the per-edge terms, so one weighted call over the
            concatenated strata equals the per-stratum
            ``sum_s scale_s * theta_gradient_sum(stratum_s)`` loop.
    """
    y = np.asarray(y)
    beta = theta[:, 1] / theta.sum(axis=1)
    b_factor = bernoulli_factor(beta, y)  # (E, K)
    d_factor = delta_factor(delta, y)[:, None]  # (E, 1)
    f_diag = pi_a * pi_b * b_factor  # (E, K)
    z = (pi_a * (pi_b * b_factor + (1.0 - pi_b) * d_factor)).sum(axis=1)  # (E,)
    w = f_diag / np.maximum(z, EPS)[:, None]  # (E, K)
    if weights is not None:
        w = w * np.asarray(weights)[:, None]

    theta_row_sum = theta.sum(axis=1)  # (K,)
    w_total = w.sum(axis=0)  # (K,)
    grad = np.empty_like(theta)
    # i = 0: |1-0-y| = 1-y -> only non-link edges contribute the 1/theta term.
    # i = 1: |1-1-y| = y   -> only link edges contribute it.
    # Weighting by the 0/1 indicator sums the link rows without the
    # data-dependent boolean-mask copy (non-link rows contribute exact 0s).
    w_y = (w * (y != 0)[:, None]).sum(axis=0)
    w_not_y = w_total - w_y
    grad[:, 0] = w_not_y / np.maximum(theta[:, 0], EPS) - w_total / theta_row_sum
    grad[:, 1] = w_y / np.maximum(theta[:, 1], EPS) - w_total / theta_row_sum
    return grad


def update_theta(
    theta: np.ndarray,
    grad_sum: np.ndarray,
    eps_t: float,
    eta: tuple[float, float],
    scale: float,
    noise: np.ndarray,
    theta_floor: float = 1e-12,
) -> np.ndarray:
    """SGRLD theta update (Eqn 3).

    Args:
        theta: (K, 2).
        grad_sum: (K, 2) summed (already h-scaled if multiple strata) edge
            gradients.
        eps_t: step size.
        eta: (eta0, eta1) prior pseudo-counts.
        scale: mini-batch correction h(E_n); pass 1.0 if ``grad_sum`` is
            already scaled.
        noise: (K, 2) standard normal draws.
    """
    eta_arr = np.array(eta)[None, :]
    drift = 0.5 * eps_t * (eta_arr - theta + scale * grad_sum)
    diffusion = np.sqrt(eps_t) * np.sqrt(np.maximum(theta, 0.0)) * noise
    return np.maximum(np.abs(theta + drift + diffusion), theta_floor)
