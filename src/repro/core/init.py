"""Graph-aware initializers for the streaming tier (:mod:`repro.stream`).

- :func:`init_state_spectral` — the successive-projections recipe
  (Mixed-SCORE/SPA style): leading-K eigenvectors of the normalized
  adjacency via block power iteration, K near-pure vertices found by
  successive orthogonal projections, memberships recovered by expressing
  every row in the pure-vertex basis. A cheap, deterministic cold-start
  when no previous checkpoint exists.
- :func:`extend_state_informed` — grows a *trained* state to a larger
  graph: each new vertex starts from the mean membership of its
  already-initialized neighbors (prior-smoothed), so a warm-started
  generation does not re-burn-in for the 95% of rows it already knows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core.state import ModelState
from repro.graph.graph import Graph

#: block power iterations behind the spectral estimate
POWER_ITERATIONS = 60
#: ``phi_sum`` of a row the initializers create: moderate, so the first
#: SGRLD steps can still move it freely
PHI_MASS = 10.0


def _adjacency_matvec(graph: Graph, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``A @ x`` over the graph's CSR arrays for an (N, k) block ``x``.

    ``rows`` is the precomputed row id of every CSR entry (both edge
    directions), so one scatter-add per call replaces a sparse-matrix
    dependency.
    """
    out = np.zeros_like(x)
    np.add.at(out, rows, x[graph._csr_indices])
    return out


def spectral_memberships(
    graph: Graph,
    k: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Mixed-membership estimate via successive projections, shape (N, k).

    1. Leading-``k`` eigenspace of the (shifted) symmetric-normalized
       adjacency ``D^-1/2 A D^-1/2 + I`` by block power iteration with QR
       re-orthonormalization — the ``+ I`` shift makes every leading
       eigenvalue positive so the iteration converges on magnitude.
    2. Successive projection on the eigenvector rows: greedily take the
       row of largest residual norm as a near-pure vertex, project the
       rest onto its orthogonal complement, repeat ``k`` times.
    3. Express every row in the pure-vertex basis (``V @ inv(V[S])``),
       clip to the simplex, renormalize.

    Deterministic for a fixed ``rng`` seed; ties in the projection step
    resolve to the lowest vertex id. Raises ``ValueError`` on graphs too
    small or empty for a rank-``k`` estimate (callers fall back to
    random init).
    """
    n = graph.n_vertices
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k or graph.n_edges == 0:
        raise ValueError(f"need more than {k} vertices and at least one edge")
    rng = rng or np.random.default_rng(0)
    inv_sqrt_deg = 1.0 / np.sqrt(np.maximum(graph.degrees, 1).astype(np.float64))
    rows = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(graph._csr_indptr)
    )
    x = rng.standard_normal((n, k))
    x, _ = np.linalg.qr(x)
    for _ in range(POWER_ITERATIONS):
        y = inv_sqrt_deg[:, None] * _adjacency_matvec(
            graph, inv_sqrt_deg[:, None] * x, rows
        )
        x, _ = np.linalg.qr(y + x)  # + x: the identity shift
    v = x  # (N, k) orthonormal basis of the leading eigenspace

    # Successive projections: k near-pure rows, ties to the lowest id.
    residual = v.copy()
    pure: list[int] = []
    for _ in range(k):
        norms = np.einsum("ij,ij->i", residual, residual)
        s = int(np.argmax(norms))
        if norms[s] <= 1e-12:
            raise ValueError("eigenspace is rank-deficient; no pure vertices")
        pure.append(s)
        u = residual[s] / np.sqrt(norms[s])
        residual -= np.outer(residual @ u, u)

    basis = v[np.array(pure, dtype=np.int64)]  # (k, k)
    memberships, *_ = np.linalg.lstsq(basis.T, v.T, rcond=None)
    memberships = np.clip(memberships.T, 0.0, None)  # (N, k)
    sums = memberships.sum(axis=1)
    dead = sums <= 1e-12
    memberships[dead] = 1.0 / k
    sums[dead] = 1.0
    return memberships / sums[:, None]


def init_state_spectral(
    graph: Graph,
    config: AMMSBConfig,
    rng: Optional[np.random.Generator] = None,
) -> ModelState:
    """Cold-start state from :func:`spectral_memberships`.

    The streaming trainer's fallback when no previous checkpoint exists:
    deterministic for a fixed seed, and prior-smoothed so every community
    keeps full support for the first SGRLD steps. Raises ``ValueError``
    on degenerate graphs (callers fall back to random init).
    """
    rng = rng or np.random.default_rng(config.seed)
    k = config.n_communities
    alpha = config.effective_alpha
    pi = spectral_memberships(graph, k, rng=rng)
    pi = pi + alpha / k
    pi /= pi.sum(axis=1, keepdims=True)
    dtype = np.dtype(config.dtype)
    state = ModelState(
        pi=pi.astype(dtype),
        phi_sum=np.full(graph.n_vertices, PHI_MASS, dtype=dtype),
        theta=rng.gamma(100.0, 0.01, size=(k, 2)) + 1e-9,
    )
    state.validate()
    return state


def extend_state_informed(
    state: ModelState,
    graph: Graph,
    config: AMMSBConfig,
) -> ModelState:
    """Grow a trained state to ``graph.n_vertices`` rows (streaming warm start).

    Rows ``0..state.n_vertices-1`` are copied unchanged. Each new vertex
    (in id order) starts from the mean membership of its already-initialized
    neighbors in ``graph`` — trained rows, or earlier new rows when fresh
    vertices link to each other — smoothed toward the Dirichlet prior;
    a new vertex with no initialized neighbors falls back to the uniform
    prior row. New ``phi_sum`` entries get :data:`PHI_MASS`.
    """
    n_old = state.n_vertices
    n_new = graph.n_vertices
    if n_new < n_old:
        raise ValueError(
            f"graph has {n_new} vertices but the state covers {n_old}"
        )
    if state.n_communities != config.n_communities:
        raise ValueError("state/config community count mismatch")
    if n_new == n_old:
        return state.copy()
    k = state.n_communities
    alpha = config.effective_alpha
    pi = np.empty((n_new, k), dtype=state.pi.dtype)
    pi[:n_old] = state.pi
    phi_sum = np.empty(n_new, dtype=state.phi_sum.dtype)
    phi_sum[:n_old] = state.phi_sum
    uniform = np.full(k, 1.0 / k)
    for v in range(n_old, n_new):
        nbrs = graph.neighbors(v)
        nbrs = nbrs[nbrs < v]  # only rows that already have a value
        row = pi[nbrs].astype(np.float64).mean(axis=0) if nbrs.size else uniform
        row = row + alpha / k
        pi[v] = (row / row.sum()).astype(pi.dtype)
        phi_sum[v] = PHI_MASS
    new = ModelState(pi=pi, phi_sum=phi_sum, theta=state.theta.copy())
    new.validate()
    return new
