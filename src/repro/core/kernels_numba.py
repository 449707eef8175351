"""Numba-JIT kernel backend: parallel per-edge loops, zero big temporaries.

The third backend of the :mod:`repro.core.kernels` registry (ROADMAP item
3). Where ``fused`` still materializes the ``(m, n, K)`` intermediates
(``B_k``, ``f``, ``Z``) into workspace buffers, the loops here accumulate
**per edge** straight into the small preallocated output/partial buffers:
nothing of size ``(m, n, K)`` or ``(E, K)`` is ever written, only read.
With numba installed every loop is compiled with
``@njit(parallel=True, cache=True)`` and ``prange`` over mini-batch rows /
edge blocks, so the hot path runs multi-core native code; ``cache=True``
persists the compiled artifacts so later processes skip compilation.

Availability and fallback
-------------------------
``NUMBA_AVAILABLE`` reflects whether ``import numba`` succeeded. When it
did not, the loops below stay plain Python functions (``prange`` becomes
``range``): far too slow for production, but exactly right for the
equivalence tests, which exercise the same loop bodies on tiny shapes
regardless of whether numba is installed. The backend is only
*registered* when numba is available — selection falls back to ``fused``
via :func:`repro.core.kernels.resolve_backend`.

Numerical contract
------------------
Same as every backend (``tests/test_kernels.py`` /
``tests/test_kernels_numba.py``): float64 results match the reference to
tight tolerance (loop-ordered accumulation is not bit-identical to
numpy's pairwise summation, so exact equality is not promised — unlike
``fused``), and float32 inputs stay float32 end to end (outputs and every
workspace buffer; scalar accumulators may carry extra precision).

Determinism under ``parallel=True``
-----------------------------------
``prange`` never splits a reduction across threads here:

- phi gradient / phi update / link probability parallelize over rows,
  and each row is reduced serially by one thread;
- the theta gradient reduces over *all* edges, so edges are cut into
  fixed ``THETA_BLOCK``-sized blocks, each block accumulates serially
  into its own slice of a ``(n_blocks, 2, K)`` partial buffer, and the
  blocks are combined in index order by a serial numpy sum.

The block structure depends only on the edge count, so results are
bit-reproducible across runs and across thread counts.

Warmup
------
:func:`warmup` compiles (once per process) every kernel for the
dtype/argument combinations the engines use, so JIT latency never lands
inside a timed iteration or a serve request. The registered backend
exposes it as ``backend.warmup()``; engines call it at construction.
"""

from __future__ import annotations

import math

import numpy as np

try:  # pragma: no cover - exercised via the import-fallback test
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover
    NUMBA_AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):  # noqa: D401 - identity decorator stand-in
        """No-numba stand-in: leave the loop as a plain Python function."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


#: Edge-block size of the deterministic theta-gradient reduction.
THETA_BLOCK = 1024

#: njit options shared by every loop. ``fastmath`` stays off: the
#: tolerance contract assumes IEEE-ordered arithmetic within each row.
_JIT = dict(parallel=True, cache=True, nogil=True)

_DUMMY_MASK = np.zeros((1, 1), dtype=np.bool_)


# -- compiled loop bodies -----------------------------------------------------


@njit(**_JIT)
def _phi_gradient_loop(
    pi_a, phi_sum_a, pi_b, y, beta, omb, d_link, d_non,
    mask, use_mask, z_floor, phi_floor, out,
):
    m, n, k = pi_b.shape
    for a in prange(m):
        for kk in range(k):
            out[a, kk] = 0.0
        n_eff = 0.0
        for j in range(n):
            if use_mask and not mask[a, j]:
                continue
            n_eff += 1.0
            link = y[a, j]
            d = d_link if link else d_non
            z = 0.0
            for kk in range(k):
                b = beta[kk] if link else omb[kk]
                z += pi_a[a, kk] * (pi_b[a, j, kk] * b + (1.0 - pi_b[a, j, kk]) * d)
            if z < z_floor:
                z = z_floor
            inv_z = 1.0 / z
            # second pass recomputes f_ab(k): allocation-free beats a
            # per-neighbor scratch array at these arithmetic intensities.
            for kk in range(k):
                b = beta[kk] if link else omb[kk]
                f = pi_a[a, kk] * (pi_b[a, j, kk] * b + (1.0 - pi_b[a, j, kk]) * d)
                out[a, kk] += f * inv_z
        for kk in range(k):
            phi_ak = pi_a[a, kk] * phi_sum_a[a]
            if phi_ak < phi_floor:
                phi_ak = phi_floor
            out[a, kk] = out[a, kk] / phi_ak - n_eff / phi_sum_a[a]
    return out


@njit(**_JIT)
def _phi_update_loop(
    phi_a, grad_sum, eps_t, alpha, scale, noise, sqrt_eps_t,
    phi_floor, phi_clip, out,
):
    m, k = phi_a.shape
    for a in prange(m):
        s = scale[a]
        for kk in range(k):
            p = phi_a[a, kk]
            drift = 0.5 * eps_t * (alpha - p + s * grad_sum[a, kk])
            pos = p if p > 0.0 else 0.0
            diffusion = sqrt_eps_t * math.sqrt(pos) * noise[a, kk]
            v = p + drift + diffusion
            if v < 0.0:
                v = -v
            if v < phi_floor:
                v = phi_floor
            elif v > phi_clip:
                v = phi_clip
            out[a, kk] = v
    return out


@njit(**_JIT)
def _theta_gradient_loop(
    pi_a, pi_b, y, beta, omb, d_link, d_non,
    weights, use_weights, z_floor, block, partial,
):
    e, k = pi_a.shape
    n_blocks = partial.shape[0]
    for b in prange(n_blocks):
        for kk in range(k):
            partial[b, 0, kk] = 0.0
            partial[b, 1, kk] = 0.0
        lo = b * block
        hi = lo + block
        if hi > e:
            hi = e
        for i in range(lo, hi):
            link = y[i]
            d = d_link if link else d_non
            z = 0.0
            for kk in range(k):
                bk = beta[kk] if link else omb[kk]
                z += pi_a[i, kk] * (pi_b[i, kk] * bk + (1.0 - pi_b[i, kk]) * d)
            if z < z_floor:
                z = z_floor
            inv_z = 1.0 / z
            if use_weights:
                inv_z *= weights[i]
            for kk in range(k):
                bk = beta[kk] if link else omb[kk]
                w = pi_a[i, kk] * pi_b[i, kk] * bk * inv_z
                partial[b, 0, kk] += w
                if link:
                    partial[b, 1, kk] += w
    return partial


@njit(**_JIT)
def _theta_update_loop(
    theta, grad_sum, eps_t, eta0, eta1, scale, noise, sqrt_eps_t,
    theta_floor, out,
):
    k = theta.shape[0]
    for kk in prange(k):
        for i in range(2):
            eta = eta0 if i == 0 else eta1
            t = theta[kk, i]
            drift = 0.5 * eps_t * (eta - t + scale * grad_sum[kk, i])
            pos = t if t > 0.0 else 0.0
            diffusion = sqrt_eps_t * math.sqrt(pos) * noise[kk, i]
            v = t + drift + diffusion
            if v < 0.0:
                v = -v
            if v < theta_floor:
                v = theta_floor
            out[kk, i] = v
    return out


@njit(**_JIT)
def _link_probability_loop(pi_a, pi_b, beta, delta, floor_lo, floor_hi, out):
    h, k = pi_a.shape
    for i in prange(h):
        same = 0.0
        overlap = 0.0
        for kk in range(k):
            t = pi_a[i, kk] * pi_b[i, kk]
            overlap += t
            same += t * beta[kk]
        p = same + (1.0 - overlap) * delta
        if p < floor_lo:
            p = floor_lo
        elif p > floor_hi:
            p = floor_hi
        out[i] = p
    return out


# -- backend-facing wrappers --------------------------------------------------
#
# Imports of repro.core.kernels stay inside the functions: kernels.py
# imports this module at its bottom to register the backend, and the
# reverse module-level import would make the registration order fragile.


def _workspace(workspace):
    from repro.core.kernels import KernelWorkspace

    return workspace if workspace is not None else KernelWorkspace()


def _as_bool(ws, name: str, values: np.ndarray) -> np.ndarray:
    """0/1-indicator view of ``values`` in a workspace bool buffer."""
    values = np.asarray(values)
    if values.dtype == np.bool_:
        return values
    out = ws.array(name, values.shape, np.bool_)
    np.not_equal(values, 0, out=out)
    return out


def _beta_buffers(ws, prefix: str, beta: np.ndarray, ct) -> tuple[np.ndarray, np.ndarray]:
    beta_c = ws.cast(prefix + "beta", np.asarray(beta), ct)
    omb = ws.array(prefix + "omb", beta_c.shape, ct)
    np.subtract(1.0, beta_c, out=omb)
    return beta_c, omb


def phi_gradient_sum(
    pi_a, phi_sum_a, pi_b, y, beta, delta, mask=None, workspace=None
):
    """Eqn 6 as a parallel per-row loop; zero ``(m, n, K)`` temporaries."""
    from repro.core.kernels import _compute_dtype, _z_floor, gather_rows

    ws = _workspace(workspace)
    pi_a = np.asarray(pi_a)
    pi_b = gather_rows(pi_b)
    ct = _compute_dtype(pi_a, pi_b)
    m, _, k = pi_b.shape

    y_b = _as_bool(ws, "nb_phi_y", y)
    beta_c, omb = _beta_buffers(ws, "nb_phi_", beta, ct)
    use_mask = mask is not None
    mask_b = _as_bool(ws, "nb_phi_mask", mask) if use_mask else _DUMMY_MASK
    out = ws.array("nb_phi_out", (m, k), ct)
    return _phi_gradient_loop(
        pi_a, np.asarray(phi_sum_a), pi_b, y_b, beta_c, omb,
        ct.type(delta), ct.type(1.0 - delta),
        mask_b, use_mask, ct.type(_z_floor(ct)), ct.type(_z_floor(ct)), out,
    )


def update_phi(
    phi_a, grad_sum, eps_t, alpha, scale, noise,
    phi_floor=1e-12, phi_clip=1e6, workspace=None,
):
    """SGRLD phi update (Eqn 5), parallel over mini-batch rows."""
    from repro.core.kernels import _compute_dtype

    ws = _workspace(workspace)
    phi_a = np.asarray(phi_a)
    ct = _compute_dtype(phi_a)
    m, _ = phi_a.shape

    sc = ws.array("nb_up_scale", (m,), ct)
    if isinstance(scale, np.ndarray):
        np.copyto(sc, np.asarray(scale).reshape(-1), casting="same_kind")
    else:
        sc.fill(scale)
    grad_c = ws.cast("nb_up_grad", np.asarray(grad_sum), ct)
    noise_c = ws.cast("nb_up_noise", np.asarray(noise), ct)
    out = ws.array("nb_up_out", phi_a.shape, ct)
    return _phi_update_loop(
        phi_a, grad_c, ct.type(eps_t), ct.type(alpha), sc, noise_c,
        ct.type(math.sqrt(eps_t)), ct.type(phi_floor), ct.type(phi_clip), out,
    )


def theta_gradient_weighted(
    pi_a, pi_b, y, theta, delta, weights=None, workspace=None
):
    """Eqn 4 over all mini-batch edges: deterministic block reduction.

    Edges are reduced in fixed ``THETA_BLOCK``-sized blocks (parallel
    across blocks, serial within), then the per-block partials combine in
    index order — bit-reproducible for any thread count.
    """
    from repro.core.gradients import EPS
    from repro.core.kernels import _compute_dtype, _z_floor

    ws = _workspace(workspace)
    pi_a = np.asarray(pi_a)
    pi_b = np.asarray(pi_b)
    theta = np.asarray(theta)
    ct = _compute_dtype(pi_a, pi_b)
    e, k = pi_a.shape

    theta_row_sum = theta.sum(axis=1)
    beta = theta[:, 1] / theta_row_sum
    beta_c, omb = _beta_buffers(ws, "nb_th_", beta, ct)
    y_b = _as_bool(ws, "nb_th_y", y)
    use_weights = weights is not None
    if use_weights:
        w_c = ws.cast("nb_th_wts", np.asarray(weights), ct)
    else:
        w_c = ws.array("nb_th_wts_dummy", (1,), ct)

    n_blocks = max(1, -(-e // THETA_BLOCK))
    partial = ws.array("nb_th_partial", (n_blocks, 2, k), ct)
    _theta_gradient_loop(
        pi_a, pi_b, y_b, beta_c, omb, ct.type(delta), ct.type(1.0 - delta),
        w_c, use_weights, ct.type(_z_floor(ct)), THETA_BLOCK, partial,
    )
    # Serial, index-ordered combine of the per-block partials.
    w_total = partial[:, 0, :].sum(axis=0)
    w_y = partial[:, 1, :].sum(axis=0)
    w_not_y = w_total - w_y

    grad = np.empty_like(theta)
    grad[:, 0] = w_not_y / np.maximum(theta[:, 0], EPS) - w_total / theta_row_sum
    grad[:, 1] = w_y / np.maximum(theta[:, 1], EPS) - w_total / theta_row_sum
    return grad


def update_theta(
    theta, grad_sum, eps_t, eta, scale, noise, theta_floor=1e-12, workspace=None
):
    """SGRLD theta update (Eqn 3); returns a fresh array (engines keep it)."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty_like(theta)
    return _theta_update_loop(
        theta, np.asarray(grad_sum, dtype=np.float64), float(eps_t),
        float(eta[0]), float(eta[1]), float(scale),
        np.asarray(noise, dtype=np.float64), math.sqrt(float(eps_t)),
        float(theta_floor), out,
    )


def link_probability(pi_a, pi_b, beta, delta, workspace=None):
    """Batched serving-path ``p(y=1)``: parallel over the pair batch."""
    from repro.core.kernels import _compute_dtype
    from repro.core.perplexity import _PROB_FLOOR

    ws = _workspace(workspace)
    pi_a = np.asarray(pi_a)
    pi_b = np.asarray(pi_b)
    ct = _compute_dtype(pi_a, pi_b)
    h, _ = pi_a.shape

    beta_c = ws.cast("nb_lp_beta", np.asarray(beta), ct)
    out = ws.array("nb_lp_out", (h,), ct)
    return _link_probability_loop(
        pi_a, pi_b, beta_c, ct.type(delta),
        ct.type(_PROB_FLOOR), ct.type(1.0 - _PROB_FLOOR), out,
    )


# -- warmup -------------------------------------------------------------------

_WARMED = False


def warmup() -> None:
    """Compile every kernel once, for every argument shape engines use.

    Covers float64 and float32, masked and unmasked phi gradients, and
    weighted and unweighted theta gradients — the full set of lazy-JIT
    specializations — on trivially small inputs. Idempotent and cheap
    after the first call (and, with ``cache=True``, cheap in every later
    process on the same machine). A no-op without numba.
    """
    global _WARMED
    if _WARMED:
        return
    if NUMBA_AVAILABLE:
        from repro.core.kernels import KernelWorkspace

        rng = np.random.default_rng(0)
        theta = rng.gamma(2.0, 1.0, size=(3, 2)) + 0.5
        noise2 = rng.standard_normal((2, 3))
        for dtype in (np.float64, np.float32):
            ws = KernelWorkspace()
            pi_a = rng.dirichlet(np.ones(3), size=2).astype(dtype)
            pi_b = rng.dirichlet(np.ones(3), size=(2, 2)).astype(dtype)
            pi_e = rng.dirichlet(np.ones(3), size=4).astype(dtype)
            phi_sum = np.ones(2, dtype=dtype)
            y = np.array([[True, False], [False, True]])
            beta = rng.uniform(0.2, 0.8, 3)
            for mask in (None, np.ones((2, 2), dtype=bool)):
                phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
                )
            update_phi(
                pi_a, pi_a, 0.01, 0.1, 10.0, noise2.astype(dtype), workspace=ws
            )
            for weights in (None, np.ones(4, dtype=dtype)):
                theta_gradient_weighted(
                    pi_e, pi_e[::-1].copy(), y.reshape(-1), theta, 1e-4,
                    weights=weights, workspace=ws,
                )
            link_probability(pi_e, pi_e, beta, 1e-7, workspace=ws)
        update_theta(theta, np.zeros((3, 2)), 0.01, (1.0, 1.0), 1.0,
                     np.zeros((3, 2)))
    _WARMED = True
