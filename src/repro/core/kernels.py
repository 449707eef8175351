"""Pluggable kernel backends for the SGRLD hot path.

The per-iteration numerics (Eqns 3-6) are behind a small registry so the
engines can swap implementations without touching orchestration code:

- ``reference`` — the plain vectorized functions of
  :mod:`repro.core.gradients`, unchanged. This is the correctness contract:
  every other backend must match it (bit-for-bit in float64, to tolerance
  in float32 — see ``tests/test_kernels.py``).
- ``fused`` (default) — in-place ufunc calls into a reusable preallocated
  :class:`KernelWorkspace`, so the temporaries the reference path
  allocates per step disappear. The phi gradient, the one kernel with
  ``(m, n, K)`` operands, never holds one: it walks the mini-batch in
  blocks of rows whose buffers fit in L2 and, handed a *deferred gather*
  (:func:`gather_rows`), copies each block's neighbor rows out of the
  ``pi`` table right before it consumes them. The float64 arithmetic
  replays the reference's operations on every element (same ufuncs,
  same association), so results are bit-identical; only the
  allocations and the passes over memory go away.
- ``numba`` (:mod:`repro.core.kernels_numba`) — registered only when
  numba is importable: ``@njit(parallel=True, cache=True)`` loops with
  ``prange`` over mini-batch rows/edge blocks and *zero* ``(m, n, K)``
  temporaries. Matches the reference to tolerance in float64 (loop-order
  accumulation, not bit-identical) and keeps float32 in float32. Exposes
  a :meth:`KernelBackend.warmup` compile hook so JIT latency never lands
  inside a timed iteration or a serve request.

Dtype policy: the compute dtype is the dtype of the ``pi`` inputs. A
float32 state (the paper's 32-bit arrays) therefore runs the entire
``(m, n, K)`` / ``(E, K)`` hot path in float32 — scalars, ``beta``,
noise, and scale factors are cast down once per call into small workspace
buffers instead of silently upcasting the big arrays to float64. The tiny
``(K, 2)`` theta update stays at theta's own (float64) precision.

Backend selection is wired through ``AMMSBConfig.kernel_backend`` and the
``REPRO_KERNEL_BACKEND`` environment variable; every engine resolves its
backend with :func:`resolve_backend` at construction time. Resolution
fails soft when the name arrived through the environment (or the caller
opts in): a warning is logged and ``fused`` is used, so setting
``REPRO_KERNEL_BACKEND=numba`` on a host without numba degrades instead
of raising deep inside engine init. An explicitly configured miss still
raises :class:`ValueError` with the available names.

Workspace lifecycle: one :class:`KernelWorkspace` per sequential sampler /
distributed worker, one per *thread* in :mod:`repro.parallel`
(kernel buffers are not thread-safe; threads must not share one). The
phi gradient's big buffers are block-sized (``_PHI_BLOCK_BYTES`` each),
not mini-batch-sized; everything else is ``(m, K)`` or ``(E, K)``.
Returned gradient arrays are views into the workspace — valid until the
same kernel is called again on the same workspace, which is exactly the
lifetime the engines need (consume the gradient in the same iteration).
"""

from __future__ import annotations

import logging
import math
import os
from typing import Callable, Optional

import numpy as np

from repro.core import gradients
from repro.core.gradients import EPS


def _compute_dtype(*arrays: np.ndarray) -> np.dtype:
    """float32 iff every pi-like input is float32; float64 otherwise."""
    if all(a.dtype == np.float32 for a in arrays):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _z_floor(dtype: np.dtype) -> float:
    """Normalizer floor: EPS underflows to 0 in float32, so use tiny."""
    if dtype == np.float64:
        return EPS
    return float(np.finfo(dtype).tiny)


class KernelWorkspace:
    """Named, reusable scratch buffers for the fused kernels.

    Buffers are keyed by name and grown (never shrunk) to the largest
    size requested, so steady-state iterations perform zero large
    allocations regardless of mini-batch size jitter. ``array`` returns a
    contiguous view of the capacity buffer reshaped to the requested
    shape; a dtype change (e.g. float64 -> float32 run) reallocates.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = int(math.prod(shape))
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = np.empty(max(size, 1), dtype=dtype)
            self._buffers[name] = buf
        return buf[:size].reshape(shape)

    def cast(self, name: str, values: np.ndarray, dtype) -> np.ndarray:
        """Cast ``values`` into a workspace buffer iff dtypes differ."""
        values = np.asarray(values)
        if values.dtype == np.dtype(dtype):
            return values
        out = self.array(name, values.shape, dtype)
        np.copyto(out, values, casting="same_kind")
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        """Snapshot of the live buffers (for the dtype-tracking tests)."""
        return dict(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())


class KernelBackend:
    """A named bundle of the SGRLD hot-path kernels.

    All kernels accept an optional ``workspace``; backends that do not
    need one (``reference``) ignore it. ``link_probability`` is the
    inference-time scoring kernel used by the serving layer
    (:mod:`repro.serve`); backends that do not override it get the
    reference implementation. ``warmup`` is an optional one-time
    compile/prime hook (the JIT backend uses it); engines call it at
    construction so first-call latency stays out of timed iterations and
    serve requests.
    """

    def __init__(
        self,
        name: str,
        phi_gradient_sum: Callable[..., np.ndarray],
        update_phi: Callable[..., np.ndarray],
        theta_gradient_weighted: Callable[..., np.ndarray],
        update_theta: Callable[..., np.ndarray],
        link_probability: Optional[Callable[..., np.ndarray]] = None,
        warmup: Optional[Callable[[], None]] = None,
    ) -> None:
        self.name = name
        self.phi_gradient_sum = phi_gradient_sum
        self.update_phi = update_phi
        self.theta_gradient_weighted = theta_gradient_weighted
        self.update_theta = update_theta
        self.link_probability = (
            link_probability if link_probability is not None else _ref_link_probability
        )
        self._warmup = warmup

    def warmup(self) -> None:
        """Prime the backend (compile JIT specializations); idempotent."""
        if self._warmup is not None:
            self._warmup()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelBackend({self.name!r})"


# -- the deferred neighbor-row gather -------------------------------------------


def _split_rows(pi_b) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``(table, index)`` of a deferred gather, ``(rows, None)`` of
    gathered rows.

    The index comes back checked: every id lies in ``[0, len(table))``,
    because ``np.take(..., mode="clip")`` would clip a stray id silently
    and plain indexing would wrap a negative one.
    """
    if not isinstance(pi_b, tuple):
        return np.asarray(pi_b), None
    table, index = pi_b
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= table.shape[0]):
        raise IndexError(
            f"row ids {int(index.min())}..{int(index.max())} reach outside "
            f"a table of {table.shape[0]} rows"
        )
    return table, index


def gather_rows(pi_b) -> np.ndarray:
    """The ``(m, n, K)`` neighbor rows of a phi-gradient call, materialised.

    ``pi_b`` is either those rows or the deferred gather ``(table, index)``
    that a resident row store hands out in their place (``table[index]``,
    not yet copied). Backends without a blocked loop call this first.
    """
    table, index = _split_rows(pi_b)
    return table if index is None else table[index]


# -- reference backend: delegate to repro.core.gradients ---------------------


def _ref_phi_gradient_sum(
    pi_a, phi_sum_a, pi_b, y, beta, delta, mask=None, workspace=None
):
    return gradients.phi_gradient_sum(
        pi_a, phi_sum_a, gather_rows(pi_b), y, beta, delta, mask=mask
    )


def _ref_update_phi(
    phi_a, grad_sum, eps_t, alpha, scale, noise,
    phi_floor=1e-12, phi_clip=1e6, workspace=None,
):
    return gradients.update_phi(
        phi_a, grad_sum, eps_t, alpha, scale, noise,
        phi_floor=phi_floor, phi_clip=phi_clip,
    )


def _ref_theta_gradient_weighted(
    pi_a, pi_b, y, theta, delta, weights=None, workspace=None
):
    return gradients.theta_gradient_sum(pi_a, pi_b, y, theta, delta, weights=weights)


def _ref_update_theta(
    theta, grad_sum, eps_t, eta, scale, noise, theta_floor=1e-12, workspace=None
):
    return gradients.update_theta(
        theta, grad_sum, eps_t, eta, scale, noise, theta_floor=theta_floor
    )


def _ref_link_probability(pi_a, pi_b, beta, delta, workspace=None):
    # repro.core re-exports the perplexity *function* under the same name
    # as the module, so import the function directly.
    from repro.core.perplexity import link_probability

    return link_probability(pi_a, pi_b, beta, delta)


# -- fused backend: in-place, allocation-free, dtype-preserving ---------------


def _bernoulli_factors_into(
    ws: KernelWorkspace, y: np.ndarray, beta: np.ndarray, delta: float, ct: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill workspace buffers with the theta kernel's ``link`` mask,
    ``(E, K)`` ``B_k`` and ``(E,)`` ``D``.

    The factor values are identical to the reference
    ``bernoulli_factor``/``delta_factor`` ``np.where`` results; two masked
    ``copyto`` passes replace the fresh allocation.
    """
    link = ws.array("th_link", y.shape, bool)
    np.not_equal(y, 0, out=link)
    notlink = ws.array("th_notlink", y.shape, bool)
    np.logical_not(link, out=notlink)

    beta_c = ws.cast("th_beta", np.asarray(beta), ct)
    one_minus_beta = ws.array("th_omb", beta_c.shape, ct)
    np.subtract(1.0, beta_c, out=one_minus_beta)

    bfac = ws.array("th_bfac", y.shape + beta_c.shape, ct)
    np.copyto(bfac, beta_c, where=link[:, None])
    np.copyto(bfac, one_minus_beta, where=notlink[:, None])

    dfac = ws.array("th_dfac", y.shape, ct)
    np.copyto(dfac, ct.type(delta), where=link)
    np.copyto(dfac, ct.type(1.0 - delta), where=notlink)
    return link, bfac, dfac


#: Bytes one ``(rows, n, K)`` buffer of the fused phi kernel may hold. The
#: kernel walks the mini-batch that many rows at a time, so the gathered
#: neighbor rows and its two intermediates are still in L2 when the next
#: pass reads them (4 rows at n=64, K=128 in float64; 32 at n=32, K=32).
_PHI_BLOCK_BYTES = 256 * 1024


def _fused_phi_gradient_sum(
    pi_a, phi_sum_a, pi_b, y, beta, delta, mask=None, workspace=None
):
    """Eqn 6 one L2-sized block of mini-batch rows at a time.

    No ``(m, n, K)`` array is allocated, written or (for a deferred
    ``pi_b``, see :func:`gather_rows`) even gathered: each block's neighbor
    rows are taken from the table into a workspace buffer and consumed
    while hot. Every element goes through the reference's operations in
    the reference's association, so float64 results are bit-identical,
    but in fewer passes: all slots get the non-link factors by
    broadcasting (``1 - beta``, the scalar ``1 - delta``), the few link
    slots are then redone with theirs, and a masked slot gets ``Z = inf``
    (``w / inf`` and ``w * 0`` agree bit for bit) instead of a pass over
    ``w``.
    """
    ws = workspace if workspace is not None else KernelWorkspace()
    pi_a = np.asarray(pi_a)
    y = np.asarray(y)
    table, index = _split_rows(pi_b)
    ct = _compute_dtype(pi_a, table)
    (m, n), k = y.shape, pi_a.shape[1]
    eps = _z_floor(ct)
    rows = max(1, min(m, _PHI_BLOCK_BYTES // max(1, n * k * ct.itemsize)))

    beta_c = ws.cast("phi_beta", np.asarray(beta), ct)
    one_minus_beta = ws.array("phi_omb", beta_c.shape, ct)
    np.subtract(1.0, beta_c, out=one_minus_beta)
    d_link, d_nonlink = ct.type(delta), ct.type(1.0 - delta)
    link_row, link_col = np.nonzero(y)  # row-major, so sorted by row
    link_from = np.searchsorted(link_row, np.arange(0, m + rows, rows))
    if mask is not None:
        hidden = ws.array("phi_hidden", (m, n), bool)
        np.logical_not(mask, out=hidden)

    s = ws.array("phi_s", (m, k), ct)
    u_buf = ws.array("phi_u", (rows, n, k), ct)
    f_buf = ws.array("phi_f", (rows, n, k), ct)
    z_buf = ws.array("phi_z", (rows, n), ct)
    # np.take gathers from C-contiguous memory only: it would first copy
    # any other table whole (the pi columns of a [pi | phi_sum] table),
    # so those are indexed, which allocates the block instead.
    take_into = None
    if index is not None and table.flags.c_contiguous:
        take_into = ws.array("phi_rows", (rows, n, k), table.dtype)
    for block, a in enumerate(range(0, m, rows)):
        b = min(a + rows, m)
        if index is None:
            rows_b = table[a:b]
        elif take_into is None:
            rows_b = table[index[a:b]]
        else:
            rows_b = np.take(
                table, index[a:b], axis=0, out=take_into[: b - a], mode="clip"
            )
        u, f, z = u_buf[: b - a], f_buf[: b - a], z_buf[: b - a]

        # f = pi_a[:, None, :] * (pi_b * B + (1 - pi_b) * D)
        np.subtract(1.0, rows_b, out=u)
        u *= d_nonlink
        np.multiply(rows_b, one_minus_beta, out=f)
        f += u
        lo, hi = link_from[block], link_from[block + 1]
        if lo < hi:
            at = (link_row[lo:hi] - a, link_col[lo:hi])
            linked = rows_b[at]
            f[at] = linked * beta_c + (1.0 - linked) * d_link
        f *= pi_a[a:b, None, :]

        np.add.reduce(f, axis=-1, out=z)
        np.maximum(z, eps, out=z)
        if mask is not None:
            np.copyto(z, np.inf, where=hidden[a:b])
        f /= z[..., None]  # f is now w
        np.add.reduce(f, axis=1, out=s[a:b])

    n_eff = ws.array("phi_neff", (m, 1), ct)
    if mask is not None:
        n_eff_i = ws.array("phi_neff_i", (m, 1), np.int64)
        np.sum(mask, axis=1, keepdims=True, out=n_eff_i)
        np.divide(n_eff_i, phi_sum_a[:, None], out=n_eff, casting="same_kind")
    else:
        n_eff.fill(float(n))
        n_eff /= phi_sum_a[:, None]

    phi_a = ws.array("phi_phia", (m, k), ct)
    np.multiply(pi_a, phi_sum_a[:, None], out=phi_a)
    np.maximum(phi_a, eps, out=phi_a)
    s /= phi_a
    s -= n_eff
    return s


def _fused_update_phi(
    phi_a, grad_sum, eps_t, alpha, scale, noise,
    phi_floor=1e-12, phi_clip=1e6, workspace=None,
):
    """SGRLD phi update (Eqn 5) into workspace buffers."""
    ws = workspace if workspace is not None else KernelWorkspace()
    phi_a = np.asarray(phi_a)
    ct = _compute_dtype(phi_a)
    shape = phi_a.shape

    if isinstance(scale, np.ndarray):
        scale = ws.cast("up_scale", scale, ct)
    noise = ws.cast("up_noise", np.asarray(noise), ct)
    grad_sum = ws.cast("up_grad", np.asarray(grad_sum), ct)

    # drift = 0.5 * eps_t * (alpha - phi_a + scale * grad_sum)
    drift = ws.array("up_drift", shape, ct)
    np.subtract(alpha, phi_a, out=drift, casting="same_kind")
    tmp = ws.array("up_tmp", shape, ct)
    np.multiply(scale, grad_sum, out=tmp, casting="same_kind")
    drift += tmp
    drift *= 0.5 * eps_t
    # diffusion = sqrt(eps_t) * sqrt(max(phi_a, 0)) * noise
    np.maximum(phi_a, 0.0, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp *= np.sqrt(eps_t)
    tmp *= noise
    drift += phi_a
    drift += tmp
    np.abs(drift, out=drift)
    np.clip(drift, phi_floor, phi_clip, out=drift)
    return drift


def _fused_theta_gradient_weighted(
    pi_a, pi_b, y, theta, delta, weights=None, workspace=None
):
    """Eqn 4, batched over all mini-batch edges with per-edge h-weights."""
    ws = workspace if workspace is not None else KernelWorkspace()
    pi_a = np.asarray(pi_a)
    pi_b = np.asarray(pi_b)
    y = np.asarray(y)
    ct = _compute_dtype(pi_a, pi_b)
    e, k = pi_a.shape
    eps = _z_floor(ct)

    theta_row_sum = theta.sum(axis=1)
    beta = theta[:, 1] / theta_row_sum
    link, bfac, dfac = _bernoulli_factors_into(ws, y, beta, delta, ct)

    # z = (pi_a * (pi_b * B + (1 - pi_b) * D)).sum(axis=1)
    u = ws.array("th_u", (e, k), ct)
    np.subtract(1.0, pi_b, out=u)
    u *= dfac[:, None]
    v = ws.array("th_v", (e, k), ct)
    np.multiply(pi_b, bfac, out=v)
    v += u
    v *= pi_a
    z = ws.array("th_z", (e,), ct)
    np.sum(v, axis=1, out=z)
    np.maximum(z, eps, out=z)

    # w = (pi_a * pi_b * B) / z, per-edge weighted; v is free to reuse.
    np.multiply(pi_a, pi_b, out=v)
    v *= bfac
    v /= z[:, None]
    if weights is not None:
        w_c = ws.cast("th_wts", np.asarray(weights), ct)
        v *= w_c[:, None]

    w_total = ws.array("th_wtot", (k,), ct)
    np.sum(v, axis=0, out=w_total)
    v *= link[:, None]
    w_y = ws.array("th_wy", (k,), ct)
    np.sum(v, axis=0, out=w_y)
    w_not_y = ws.array("th_wny", (k,), ct)
    np.subtract(w_total, w_y, out=w_not_y)

    grad = np.empty_like(theta)
    grad[:, 0] = w_not_y / np.maximum(theta[:, 0], EPS) - w_total / theta_row_sum
    grad[:, 1] = w_y / np.maximum(theta[:, 1], EPS) - w_total / theta_row_sum
    return grad


def _fused_link_probability(pi_a, pi_b, beta, delta, workspace=None):
    """Batched ``p(y=1)`` (perplexity Eqn 7 integrand) without temporaries.

    The serving hot path: scores (H, K) pair batches into workspace
    buffers, replaying the reference arithmetic of
    :func:`repro.core.perplexity.link_probability` so float64 results are
    bit-identical. A float32 artifact scores entirely in float32.
    """
    from repro.core.perplexity import _PROB_FLOOR

    ws = workspace if workspace is not None else KernelWorkspace()
    pi_a = np.asarray(pi_a)
    pi_b = np.asarray(pi_b)
    ct = _compute_dtype(pi_a, pi_b)
    h, k = pi_a.shape

    t = ws.array("lp_t", (h, k), ct)
    np.multiply(pi_a, pi_b, out=t)
    overlap = ws.array("lp_overlap", (h,), ct)
    np.sum(t, axis=1, out=overlap)
    beta_c = ws.cast("lp_beta", np.asarray(beta), ct)
    t *= beta_c
    same = ws.array("lp_same", (h,), ct)
    np.sum(t, axis=1, out=same)

    # p = same + (1 - overlap) * delta, then clip to the probability floor.
    np.subtract(1.0, overlap, out=overlap)
    overlap *= ct.type(delta)
    np.add(same, overlap, out=same)
    np.clip(same, _PROB_FLOOR, 1.0 - _PROB_FLOOR, out=same)
    return same


#: theta is (K, 2) and always float64 — nothing to fuse at that size.
_fused_update_theta = _ref_update_theta


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register (or replace) a backend under its name."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> KernelBackend:
    """Look up a backend; raises with the known names on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


def available_backends() -> list[str]:
    return sorted(_REGISTRY)


_FALLBACK_BACKEND = "fused"

_log = logging.getLogger(__name__)


def resolve_backend(name: str, allow_fallback: Optional[bool] = None) -> KernelBackend:
    """Resolve ``name``, failing soft for environment-sourced selections.

    ``allow_fallback=None`` (the engines' default) falls back to
    ``fused`` only when the requested name matches the current
    ``REPRO_KERNEL_BACKEND`` value — i.e. the selection came from the
    environment, where an unknown/unavailable backend (say ``numba`` on
    a host without numba) should degrade with a logged warning rather
    than crash engine construction. An explicit
    ``AMMSBConfig.kernel_backend`` miss still raises the typed
    :class:`ValueError` of :func:`get_backend` with the available names.

    ``allow_fallback=True`` always falls back on a miss (used for names
    read from serialized artifacts built on other hosts);
    ``allow_fallback=False`` is strict, identical to :func:`get_backend`.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if allow_fallback is None:
        allow_fallback = os.environ.get("REPRO_KERNEL_BACKEND") == name
    if allow_fallback and name != _FALLBACK_BACKEND:
        _log.warning(
            "kernel backend %r is not available (known: %s); falling back to %r",
            name, available_backends(), _FALLBACK_BACKEND,
        )
        return _REGISTRY[_FALLBACK_BACKEND]
    return get_backend(name)


register_backend(
    KernelBackend(
        "reference",
        phi_gradient_sum=_ref_phi_gradient_sum,
        update_phi=_ref_update_phi,
        theta_gradient_weighted=_ref_theta_gradient_weighted,
        update_theta=_ref_update_theta,
    )
)
register_backend(
    KernelBackend(
        "fused",
        phi_gradient_sum=_fused_phi_gradient_sum,
        update_phi=_fused_update_phi,
        theta_gradient_weighted=_fused_theta_gradient_weighted,
        update_theta=_fused_update_theta,
        link_probability=_fused_link_probability,
    )
)


def _register_numba_backend() -> bool:
    """Register the JIT backend iff numba imported; see kernels_numba."""
    from repro.core import kernels_numba

    if not kernels_numba.NUMBA_AVAILABLE:
        return False
    register_backend(
        KernelBackend(
            "numba",
            phi_gradient_sum=kernels_numba.phi_gradient_sum,
            update_phi=kernels_numba.update_phi,
            theta_gradient_weighted=kernels_numba.theta_gradient_weighted,
            update_theta=kernels_numba.update_theta,
            link_probability=kernels_numba.link_probability,
            warmup=kernels_numba.warmup,
        )
    )
    return True


_register_numba_backend()
