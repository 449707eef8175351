"""Pluggable kernel backends for the SGRLD hot path.

The per-iteration numerics (Eqns 3-6) are behind a small registry so the
engines can swap implementations without touching orchestration code:

- ``reference`` — the plain vectorized functions of
  :mod:`repro.core.gradients`, unchanged. This is the correctness contract:
  every other backend must match it (see ``tests/test_kernels.py`` for
  how closely, kernel by kernel).
- ``fused`` (default) — in-place ufunc calls into a reusable preallocated
  :class:`KernelWorkspace`, so the temporaries the reference path
  allocates per step disappear. For ``update_phi``,
  ``theta_gradient_weighted``, ``update_theta`` and ``link_probability``
  the float64 arithmetic replays the reference's operations on every
  element (same ufuncs, same association), so results are bit-identical;
  only the allocations and the passes over memory go away. The phi
  gradient, the one kernel with ``(m, n, K)`` operands, is different
  arithmetic: ``f_ab(k)`` is linear in ``pi_b``, so per L2-sized block
  of mini-batch rows it is two batched matrix products over the block's
  neighbor rows — which, handed a *deferred gather*
  (:func:`gather_rows`), it copies out of the ``pi`` table right before
  it consumes them — and no ``f``, ``w`` or other ``(rows, n, K)``
  intermediate exists. That one result equals the reference to rounding
  (oracle-bounded in the tests), not bit for bit; bit for bit it is a
  function of each row's own inputs, whatever call, block, workspace or
  form of ``pi_b`` the row comes in, which is what the engines'
  equivalence classes rest on.

Dtype policy: the compute dtype is the dtype of the ``pi`` inputs. A
float32 state (the paper's 32-bit arrays) therefore runs the entire
``(m, n, K)`` / ``(E, K)`` hot path in float32 — scalars, ``beta``,
noise, and scale factors are cast down once per call into small workspace
buffers instead of silently upcasting the big arrays to float64. The tiny
``(K, 2)`` theta update stays at theta's own (float64) precision.

Backend selection is wired through ``AMMSBConfig.kernel_backend`` and the
``REPRO_KERNEL_BACKEND`` environment variable; every engine resolves its
backend with :func:`resolve_backend` at construction time. Resolution
fails soft when the name arrived through the environment: a warning is
logged and ``fused`` is used, so an unregistered
``REPRO_KERNEL_BACKEND`` degrades instead of raising deep inside engine
init. An explicitly configured miss still raises :class:`ValueError`
with the available names. A name read from a file (a checkpoint's or an
artifact's config) is mapped by :func:`stored_backend_name` when the
config is parsed, with the same warning and fallback, so a file written
where another backend was registered still loads.

Workspace lifecycle: one :class:`KernelWorkspace` per sequential sampler /
distributed worker, one per *thread* in :mod:`repro.parallel`
(kernel buffers are not thread-safe; threads must not share one). The
phi gradient's one big buffer is block-sized (``_PHI_BLOCK_BYTES``),
not mini-batch-sized; everything else is ``(m, K)`` or ``(E, K)``, a
small multiple of it at most.
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
    reference implementation.
    """

    def __init__(
        self,
        name: str,
        phi_gradient_sum: Callable[..., np.ndarray],
        update_phi: Callable[..., np.ndarray],
        theta_gradient_weighted: Callable[..., np.ndarray],
        update_theta: Callable[..., np.ndarray],
        link_probability: Optional[Callable[..., np.ndarray]] = None,
    ) -> None:
        self.name = name
        self.phi_gradient_sum = phi_gradient_sum
        self.update_phi = update_phi
        self.theta_gradient_weighted = theta_gradient_weighted
        self.update_theta = update_theta
        self.link_probability = (
            link_probability if link_probability is not None else _ref_link_probability
        )

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


#: Bytes the fused phi kernel's one ``(rows, n, K)`` buffer may hold. The
#: kernel walks the mini-batch that many rows at a time, so a block's
#: gathered neighbor rows are still in L2 when the two contractions read
#: them (8 rows at n=64, K=128 in float64; 64 at n=32, K=32). Smaller
#: blocks pay the per-block ufunc calls more often, larger ones fall out
#: of L2: ms per call at 64K / 128K / 256K / 512K / 1M / 2M on the
#: reference host (2 MiB of L2 a core; interleaved, best of 40) —
#: (m, n, K) = (512, 64, 128): 12.6 / 9.0 / 6.9 / 6.5 / 7.1 / 8.7;
#: (256, 32, 128): 3.3 / 2.3 / 1.9 / 1.75 / 2.0 / 2.3;
#: (256, 32, 32) from a 25 MB table: 1.1 / 0.80 / 0.63 / 0.66 / 0.72 / 0.71
#: (in a busier hour, with the near-slot check: 15.2 / 11.2 / 9.9 / 9.7 /
#: 9.7 / 12.3, 7.1 / 4.7 / 3.6 / 3.5 / 3.6 / 3.4, 1.44 / 1.02 / 0.82 /
#: 0.88 / 0.80 / 0.92 — the same flat stretch from 256 KiB to 1 MiB).
_PHI_BLOCK_BYTES = 512 * 1024


#: A slot is *near* when ``sum(pi_a) - <pi_a, pi_b>`` is under this share of
#: ``sum(pi_a)``: both rows more than 99 % on one community, so the
#: difference has cancelled. The fused phi kernel computes those slots as
#: the reference does; finding that a block has none is ~4 % of a call.
#: None in 160 iterations of ``train_kernel``, one slot in a million over
#: 1200 of ``train_sampling`` (the ``e2e_bench`` workloads).
_PHI_NEAR = 1.0 / 128.0


def _phi_block_rows(m: int, n: int, k: int, itemsize: int) -> int:
    """Mini-batch rows per block of the fused phi kernel: what fits in
    ``_PHI_BLOCK_BYTES``, at least one, never more than the mini-batch."""
    return max(1, min(m, _PHI_BLOCK_BYTES // max(1, n * k * itemsize)))


def _fused_phi_gradient_sum(
    pi_a, phi_sum_a, pi_b, y, beta, delta, mask=None, workspace=None
):
    """Eqn 6 as two batched contractions per L2-sized block of rows.

    ``f_ab(k) = pi_ak * (D_ab + (B_abk - D_ab) * pi_bk)`` is linear in
    ``pi_b``, so neither ``f`` nor ``w = f / Z`` is ever formed. Per block
    of mini-batch rows, after the neighbor rows are taken from the table
    into the workspace (a deferred ``pi_b``, see :func:`gather_rows`):

    1. ``q @ rows_b^T`` with ``q = [pi_a * (1 - beta), pi_a, pi_a * beta]``
       gives the three overlaps of every slot, and from them
       ``Z(y=0) = <pi_a (1 - beta), pi_b> + (1 - delta) (sum(pi_a) - <pi_a, pi_b>)``
       and ``Z(y=1) = <pi_a beta, pi_b> + delta (sum(pi_a) - <pi_a, pi_b>)``
       in a few ``(rows, n)`` ufuncs. A link slot's ``Z`` comes from its
       own row of ``q``, never from the difference of the other two, which
       cancels when ``beta`` is small. ``Z`` is floored as in the
       reference; a masked slot gets ``Z = inf``, hence weight 0.
    2. ``w @ rows_b`` with ``w = [1/Z on non-link slots, 1/Z on link
       slots]`` gives ``g_c = sum_b w_c pi_b``; with ``c = sum_b w_c``,
       ``sum_b f_ab(k)/Z_ab = pi_ak * ((1 - beta_k) g0 + (1 - delta)
       (c0 - g0) + beta_k g1 + delta (c1 - g1))``.

    The block's rows are read twice and nothing else ``(rows, n, K)``-sized
    exists. Each mini-batch row is its own pair of GEMMs over operands of
    one layout (``q`` and ``w`` in the workspace, the block C-contiguous:
    gathered rows that arrive as a strided view are copied into the block
    buffer first), so a row's value does not depend on the rows it shares
    a call or a block with, nor on the form ``pi_b`` arrived in.

    It equals the reference to rounding, not bit for bit: the association
    differs. One difference would cost more than rounding. ``sum(pi_a) -
    <pi_a, pi_b>``, and ``c - g`` after it, cancel where the reference's
    ``sum_k pi_ak (1 - pi_bk)`` does not: when both rows sit on one
    community. If that community's ``beta`` is against an end of (0, 1),
    nothing else in ``Z`` covers the loss (``ulp * D sum(pi_a) / Z``: 1e-7
    with ``beta`` 1e-9 from 1). So a *near* slot, one whose difference is
    under ``_PHI_NEAR`` of ``sum(pi_a)``, leaves both contractions (weight
    0): its ``f / Z`` is written out as the reference writes it and added
    to its row. Every other slot has ``Z >= D sum(pi_a) / 128``, which
    bounds what it can lose at 128 roundings; ``tests/test_kernels.py``
    holds the kernel to 1e-12 of an extended-precision oracle.
    """
    ws = workspace if workspace is not None else KernelWorkspace()
    pi_a = np.asarray(pi_a)
    y = np.asarray(y)
    table, index = _split_rows(pi_b)
    ct = _compute_dtype(pi_a, table)
    (m, n), k = y.shape, pi_a.shape[1]
    eps = _z_floor(ct)
    rows = _phi_block_rows(m, n, k, ct.itemsize)

    beta_c = ws.cast("phi_beta", np.asarray(beta), ct)
    one_minus_beta = ws.array("phi_omb", beta_c.shape, ct)
    np.subtract(1.0, beta_c, out=one_minus_beta)
    d_link, d_nonlink = ct.type(delta), ct.type(1.0 - delta)
    link_row, link_col = np.nonzero(y)  # row-major, so sorted by row
    link_from = np.searchsorted(link_row, np.arange(0, m + rows, rows))
    if mask is not None:
        hidden = ws.array("phi_hidden", (m, n), bool)
        np.logical_not(mask, out=hidden)

    # q's middle row is also the one copy of pi_a that sum(pi_a) is taken
    # from: the reduction sees one layout whatever pi_a's strides were.
    q = ws.array("phi_q", (m, 3, k), ct)
    np.multiply(pi_a, one_minus_beta, out=q[:, 0])
    np.copyto(q[:, 1], pi_a, casting="same_kind")
    np.multiply(pi_a, beta_c, out=q[:, 2])
    sum_a = ws.array("phi_suma", (m, 1), ct)
    np.add.reduce(q[:, 1], axis=-1, keepdims=True, out=sum_a)
    near_below = ws.array("phi_near_below", (m, 1), ct)
    np.multiply(sum_a, _PHI_NEAR, out=near_below)

    o_buf = ws.array("phi_o", (rows, 3, n), ct)
    t_buf = ws.array("phi_t", (rows, n), ct)
    z_buf = ws.array("phi_z", (rows, n), ct)
    w_buf = ws.array("phi_w", (rows, 2, n), ct)
    c = ws.array("phi_c", (m, 2, 1), ct)
    g = ws.array("phi_g", (m, 2, k), ct)
    near_buf = ws.array("phi_near", (rows, n), bool)
    near_terms = []  # (rows, f / Z) of the near slots, block by block
    # Both contractions read one layout, a C-contiguous (rows, n, K) block,
    # whatever form pi_b arrived in: gathered rows that are a strided view
    # (the pi columns of [pi | phi_sum] rows) are copied into the block
    # buffer. np.take gathers from C-contiguous memory only: it would
    # first copy any other table whole, so those are indexed, which
    # allocates the block instead.
    block_buf = None
    if table.flags.c_contiguous != (index is None):
        block_buf = ws.array("phi_rows", (rows, n, k), table.dtype)
    for block, a in enumerate(range(0, m, rows)):
        b = min(a + rows, m)
        if index is None:
            rows_b = table[a:b]
            if block_buf is not None:
                np.copyto(block_buf[: b - a], rows_b)
                rows_b = block_buf[: b - a]
        elif block_buf is None:
            rows_b = table[index[a:b]]
        else:
            rows_b = np.take(
                table, index[a:b], axis=0, out=block_buf[: b - a], mode="clip"
            )
        o, t, z, w = o_buf[: b - a], t_buf[: b - a], z_buf[: b - a], w_buf[: b - a]

        np.matmul(q[a:b], rows_b.transpose(0, 2, 1), out=o)
        np.subtract(sum_a[a:b], o[:, 1], out=t)  # sum_k pi_ak (1 - pi_bk)
        np.multiply(t, d_nonlink, out=z)
        z += o[:, 0]
        lo, hi = link_from[block], link_from[block + 1]
        at = (link_row[lo:hi] - a, link_col[lo:hi])
        if lo < hi:
            z[at] = o[:, 2][at] + t[at] * d_link
        np.maximum(z, eps, out=z)
        if mask is not None:
            np.copyto(z, np.inf, where=hidden[a:b])
        near = np.less(t, near_below[a:b], out=near_buf[: b - a])
        if near.any():
            # Slots whose t cancelled: f / Z as the reference writes it,
            # added to the row after the contractions (weight 0 in them).
            if mask is not None:
                np.logical_and(near, mask[a:b], out=near)
            row, col = np.nonzero(near)
            f = rows_b[row, col].astype(ct, copy=False)
            linked = y[a + row, col] != 0
            big_b = np.where(linked[:, None], beta_c, one_minus_beta)
            big_d = np.where(linked, d_link, d_nonlink)[:, None]
            f = q[a + row, 1] * (f * big_b + (1.0 - f) * big_d)
            f /= np.maximum(f.sum(axis=-1, keepdims=True), eps)
            near_terms.append((a + row, f))
            z[row, col] = np.inf
        np.divide(1.0, z, out=w[:, 0])
        w[:, 1] = 0.0
        if lo < hi:
            w[:, 1][at] = w[:, 0][at]
            w[:, 0][at] = 0.0
        np.add.reduce(w, axis=-1, keepdims=True, out=c[a:b])
        np.matmul(w, rows_b, out=g[a:b])

    # s = pi_a * ((1-beta) g0 + (1-delta)(c0 - g0) + beta g1 + delta (c1 - g1))
    s = ws.array("phi_s", (m, k), ct)
    u = ws.array("phi_u", (m, k), ct)
    np.multiply(g[:, 0], one_minus_beta, out=s)
    np.subtract(c[:, 0], g[:, 0], out=u)
    u *= d_nonlink
    s += u
    np.multiply(g[:, 1], beta_c, out=u)
    s += u
    np.subtract(c[:, 1], g[:, 1], out=u)
    u *= d_link
    s += u
    s *= pi_a
    for near_rows, f in near_terms:  # slot by slot, in slot order
        np.add.at(s, near_rows, f)

    n_eff = ws.array("phi_neff", (m, 1), ct)
    if mask is not None:
        n_eff_i = ws.array("phi_neff_i", (m, 1), np.int64)
        np.sum(mask, axis=1, keepdims=True, out=n_eff_i)
        np.divide(n_eff_i, phi_sum_a[:, None], out=n_eff, casting="same_kind")
    else:
        n_eff.fill(float(n))
        n_eff /= phi_sum_a[:, None]

    np.multiply(pi_a, phi_sum_a[:, None], out=u)  # phi_a
    np.maximum(u, eps, out=u)
    s /= u
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


def _fall_back(name: str) -> KernelBackend:
    _log.warning(
        "kernel backend %r is not available (known: %s); falling back to %r",
        name, available_backends(), _FALLBACK_BACKEND,
    )
    return _REGISTRY[_FALLBACK_BACKEND]


def resolve_backend(name: str) -> KernelBackend:
    """Resolve ``name``, failing soft for an environment-sourced selection.

    A miss whose name matches the current ``REPRO_KERNEL_BACKEND`` value
    came from the environment, where an unregistered backend degrades to
    ``fused`` with a logged warning rather than crash engine
    construction. An explicit ``AMMSBConfig.kernel_backend`` miss still
    raises the typed :class:`ValueError` of :func:`get_backend` with the
    available names.
    """
    if name not in _REGISTRY and os.environ.get("REPRO_KERNEL_BACKEND") == name:
        return _fall_back(name)
    return get_backend(name)


def stored_backend_name(name: str) -> str:
    """The backend this host runs for a name read from a file: ``name``
    when it is registered, else ``fused`` with the logged warning."""
    return name if name in _REGISTRY else _fall_back(name).name


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

