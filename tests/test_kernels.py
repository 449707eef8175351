"""Kernel backend equivalence suite (tentpole contract).

In float64 the ``fused`` backend must match ``reference`` bit-for-bit on
four kernels (it replays the same ufunc operation order, just into
preallocated buffers). The fifth, the phi gradient, is two batched
contractions per block and equals the reference to rounding only, so it
is held to two other things: bitwise *invariance* with itself (a row's
value depends on that row's inputs alone, not on the call, the block,
the workspace or the form its neighbor rows arrive in), and an error
bound against a ``np.longdouble`` oracle that ``reference`` is held to
as well. In float32 fused stays in float32 and tracks the float64
reference to tolerance. Shapes are randomized with hypothesis; a reused
workspace must never leak state between calls.
"""

from __future__ import annotations

import contextlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gradients, kernels
from tests.oracles import brute_force_z

REF = kernels.get_backend("reference")
FUSED = kernels.get_backend("fused")


def _phi_case(rng, m, n, k, dtype=np.float64, masked=True):
    pi_a = rng.dirichlet(np.ones(k), size=m).astype(dtype)
    phi_sum = (rng.gamma(5.0, 1.0, size=m) + 1.0).astype(dtype)
    pi_b = rng.dirichlet(np.ones(k), size=(m, n)).astype(dtype)
    y = rng.random((m, n)) < 0.2
    beta = rng.uniform(0.05, 0.95, k)
    mask = (rng.random((m, n)) < 0.9) if masked else None
    return pi_a, phi_sum, pi_b, y, beta, mask


def _one_hot(rng, shape, k, floor, hot=None):
    """Rows with all their mass on one community (``hot``, else one drawn
    per row) and ``floor`` on the others — what ``phi`` clipped at
    ``phi_floor`` normalises to."""
    hot = rng.integers(0, k, size=shape) if hot is None else np.full(shape, hot)
    rows = np.full(shape + (k,), floor)
    np.put_along_axis(rows, hot[..., None], 1.0, axis=-1)
    return rows / rows.sum(axis=-1, keepdims=True)


def _peaked(rng, shape, k):
    """Rows with 1e-12 to 1e-2 of their mass off one community each. A
    pair on one community is a *near* slot (``kernels._PHI_NEAR``) when
    the two rows have under 1/128 off it between them, and just not near
    with 3e-3 + 5e-3; most pairs are on two communities."""
    floor = rng.choice([1e-12, 1e-4, 3e-3, 5e-3, 1e-2], size=shape + (1,)) / max(k - 1, 1)
    return _one_hot(rng, shape, k, floor)


def _theta_case(rng, e, k, dtype=np.float64):
    pi_a = rng.dirichlet(np.ones(k), size=e).astype(dtype)
    pi_b = rng.dirichlet(np.ones(k), size=e).astype(dtype)
    y = (rng.random(e) < 0.5).astype(np.int64)
    theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
    weights = rng.uniform(0.5, 40.0, size=e)
    return pi_a, pi_b, y, theta, weights


LONG = np.longdouble
#: One unit roundoff of the dtype the oracle has to out-resolve.
ULP = float(np.finfo(np.float64).eps) / 2
needs_extended_longdouble = pytest.mark.skipif(
    np.finfo(LONG).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)


def _oracle_phi_gradient(pi_a, phi_sum, pi_b, y, beta, delta, mask=None):
    """Eqn 6 written out slot by slot in ``np.longdouble``.

    Shares nothing with ``repro.core``: ``f_ab(k) = pi_ak (pi_bk B_k +
    (1 - pi_bk) D)``, ``Z_ab = sum_k f_ab(k)`` (floored as the kernels
    floor it), gradient ``sum_b f_ab(k) / Z_ab / phi_ak - n / phi_sum_a``
    over the shown slots. Returns the gradient and the magnitude
    ``|first term| + second term`` its error is judged against.
    """
    pi_a, phi_sum, pi_b, beta = (
        np.asarray(x, dtype=np.float64).astype(LONG) for x in (pi_a, phi_sum, pi_b, beta)
    )
    delta = LONG(delta)
    m, n = np.shape(y)
    shown = np.ones((m, n), bool) if mask is None else np.asarray(mask, bool)
    first = np.zeros(pi_a.shape, LONG)
    for a in range(m):
        for b in range(n):
            if not shown[a, b]:
                continue
            big_b, big_d = (beta, delta) if y[a, b] else (1 - beta, 1 - delta)
            f = pi_a[a] * (pi_b[a, b] * big_b + (1 - pi_b[a, b]) * big_d)
            z = max(f.sum(), LONG(gradients.EPS))
            first[a] += f / z
    first /= np.maximum(pi_a * phi_sum[:, None], LONG(gradients.EPS))
    second = shown.sum(axis=1, keepdims=True) / phi_sum[:, None]
    return first - second, np.abs(first) + second


def _oracle_errors(case, delta):
    """``reference``'s and ``fused``'s largest error on ``case`` =
    ``(pi_a, phi_sum, pi_b, y, beta, mask)``, relative to the oracle's
    magnitude."""
    pi_a, phi_sum, pi_b, y, beta, mask = case
    want, magnitude = _oracle_phi_gradient(pi_a, phi_sum, pi_b, y, beta, delta, mask)
    magnitude = np.where(magnitude == 0, 1, magnitude)
    errors = []
    for backend in (REF, FUSED):
        got = backend.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, delta, mask=mask)
        error = np.abs(np.asarray(got).astype(LONG) - want) / magnitude
        errors.append(float(error.max(initial=0.0)))
    return errors


def _assert_same_bits(got, want):
    """Equal including the sign of zeros and the position of NaNs."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestFloat64BitExact:
    """float64, exactly and not just closely: four fused kernels equal the
    reference, and the fused phi gradient of a row equals itself whatever
    call the row is in."""

    @given(
        m=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        masked=st.booleans(),
        strided=st.booleans(),
        peaked=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_phi_gradient(self, m, n, k, seed, masked, strided, peaked):
        """Shard versus whole: the rows of a mini-batch, computed in one
        call or split at any row between two workers' calls (each with
        its own workspace, or one reused), are the same bits — what keeps
        sequential, threaded, distributed and mp engines bit-exact among
        themselves. ``pi_a`` may be a strided view (the ``pi`` columns of
        gathered ``[pi | phi_sum]`` rows); ``peaked`` rows put near slots
        next to contracted ones. And the whole is the reference's result
        to rounding, oracle or no oracle."""
        rng = np.random.default_rng(seed)
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, m, n, k, masked=masked)
        if peaked:
            pi_a, pi_b = _peaked(rng, (m,), k), _peaked(rng, (m, n), k)
        if strided:
            pi_a = np.concatenate([pi_a, phi_sum[:, None]], axis=1)[:, :-1]

        def rows(lo, hi, ws):
            shown = None if mask is None else mask[lo:hi]
            return np.array(
                FUSED.phi_gradient_sum(
                    pi_a[lo:hi], phi_sum[lo:hi], pi_b[lo:hi], y[lo:hi], beta, 1e-4,
                    mask=shown, workspace=ws,
                )
            )

        whole = rows(0, m, kernels.KernelWorkspace())
        cut = int(rng.integers(0, m + 1))
        reused = kernels.KernelWorkspace()
        for ws_lo, ws_hi in [(kernels.KernelWorkspace(), kernels.KernelWorkspace()), (reused,) * 2]:
            _assert_same_bits(np.concatenate([rows(0, cut, ws_lo), rows(cut, m, ws_hi)]), whole)
        for a in rng.integers(0, m, size=min(m, 3)):  # a row alone
            _assert_same_bits(rows(a, a + 1, reused), whole[a : a + 1])
        ref = REF.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask)
        np.testing.assert_allclose(whole, ref, rtol=1e-12, atol=1e-12)

    @given(
        m=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        array_scale=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_phi(self, m, k, seed, array_scale):
        rng = np.random.default_rng(seed)
        phi = rng.gamma(2.0, 1.0, size=(m, k)) + 1e-3
        grad = rng.standard_normal((m, k)) * 10.0
        noise = rng.standard_normal((m, k))
        scale = rng.uniform(1.0, 500.0, size=(m, 1)) if array_scale else 250.0
        ws = kernels.KernelWorkspace()
        ref = REF.update_phi(phi, grad, 0.01, 0.1, scale, noise)
        got = FUSED.update_phi(phi, grad, 0.01, 0.1, scale, noise, workspace=ws)
        np.testing.assert_array_equal(np.asarray(got), ref)

    @given(
        e=st.integers(min_value=1, max_value=200),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        weighted=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_theta_gradient(self, e, k, seed, weighted):
        rng = np.random.default_rng(seed)
        pi_a, pi_b, y, theta, weights = _theta_case(rng, e, k)
        if not weighted:
            weights = None
        ws = kernels.KernelWorkspace()
        ref = REF.theta_gradient_weighted(pi_a, pi_b, y, theta, 1e-4, weights=weights)
        got = FUSED.theta_gradient_weighted(
            pi_a, pi_b, y, theta, 1e-4, weights=weights, workspace=ws
        )
        np.testing.assert_array_equal(np.asarray(got), ref)

    def test_update_theta_same_function(self):
        """theta is (K, 2); fused delegates to the reference update."""
        rng = np.random.default_rng(0)
        theta = rng.gamma(3.0, 1.0, size=(16, 2)) + 0.5
        grad = rng.standard_normal((16, 2))
        noise = rng.standard_normal((16, 2))
        ref = REF.update_theta(theta, grad, 0.01, (1.0, 1.0), 5.0, noise)
        got = FUSED.update_theta(theta, grad, 0.01, (1.0, 1.0), 5.0, noise)
        np.testing.assert_array_equal(got, ref)


def _gather_case(rng, n_rows, m, n, k, dtype=np.float64, link=0.2, shown=0.9, peaked=False):
    """A phi case whose neighbor rows live in a ``pi`` table: the deferred
    gather ``(pi, index)`` and the rows it stands for."""
    rows_of = _peaked if peaked else lambda rng, shape, k: rng.dirichlet(np.ones(k), size=shape)
    pi = rows_of(rng, (n_rows,), k).astype(dtype)
    index = rng.integers(0, n_rows, size=(m, n))
    pi_a = rows_of(rng, (m,), k).astype(dtype)
    phi_sum = (rng.gamma(5.0, 1.0, size=m) + 1.0).astype(dtype)
    y = rng.random((m, n)) < link
    beta = rng.uniform(0.05, 0.95, k)
    mask = None if shown is None else rng.random((m, n)) < shown
    return pi, index, pi_a, phi_sum, y, beta, mask


@contextlib.contextmanager
def _blocks_of(rows: int, row_bytes: int):
    """The phi kernel's block budget set to ``rows`` mini-batch rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_PHI_BLOCK_BYTES", rows * row_bytes)
        yield


class TestDeferredGather:
    """The blocked phi kernel: a deferred ``(table, index)`` gather and
    the pre-gathered rows are one function of their inputs, bit for bit,
    wherever the table lives and wherever the block boundaries fall."""

    @given(
        n_rows=st.integers(min_value=1, max_value=50),
        m=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        link=st.sampled_from([0.0, 0.03, 0.5, 1.0]),  # no-link .. all-link rows
        shown=st.sampled_from([None, 0.0, 0.5, 0.9, 1.0]),  # mask=None .. all hidden
        block_rows=st.sampled_from([1, 3, 7, 10_000]),  # one-row block .. one block
        peaked=st.booleans(),  # near slots among the contracted ones
    )
    @settings(max_examples=120, deadline=None)
    def test_float64_bit_exact(self, n_rows, m, n, k, seed, link, shown, block_rows, peaked):
        rng = np.random.default_rng(seed)
        pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(
            rng, n_rows, m, n, k, link=link, shown=shown, peaked=peaked
        )
        if mask is not None and m:
            mask[rng.integers(m)] = False  # a fully masked row
        table = np.concatenate([pi, np.ones((n_rows, 1))], axis=1)
        # deferred; deferred with pi a non-contiguous column view; gathered;
        # gathered [pi | phi_sum] rows seen through their pi columns (row
        # stride K + 1: what the DKV store of repro.dist hands over)
        forms = [(pi, index), (table[:, :-1], index), pi[index], table[index][..., :-1]]

        def fused(pi_b):
            return np.array(
                FUSED.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask,
                    workspace=kernels.KernelWorkspace(),
                )
            )

        one_block = fused(pi[index])
        with _blocks_of(block_rows, n * k * 8):
            for pi_b in forms:
                _assert_same_bits(fused(pi_b), one_block)
        _assert_same_bits(
            REF.phi_gradient_sum(pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask),
            REF.phi_gradient_sum(pi_a, phi_sum, pi[index], y, beta, 1e-4, mask=mask),
        )

    @given(
        m=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
        block_rows=st.sampled_from([1, 5, 10_000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_float32_tolerance(self, m, n, k, seed, block_rows):
        rng = np.random.default_rng(seed)
        pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(
            rng, 30, m, n, k, dtype=np.float32
        )
        ws = kernels.KernelWorkspace()
        with _blocks_of(block_rows, n * k * 4):
            got = FUSED.phi_gradient_sum(
                pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask, workspace=ws
            )
        assert np.asarray(got).dtype == np.float32
        assert all(buf.dtype != np.float64 for buf in ws.buffers().values())
        # float32 too is one function of its inputs, whatever their form ...
        gathered = FUSED.phi_gradient_sum(pi_a, phi_sum, pi[index], y, beta, 1e-4, mask=mask)
        np.testing.assert_array_equal(np.array(got), gathered)
        # ... and tracks the float64 reference as TestFloat32Tolerance asks.
        ref = REF.phi_gradient_sum(
            pi_a.astype(np.float64), phi_sum.astype(np.float64),
            pi.astype(np.float64)[index], y, beta, 1e-4, mask=mask,
        )
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got, dtype=np.float64) / scale, ref / scale, rtol=0, atol=5e-5
        )

    def test_block_rows_follow_the_shapes(self):
        """512 KiB for the one ``(rows, n, K)`` buffer, the gathered rows:
        8 rows at n=64, K=128; a last short block when m is no multiple of
        that; never more rows than the mini-batch. Nothing else in the
        workspace is that big."""
        rng = np.random.default_rng(3)
        for m, n, k, rows in [(20, 64, 128, 8), (3, 64, 128, 3), (80, 32, 32, 64)]:
            pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(rng, 200, m, n, k)
            ws = kernels.KernelWorkspace()
            got = np.array(
                FUSED.phi_gradient_sum(
                    pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask, workspace=ws
                )
            )
            sizes = {name: buf.size for name, buf in ws.buffers().items()}
            assert sizes.pop("phi_rows") == rows * n * k
            assert max(sizes.values()) <= 3 * m * k
            with _blocks_of(10_000, n * k * 8):
                _assert_same_bits(
                    got, FUSED.phi_gradient_sum(pi_a, phi_sum, pi[index], y, beta, 1e-4, mask=mask)
                )

    def test_float64_rows_over_a_float32_table(self):
        """Mixed inputs compute in float64, deferred or gathered alike."""
        rng = np.random.default_rng(6)
        pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(rng, 50, 9, 5, 12)
        pi32 = pi.astype(np.float32)
        with _blocks_of(4, 5 * 12 * 8):
            got = np.array(
                FUSED.phi_gradient_sum(pi_a, phi_sum, (pi32, index), y, beta, 1e-4, mask=mask)
            )
        assert got.dtype == np.float64
        _assert_same_bits(
            got, FUSED.phi_gradient_sum(pi_a, phi_sum, pi32[index], y, beta, 1e-4, mask=mask)
        )
        ref = REF.phi_gradient_sum(
            pi_a, phi_sum, pi32.astype(np.float64)[index], y, beta, 1e-4, mask=mask
        )
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_memmap_backed_table(self, tmp_path):
        rng = np.random.default_rng(4)
        pi, index, pi_a, phi_sum, y, beta, mask = _gather_case(rng, 300, 20, 64, 128)
        np.save(tmp_path / "pi.npy", pi)
        mapped = np.load(tmp_path / "pi.npy", mmap_mode="r")
        assert isinstance(mapped, np.memmap)
        got = np.array(
            FUSED.phi_gradient_sum(pi_a, phi_sum, (mapped, index), y, beta, 1e-4, mask=mask)
        )
        _assert_same_bits(
            got, FUSED.phi_gradient_sum(pi_a, phi_sum, (pi, index), y, beta, 1e-4, mask=mask)
        )


def _adversarial(name):
    """One member of the family the contracted kernel is judged on:
    ``(pi_a, phi_sum, pi_b, y, beta, mask), delta``."""
    rng = np.random.default_rng(17)
    m, n, k, delta = 11, 6, 9, 1e-4  # 11 rows: not a multiple of the 4-row block
    if name == "n = 1":
        n = 1
    if name == "K = 1":
        k = 1
    pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, m, n, k)
    if name == "beta -> 1 - 1e-9":
        beta = np.full(k, 1.0 - 1e-9)
    elif name == "beta = 1e-9":
        beta = np.full(k, 1e-9)
    elif name == "beta = 1e-9, delta = 1e-7":
        beta, delta = np.full(k, 1e-9), 1e-7
    elif name.startswith("one-hot pi at phi_floor"):
        # beta = 1e-6, delta = 1e-7, half the slots links: the link slots'
        # Z is ~1e-6 of sum(pi_a), all of it <pi_a beta, pi_b>.
        hot = 3 if name.endswith("one community") else None
        pi_a = _one_hot(rng, (m,), k, 1e-12, hot)
        pi_b = _one_hot(rng, (m, n), k, 1e-12, hot)
        y = rng.random((m, n)) < 0.5
        beta, delta = np.full(k, 1e-6), 1e-7
    elif name.startswith("rows on one community"):
        # <pi_a, pi_b> is all of sum(pi_a) and Z a 1e-9th (or, on the link
        # slots of the second, delta / beta = 1e5 times less) of it: every
        # slot is near.
        pi_a, pi_b = _one_hot(rng, (m,), k, 1e-12, 3), _one_hot(rng, (m, n), k, 1e-12, 3)
        y = rng.random((m, n)) < 0.5
        beta = np.full(k, 1e-9 if name.endswith("beta = 1e-9") else 1.0 - 1e-9)
    elif name == "all-link rows":
        y[::2] = True
    elif name == "all-masked rows":
        mask[::3] = False
    elif name == "no mask":
        mask = None
    return (pi_a, phi_sum, pi_b, y, beta, mask), delta


class TestPhiGradientOracle:
    """Accuracy of the phi gradient, judged against Eqn 6 in
    ``np.longdouble``: error relative to ``|s / phi_a| + n_eff / phi_sum``,
    largest over the mini-batch. ``reference`` is held to the oracle too —
    it is the contract, not the truth."""

    @needs_extended_longdouble
    @given(
        m=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=16),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        masked=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sampler_regime(self, m, n, k, seed, masked):
        """Dirichlet rows, beta in (0.05, 0.95): fused is within 4x the
        reference's own error (both sit at a few ulp)."""
        rng = np.random.default_rng(seed)
        case = _phi_case(rng, m, n, k, masked=masked)
        ref_error, fused_error = _oracle_errors(case, 1e-4)
        assert ref_error <= 64 * ULP
        assert fused_error <= max(4 * ref_error, 8 * ULP)

    @needs_extended_longdouble
    @pytest.mark.parametrize(
        "name",
        [
            "beta -> 1 - 1e-9",
            "beta = 1e-9",
            "beta = 1e-9, delta = 1e-7",
            "one-hot pi at phi_floor",
            "one-hot pi at phi_floor, one community",
            "rows on one community, beta -> 1 - 1e-9",
            "rows on one community, beta = 1e-9",
            "all-link rows",
            "all-masked rows",
            "no mask",
            "n = 1",
            "K = 1",
        ],
    )
    def test_adversarial_family(self, name):
        """<= 1e-12 on every member, in one block and in 4-row blocks
        (11 rows: the last block is short)."""
        case, delta = _adversarial(name)
        pi_a, phi_sum, pi_b, y, beta, mask = case
        for block_rows in (4, 10_000):
            with _blocks_of(block_rows, pi_b[0].nbytes):
                ref_error, fused_error = _oracle_errors(case, delta)
            assert ref_error <= 1e-12
            assert fused_error <= 1e-12
        if name == "all-masked rows":  # the gradient is exactly 0 - 0
            got = FUSED.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, delta, mask=mask)
            _assert_same_bits(got[::3], np.zeros_like(got[::3]))

    @needs_extended_longdouble
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        log_gap=st.floats(min_value=1.0, max_value=12.0),
        near_one=st.booleans(),
        link=st.sampled_from([0.0, 0.5, 1.0]),
        one_community=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_peaked_rows_with_beta_at_an_end(self, seed, log_gap, near_one, link, one_community):
        """The corner where contracting alone would lose digits: both rows
        of a slot on one community, that community's ``beta`` against an
        end of (0, 1). ``sum(pi_a) - <pi_a, pi_b>`` cancels there, ``Z`` is
        a 1e-9th of ``sum(pi_a)`` and the contracted error would be 1e-7.
        Near slots are computed as the reference computes them, slots just
        short of near have ``Z >= D sum(pi_a) / 128``: 1e-12 holds, with
        everything on one community or spread over all."""
        rng = np.random.default_rng(seed)
        m, n, k = 5, 4, 6
        _, phi_sum, _, _, _, mask = _phi_case(rng, m, n, k)
        if one_community:
            pi_a, pi_b = _one_hot(rng, (m,), k, 1e-12, 2), _one_hot(rng, (m, n), k, 1e-12, 2)
        else:
            pi_a, pi_b = _peaked(rng, (m,), k), _peaked(rng, (m, n), k)
        gap = 10.0**-log_gap
        beta = np.full(k, 1.0 - gap if near_one else gap)
        case = (pi_a, phi_sum, pi_b, rng.random((m, n)) < link, beta, mask)
        ref_error, fused_error = _oracle_errors(case, 1e-4)
        assert ref_error <= 64 * ULP
        assert fused_error <= 1e-12

    @given(
        k=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_contracted_z_equals_brute_force(self, k, n, seed):
        """The ``Z_ab`` the kernel divides by, read back from its
        workspace, is the O(K^2) double sum over community pairs. A near
        slot has no contracted ``Z``: it reads ``inf`` (weight 0 in both
        contractions), and must be near (every slot is at ``K = 1``)."""
        rng = np.random.default_rng(seed)
        pi_a, phi_sum, pi_b, y, beta, _ = _phi_case(rng, 3, n, k, masked=False)
        ws = kernels.KernelWorkspace()
        FUSED.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-3, workspace=ws)
        z = ws.buffers()["phi_z"][: 3 * n].reshape(3, n)
        for a in range(3):
            for b in range(n):
                if np.isinf(z[a, b]):
                    apart = pi_a[a] @ (1 - pi_b[a, b])
                    assert apart < 1.01 * kernels._PHI_NEAR * pi_a[a].sum()
                    continue
                brute = brute_force_z(pi_a[a], pi_b[a, b], int(y[a, b]), beta, 1e-3)
                assert z[a, b] == pytest.approx(brute, rel=1e-12)


class TestFloat32Tolerance:
    """float32 inputs: fused stays in float32 and tracks the float64
    reference to single-precision tolerance."""

    @given(
        m=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_phi_gradient(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(
            rng, m, n, k, dtype=np.float32
        )
        ws = kernels.KernelWorkspace()
        got = FUSED.phi_gradient_sum(
            pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
        )
        assert np.asarray(got).dtype == np.float32
        ref = REF.phi_gradient_sum(
            pi_a.astype(np.float64),
            phi_sum.astype(np.float64),
            pi_b.astype(np.float64),
            y, beta, 1e-4, mask=mask,
        )
        # Relative to the gradient magnitude: entries mix 1/phi terms of
        # very different scales, so compare against the row norm.
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got, dtype=np.float64) / scale, ref / scale,
            rtol=0, atol=5e-5,
        )

    @given(
        e=st.integers(min_value=1, max_value=100),
        k=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_theta_gradient(self, e, k, seed):
        rng = np.random.default_rng(seed)
        pi_a, pi_b, y, theta, weights = _theta_case(rng, e, k, dtype=np.float32)
        ws = kernels.KernelWorkspace()
        got = FUSED.theta_gradient_weighted(
            pi_a, pi_b, y, theta, 1e-4, weights=weights, workspace=ws
        )
        # theta itself is float64, so the gradient stays float64.
        assert np.asarray(got).dtype == np.float64
        ref = REF.theta_gradient_weighted(
            pi_a.astype(np.float64), pi_b.astype(np.float64), y, theta, 1e-4,
            weights=weights,
        )
        scale = np.maximum(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(
            np.asarray(got) / scale, ref / scale, rtol=0, atol=2e-3
        )


class TestWorkspaceReuse:
    """One workspace across many different calls must never leak state."""

    def test_shrinking_and_growing_shapes(self):
        rng = np.random.default_rng(7)
        ws = kernels.KernelWorkspace()
        for m, n, k in [(8, 4, 16), (20, 10, 32), (3, 2, 5), (20, 10, 32), (1, 1, 1)]:
            pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, m, n, k)
            fresh = kernels.KernelWorkspace()
            reused = np.array(
                FUSED.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
                )
            )
            clean = np.array(
                FUSED.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=fresh
                )
            )
            np.testing.assert_array_equal(reused, clean)

    def test_interleaved_kernels_share_workspace(self):
        rng = np.random.default_rng(8)
        ws = kernels.KernelWorkspace()
        for _ in range(3):
            pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, 12, 6, 24)
            t_pi_a, t_pi_b, t_y, theta, weights = _theta_case(rng, 50, 24)
            got_phi = np.array(
                FUSED.phi_gradient_sum(
                    pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws
                )
            )
            got_theta = np.array(
                FUSED.theta_gradient_weighted(
                    t_pi_a, t_pi_b, t_y, theta, 1e-4, weights=weights, workspace=ws
                )
            )
            # fresh versus reused (and theta-trodden) workspace: same bits
            _assert_same_bits(
                got_phi,
                FUSED.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask),
            )
            np.testing.assert_array_equal(
                got_theta,
                REF.theta_gradient_weighted(
                    t_pi_a, t_pi_b, t_y, theta, 1e-4, weights=weights
                ),
            )

    def test_dtype_switch_reallocates(self):
        rng = np.random.default_rng(9)
        ws = kernels.KernelWorkspace()
        pi_a, phi_sum, pi_b, y, beta, mask = _phi_case(rng, 6, 4, 8)
        FUSED.phi_gradient_sum(pi_a, phi_sum, pi_b, y, beta, 1e-4, mask=mask, workspace=ws)
        pi_a32, phi_sum32, pi_b32 = (
            pi_a.astype(np.float32), phi_sum.astype(np.float32),
            pi_b.astype(np.float32),
        )
        got = FUSED.phi_gradient_sum(
            pi_a32, phi_sum32, pi_b32, y, beta, 1e-4, mask=mask, workspace=ws
        )
        assert np.asarray(got).dtype == np.float32

    def test_workspace_buffers_grow_never_shrink(self):
        ws = kernels.KernelWorkspace()
        a = ws.array("x", (10,), np.float64)
        assert a.shape == (10,)
        b = ws.array("x", (4,), np.float64)
        assert b.shape == (4,)
        # capacity stayed at 10 elements
        assert ws.buffers()["x"].size == 10
        c = ws.array("x", (32,), np.float64)
        assert c.shape == (32,)
        assert ws.buffers()["x"].size == 32


class TestRegistry:
    def test_available(self):
        names = kernels.available_backends()
        assert "reference" in names and "fused" in names

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("does-not-exist")

    def test_register_custom_backend(self):
        ref = kernels.get_backend("reference")
        custom = kernels.KernelBackend(
            "custom-test",
            phi_gradient_sum=ref.phi_gradient_sum,
            update_phi=ref.update_phi,
            theta_gradient_weighted=ref.theta_gradient_weighted,
            update_theta=ref.update_theta,
        )
        try:
            kernels.register_backend(custom)
            assert kernels.get_backend("custom-test") is custom
        finally:
            kernels._REGISTRY.pop("custom-test", None)

    def test_config_env_override(self, monkeypatch):
        from repro.config import AMMSBConfig

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert AMMSBConfig().kernel_backend == "reference"
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert AMMSBConfig().kernel_backend == "fused"

    def test_sampler_rejects_unknown_backend(self):
        from repro.config import AMMSBConfig
        from repro.core.sampler import AMMSBSampler
        from repro.graph.generators import planted_overlapping_graph

        graph, _ = planted_overlapping_graph(
            40, 2, 1, rng=np.random.default_rng(0)
        )
        cfg = AMMSBConfig(n_communities=4, kernel_backend="no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            AMMSBSampler(graph, cfg)

    def test_explicit_miss_raises_typed(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("no-such-backend")

    def test_env_sourced_miss_warns_and_falls_back(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "no-such-backend")
        with caplog.at_level(logging.WARNING, logger="repro.core.kernels"):
            backend = kernels.resolve_backend("no-such-backend")
        assert backend.name == "fused"
        assert any("falling back" in r.message for r in caplog.records)

    def test_sampler_env_fallback_and_checkpoint_roundtrip(self, monkeypatch, tmp_path):
        """Env-selected unavailable backend: the sampler falls back, its
        config records the *resolved* name, and a checkpoint round-trip
        preserves it exactly."""
        from repro.config import AMMSBConfig
        from repro.core.checkpoint import load_checkpoint, save_checkpoint
        from repro.core.sampler import AMMSBSampler
        from repro.graph.generators import planted_overlapping_graph

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "not-installed-backend")
        graph, _ = planted_overlapping_graph(40, 2, 1, rng=np.random.default_rng(0))
        cfg = AMMSBConfig(n_communities=4)  # picks the env name up
        assert cfg.kernel_backend == "not-installed-backend"
        sampler = AMMSBSampler(graph, cfg)
        assert sampler.kernels.name == "fused"
        assert sampler.config.kernel_backend == "fused"

        sampler.run(2)
        path = tmp_path / "ckpt"
        save_checkpoint(path, sampler)
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        restored = load_checkpoint(path, graph)
        assert restored.config.kernel_backend == "fused"
        assert restored.kernels.name == "fused"


class TestWeightedThetaGradient:
    """The weighted batched call equals the per-stratum scale loop."""

    def test_matches_per_stratum_loop(self):
        rng = np.random.default_rng(11)
        k = 16
        theta = rng.gamma(3.0, 1.0, size=(k, 2)) + 0.5
        strata = []
        for scale in (3.0, 40.0, 0.5):
            e = int(rng.integers(5, 40))
            pi_a = rng.dirichlet(np.ones(k), size=e)
            pi_b = rng.dirichlet(np.ones(k), size=e)
            y = (rng.random(e) < 0.5).astype(np.int64)
            strata.append((pi_a, pi_b, y, scale))
        looped = np.zeros_like(theta)
        for pi_a, pi_b, y, scale in strata:
            looped += scale * gradients.theta_gradient_sum(
                pi_a, pi_b, y, theta, 1e-4
            )
        cat = lambda i: np.concatenate([s[i] for s in strata])
        weights = np.concatenate(
            [np.full(len(s[2]), s[3]) for s in strata]
        )
        for backend in (REF, FUSED):
            got = backend.theta_gradient_weighted(
                cat(0), cat(1), cat(2), theta, 1e-4,
                weights=weights, workspace=kernels.KernelWorkspace(),
            )
            np.testing.assert_allclose(np.asarray(got), looped, rtol=1e-12)


class TestLinkProbabilityKernel:
    """The serving hot path kernel obeys the same backend contract."""

    @given(
        h=st.integers(min_value=1, max_value=80),
        k=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_float64_bit_exact(self, h, k, seed):
        rng = np.random.default_rng(seed)
        pi_a = rng.dirichlet(np.ones(k), size=h)
        pi_b = rng.dirichlet(np.ones(k), size=h)
        beta = rng.uniform(0.05, 0.95, k)
        ws = kernels.KernelWorkspace()
        ref = REF.link_probability(pi_a, pi_b, beta, 1e-7)
        got = FUSED.link_probability(pi_a, pi_b, beta, 1e-7, workspace=ws)
        np.testing.assert_array_equal(np.asarray(got), ref)

    @given(
        h=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_float32_stays_float32(self, h, k, seed):
        rng = np.random.default_rng(seed)
        pi_a = rng.dirichlet(np.ones(k), size=h).astype(np.float32)
        pi_b = rng.dirichlet(np.ones(k), size=h).astype(np.float32)
        beta = rng.uniform(0.05, 0.95, k)
        ws = kernels.KernelWorkspace()
        got = FUSED.link_probability(pi_a, pi_b, beta, 1e-7, workspace=ws)
        assert np.asarray(got).dtype == np.float32
        ref = REF.link_probability(
            pi_a.astype(np.float64), pi_b.astype(np.float64), beta, 1e-7
        )
        np.testing.assert_allclose(np.asarray(got), ref, rtol=2e-4, atol=2e-6)

    def test_values_clipped_to_open_interval(self):
        # degenerate memberships drive p toward 0/1; the floor must hold
        k = 4
        pi_a = np.eye(k)[:2]
        pi_b = np.eye(k)[:2]
        beta = np.array([1.0 - 1e-16, 0.5, 0.5, 0.5])
        for backend in (REF, FUSED):
            p = np.asarray(backend.link_probability(pi_a, pi_b, beta, 1e-12))
            assert np.all((p > 0) & (p < 1))

    def test_broadcast_row_matches_pairwise(self):
        """recommend_edges relies on broadcast pi_a being bit-identical."""
        rng = np.random.default_rng(5)
        k, n = 8, 30
        pi = rng.dirichlet(np.ones(k), size=n)
        beta = rng.uniform(0.05, 0.95, k)
        ws = kernels.KernelWorkspace()
        row = np.broadcast_to(pi[3], pi.shape)
        got = np.array(FUSED.link_probability(row, pi, beta, 1e-7, workspace=ws))
        pairwise = np.array(
            FUSED.link_probability(np.tile(pi[3], (n, 1)), pi, beta, 1e-7)
        )
        np.testing.assert_array_equal(got, pairwise)
