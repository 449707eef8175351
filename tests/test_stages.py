"""The row-store contract of repro.core.stages, against every store, and
the worker's empty-shard answer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dkv import DKVStore
from repro.config import AMMSBConfig
from repro.core import kernels, stages
from repro.core.minibatch import NeighborSample
from repro.core.state import ModelState
from repro.dist.partition import WorkerShard
from repro.dist.worker import DKVRows, WorkerContext

STORES = ("ModelState", "ndarray table", "DKVStore")


def make_store(kind: str, pi: np.ndarray, phi_sum: np.ndarray):
    """A store of ``kind`` holding ``pi`` / ``phi_sum`` in their dtype."""
    table = np.concatenate([pi, phi_sum[:, None]], axis=1)
    if kind == "ModelState":
        return ModelState(pi.copy(), phi_sum.copy(), theta=np.ones((pi.shape[1], 2)))
    if kind == "ndarray table":
        return stages.TableRows(table)
    dkv = DKVStore(*table.shape, n_servers=3, dtype=table.dtype)
    dkv.populate(table)
    return DKVRows(dkv, client=1)


@pytest.mark.parametrize("kind", STORES)
class TestRowStoreContract:
    @given(
        n=st.integers(min_value=3, max_value=60),
        k=st.integers(min_value=1, max_value=6),
        dtype=st.sampled_from(["float64", "float32"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_reads_and_writes(self, kind, n, k, dtype, seed):
        rng = np.random.default_rng(seed)
        pi = rng.random((n, k)).astype(dtype)
        phi_sum = (rng.random(n) + 1.0).astype(dtype)
        store = make_store(kind, pi, phi_sum)
        everyone = np.arange(n)
        assert store.dtype == np.dtype(dtype)

        # A read answers exactly the stored rows, in the store's dtype,
        # for repeated keys and an ``others`` block of any shape; the
        # resident stores defer the ``others`` gather, the DKV does not.
        vertices = rng.integers(0, n, size=int(rng.integers(0, n)))
        others = rng.integers(0, n, size=(int(rng.integers(0, 5)), 2, 3))
        pi_v, phi_sum_v, pi_o = store.read_rows(vertices, others)
        assert isinstance(pi_o, tuple) == (kind != "DKVStore")
        pi_o = kernels.gather_rows(pi_o)
        np.testing.assert_array_equal(pi_v, pi[vertices])
        np.testing.assert_array_equal(phi_sum_v, phi_sum[vertices])
        np.testing.assert_array_equal(pi_o, pi[others])
        assert pi_o.shape == others.shape + (k,)
        assert pi_v.dtype == phi_sum_v.dtype == pi_o.dtype == np.dtype(dtype)

        # Read-after-write returns the written rows (cast to the store's
        # dtype); every row not written is untouched.
        written = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        new_pi, new_sum = rng.random((written.size, k)), rng.random(written.size) + 1.0
        store.write_rows(written, new_pi, new_sum)
        pi[written], phi_sum[written] = new_pi, new_sum
        got_pi, got_sum, _ = store.read_rows(everyone, everyone[:0])
        np.testing.assert_array_equal(got_pi, pi)
        np.testing.assert_array_equal(got_sum, phi_sum)
        assert got_pi.dtype == np.dtype(dtype)


def test_empty_shard_rows_keep_the_store_dtype():
    """A worker with no vertices this iteration answers in the table's
    dtype (it used to answer float64 zeros whatever the table held)."""
    cfg = AMMSBConfig(n_communities=3, dtype="float32")
    table = np.full((10, 4), 0.25, dtype=np.float32)
    ctx = WorkerContext(0, cfg, 10, stages.TableRows(table))
    nobody = np.zeros(0, dtype=np.int64)
    shard = WorkerShard(0, nobody, adjacency=None)
    sample = ctx.sample_neighbors(shard, lambda neighbors: np.zeros(neighbors.shape, bool))
    result = ctx.update_phi_pi(shard, sample, beta=np.full(3, 0.5), eps_t=0.01)
    assert result.pi_rows.shape == (0, 3) and result.phi_sum.shape == (0,)
    assert result.pi_rows.dtype == result.phi_sum.dtype == np.float32
    ctx.write_pi(result)
    assert (table == 0.25).all()


def run_phi_stage(store, workspace, n_vertices, k, neighbors, backend="fused"):
    """One phi stage for the first ``len(neighbors)`` vertices."""
    cfg = AMMSBConfig(n_communities=k, kernel_backend=backend)
    rng = np.random.default_rng(0)
    m = neighbors.shape[0]
    sample = NeighborSample(
        neighbors, rng.random(neighbors.shape) < 0.05, rng.random(neighbors.shape) < 0.95
    )
    return stages.phi_stage(
        store, kernels.get_backend(backend), workspace, cfg, n_vertices, np.arange(m),
        sample, np.full(k, 0.4), 0.01, rng.standard_normal((m, k)),
    )


@pytest.mark.parametrize("backend", ["fused", "reference"])
@pytest.mark.parametrize("kind", ["ModelState", "ndarray table"])
@pytest.mark.parametrize("stray", [-1, 40, 10**9])
def test_stray_neighbor_id_is_an_index_error(kind, backend, stray):
    """The resident stores defer the neighbor gather to the kernel, which
    takes rows with ``mode="clip"`` (``ModelState``) or indexes the
    non-contiguous ``pi`` columns (the table): neither may clip or wrap a
    stray id into some other vertex's row."""
    rng = np.random.default_rng(1)
    n, k = 40, 6
    store = make_store(kind, rng.dirichlet(np.ones(k), size=n), rng.random(n) + 1.0)
    neighbors = rng.integers(0, n, size=(8, 5))
    run_phi_stage(store, kernels.KernelWorkspace(), n, k, neighbors, backend)
    neighbors[7, 4] = stray
    with pytest.raises(IndexError, match="table of 40 rows"):
        run_phi_stage(store, kernels.KernelWorkspace(), n, k, neighbors, backend)


def test_phi_stage_workspace_holds_blocks_not_the_mini_batch():
    """Work-count guard: after a phi stage at (m, n, K) = (512, 64, 128)
    in float64 the fused workspace is one (rows, n, K) block buffer (the
    gathered neighbor rows) and (m, c, K) / (rows, c, n) ones with c <= 3,
    ~5 MB; the (m, n, K) buffers they replaced held 135 MB (and the
    gathered rows another 34 MB outside the workspace)."""
    rng = np.random.default_rng(2)
    n_vertices, m, n, k = 2000, 512, 64, 128
    store = make_store(
        "ModelState", rng.dirichlet(np.ones(k), size=n_vertices), rng.random(n_vertices) + 1.0
    )
    workspace = kernels.KernelWorkspace()
    run_phi_stage(store, workspace, n_vertices, k, rng.integers(0, n_vertices, size=(m, n)))
    buffers = workspace.buffers()
    assert workspace.nbytes <= kernels._PHI_BLOCK_BYTES + 10 * m * k * 8
    assert buffers.pop("phi_rows").nbytes == kernels._PHI_BLOCK_BYTES
    assert max(buf.nbytes for buf in buffers.values()) <= 3 * m * k * 8
