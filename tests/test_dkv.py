"""DKV store tests: partitioning, round-trips, traffic accounting,
hypothesis properties, and the simulated-timing path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dkv import DKVStore, dkv_bandwidth, timed_read_batch
from repro.sim.network import NetworkParams


def make_store(n_keys=100, dim=5, servers=4, seed=0):
    store = DKVStore(n_keys, dim, servers)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_keys, dim))
    store.populate(values)
    return store, values


class TestPartitioning:
    def test_owners_cover_all_servers(self):
        store, _ = make_store(100, 3, 7)
        owners = store.owners(np.arange(100))
        assert set(owners.tolist()) == set(range(7))

    def test_block_partition_contiguous(self):
        store, _ = make_store(100, 3, 4)
        owners = store.owners(np.arange(100))
        assert (np.diff(owners) >= 0).all()  # non-decreasing => contiguous

    def test_shard_slices_partition_keyspace(self):
        store, _ = make_store(101, 3, 8)
        covered = []
        for s in range(8):
            lo, hi = store.shard_slice(s)
            covered.extend(range(lo, hi))
        assert covered == list(range(101))

    def test_owner_out_of_range(self):
        store, _ = make_store()
        with pytest.raises(KeyError):
            store.owners(np.array([100]))
        with pytest.raises(KeyError):
            store.owners(np.array([-1]))

    @given(
        n_keys=st.integers(min_value=1, max_value=500),
        servers=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_owner_consistent_with_shards(self, n_keys, servers):
        store = DKVStore(n_keys, 2, servers)
        keys = np.array(sorted({0, n_keys // 2, n_keys - 1}))
        for key, s in zip(keys, store.owners(keys)):
            lo, hi = store.shard_slice(int(s))
            assert lo <= key < hi


class TestReadWrite:
    def test_read_returns_populated_values(self):
        store, values = make_store()
        keys = np.array([0, 13, 57, 99, 13])
        out, traffic = store.read_batch(2, keys)
        np.testing.assert_array_equal(out, values[keys])
        # duplicate key 13 fetched once
        assert traffic.n_requests == 4

    def test_write_then_read(self):
        store, _ = make_store()
        keys = np.array([5, 60])
        new = np.full((2, 5), 7.5)
        store.write_batch(0, keys, new)
        out, _ = store.read_batch(1, keys)
        np.testing.assert_array_equal(out, new)

    def test_write_duplicate_keys_rejected(self):
        store, _ = make_store()
        with pytest.raises(ValueError):
            store.write_batch(0, np.array([1, 1]), np.zeros((2, 5)))

    def test_snapshot_round_trip(self):
        store, values = make_store()
        np.testing.assert_array_equal(store.snapshot(), values)

    def test_populate_shape_checked(self):
        store, _ = make_store()
        with pytest.raises(ValueError):
            store.populate(np.zeros((99, 5)))

    def test_empty_read(self):
        store, _ = make_store()
        out, traffic = store.read_batch(0, np.array([], dtype=np.int64))
        assert out.shape == (0, 5)
        assert traffic.n_requests == 0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_read_your_writes(self, seed):
        store, _ = make_store(seed=seed)
        rng = np.random.default_rng(seed)
        keys = rng.choice(100, size=10, replace=False)
        vals = rng.standard_normal((10, 5))
        store.write_batch(int(rng.integers(4)), keys, vals)
        out, _ = store.read_batch(int(rng.integers(4)), keys)
        np.testing.assert_array_equal(out, vals)


class TestTrafficAccounting:
    def test_local_vs_remote_split(self):
        store, _ = make_store(100, 5, 4)
        lo, hi = store.shard_slice(1)
        local_keys = np.arange(lo, min(lo + 5, hi))
        _, traffic = store.read_batch(1, local_keys)
        assert traffic.n_remote_requests == 0
        assert traffic.bytes_remote == 0
        _, traffic = store.read_batch(2, local_keys)
        assert traffic.n_remote_requests == len(local_keys)

    def test_remote_fraction_approaches_c_minus_1_over_c(self):
        """Random keys from C servers: (C-1)/C of reads are remote — the
        paper's Section IV-C premise."""
        store, _ = make_store(1000, 3, 8)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1000, size=500)
        _, traffic = store.read_batch(3, keys)
        frac = traffic.n_remote_requests / traffic.n_requests
        assert frac == pytest.approx(7 / 8, abs=0.06)

    def test_bytes_match_value_size(self):
        store, _ = make_store(100, 5, 4)
        _, traffic = store.read_batch(0, np.arange(10))
        assert traffic.bytes_total == 10 * 5 * 8  # float64

    def test_per_server_counts_sum(self):
        store, _ = make_store(100, 5, 4)
        _, traffic = store.read_batch(0, np.arange(40))
        assert sum(traffic.per_server_requests.values()) == traffic.n_requests

    def test_merge(self):
        """Two batches read as one cost what they cost apart."""
        store, _ = make_store()
        _, t1 = store.read_batch(0, np.arange(10))
        _, t2 = store.read_batch(0, np.arange(50, 60))
        _, both = store.read_batch(0, np.r_[np.arange(10), np.arange(50, 60)])
        assert both.n_requests == t1.n_requests + t2.n_requests
        assert both.bytes_remote == t1.bytes_remote + t2.bytes_remote


class TestTimedPath:
    def test_timed_batch_positive_and_scales(self):
        t1 = timed_read_batch(10, 4096)
        t2 = timed_read_batch(100, 4096)
        assert 0 < t1 < t2

    def test_dkv_bandwidth_below_qperf(self):
        """Fig 5: DKV bandwidth < qperf for small payloads (per-request
        header overhead), close for large ones."""
        from repro.sim.qperf import run_qperf

        small_dkv = dkv_bandwidth(1024, n_requests=64)
        small_qperf = run_qperf(1024, n_ops=64).bandwidth
        assert small_dkv < small_qperf
        big_dkv = dkv_bandwidth(262144, n_requests=32)
        big_qperf = run_qperf(262144, n_ops=32).bandwidth
        assert big_dkv > 0.9 * big_qperf

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            timed_read_batch(0, 100)

    def test_slow_fabric_slower(self):
        fast = timed_read_batch(32, 65536)
        slow = timed_read_batch(32, 65536, params=NetworkParams.ethernet_10g())
        assert slow > 3 * fast
