"""Communicator collective semantics + accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.comm import Communicator


class TestCollectives:
    def test_scatter_identity(self):
        comm = Communicator(4)
        chunks = [np.arange(i + 1) for i in range(4)]
        out = comm.scatter(chunks)
        for a, b in zip(out, chunks):
            np.testing.assert_array_equal(a, b)

    def test_scatter_wrong_count(self):
        with pytest.raises(ValueError):
            Communicator(3).scatter([1, 2])

    def test_reduce_equals_numpy_sum(self):
        comm = Communicator(5)
        vals = [np.arange(4) * i for i in range(5)]
        total = comm.reduce(vals)
        np.testing.assert_array_equal(total, np.sum(vals, axis=0))

    def test_reduce_custom_op(self):
        comm = Communicator(3)
        out = comm.reduce([np.array([3]), np.array([7]), np.array([5])], op=np.maximum)
        assert out[0] == 7

    def test_allreduce_broadcasts_total(self):
        """An allreduce is a reduce to the root and a bcast of the total."""
        comm = Communicator(3)
        out = comm.bcast(comm.reduce([np.array([1.0]), np.array([2.0]), np.array([3.0])]))
        assert len(out) == 3
        for v in out:
            assert v[0] == pytest.approx(6.0)

    def test_bcast_shares_value(self):
        comm = Communicator(4)
        out = comm.bcast({"beta": np.ones(3)})
        assert len(out) == 4
        assert all(o is out[0] for o in out)

    def test_barrier_counted(self):
        comm = Communicator(2)
        comm.barrier()
        comm.barrier()
        assert comm.barriers == 2

    def test_send_records_remote_only(self):
        comm = Communicator(3)
        comm.send(0, 1, np.zeros(10))
        b = comm.stats.bytes_sent
        comm.send(2, 2, np.zeros(100))  # local: free
        assert comm.stats.bytes_sent == b


class TestAccounting:
    def test_scatter_bytes_exclude_root_chunk(self):
        comm = Communicator(3)
        chunks = [np.zeros(100), np.zeros(10), np.zeros(20)]
        comm.scatter(chunks)
        assert comm.stats.by_op["scatter"] == 30 * 8

    def test_bcast_bytes_scale_with_size(self):
        c2 = Communicator(2)
        c8 = Communicator(8)
        payload = np.zeros(16)
        c2.bcast(payload)
        c8.bcast(payload)
        assert c8.stats.bytes_sent == 7 * payload.nbytes
        assert c2.stats.bytes_sent == 1 * payload.nbytes

    def test_mixed_payload_sizes(self):
        comm = Communicator(2)
        comm.send(0, 1, {"a": np.zeros(4), "b": [1, 2.5], "c": "xyz"})
        assert comm.stats.bytes_sent >= 4 * 8 + 2 * 8 + 3

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Communicator(0)
