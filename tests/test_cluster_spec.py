"""Machine/cluster spec tests (memory feasibility drives Fig 1/2/6 sizing)."""

from __future__ import annotations

import pytest

from repro.cluster.spec import DAS5_NODE, HPC_CLOUD_NODE, ClusterSpec, das5
from repro.graph.datasets import DATASETS


class TestMachineSpec:
    def test_das5_shape(self):
        assert DAS5_NODE.cores == 16
        assert DAS5_NODE.clock_ghz == 2.40
        assert DAS5_NODE.memory_bytes == 64 * 2**30

    def test_kernel_rate_scales_with_threads(self):
        r1 = DAS5_NODE.kernel_ops_per_sec(1)
        r8 = DAS5_NODE.kernel_ops_per_sec(8)
        assert r8 == pytest.approx(8 * r1)

    def test_kernel_rate_saturates_at_bandwidth_roofline(self):
        """The 40-core HPC Cloud VM is NOT 40x a single core — this memory
        roofline is what keeps Figure 4-a's vertical scaling sublinear."""
        r40 = HPC_CLOUD_NODE.kernel_ops_per_sec(40)
        r1 = HPC_CLOUD_NODE.kernel_ops_per_sec(1)
        assert r40 < 40 * r1
        assert r40 == pytest.approx(HPC_CLOUD_NODE.memory_bandwidth / 24.0)

    def test_threads_capped_at_cores(self):
        assert DAS5_NODE.kernel_ops_per_sec(64) == DAS5_NODE.kernel_ops_per_sec(16)


class TestClusterSpec:
    def test_n_nodes_includes_master(self):
        assert das5(64).n_nodes == 65  # the paper's "65 compute nodes"

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_workers=0)

    def test_friendster_needs_8_workers_at_k1024(self):
        """Paper Figure 1: 'the x-axis starts from 8 worker nodes as the
        data set is too large to fit into the collective memory of a
        smaller cluster' (com-Friendster, K = 1024)."""
        fr = DATASETS["com-Friendster"]
        for c in (2, 4):
            assert not das5(c).fits_in_memory(fr.n_vertices, 1024)
        assert das5(8).fits_in_memory(fr.n_vertices, 1024)
        assert das5(1).min_workers(fr.n_vertices, 1024) in (5, 6, 7, 8)

    def test_max_communities_matches_paper_fig6a(self):
        """Paper Figure 6-a: K = 12K 'fully occupied the aggregate memory
        resources of all 64 worker nodes' for com-Friendster."""
        fr = DATASETS["com-Friendster"]
        assert das5(64).fits_in_memory(fr.n_vertices, 10_000)
        assert not das5(64).fits_in_memory(fr.n_vertices, 16_000)

    def test_pi_storage_bytes(self):
        spec = das5(4)
        assert spec.pi_storage_bytes(1000, 7) == 1000 * 8 * 4
