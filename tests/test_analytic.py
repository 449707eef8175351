"""Analytic (paper-scale) mode tests + cross-validation against the
functional distributed engine on small shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.costmodel import WorkloadShape
from repro.cluster.spec import HPC_CLOUD_NODE, das5
from repro.dist.analytic import (
    analytic_iteration,
    analytic_single_node,
    dataset_shape,
)
from repro.bench.figures import fig1_strong_scaling, fig2_weak_scaling


class TestDatasetShape:
    def test_friendster_full_scale(self):
        shape = dataset_shape("com-Friendster", n_communities=1024)
        assert shape.n_vertices == 65_608_366
        assert shape.n_edges == 1_806_067_135
        assert shape.heldout_pairs == int(0.02 * 1_806_067_135)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_shape("nope", 16)


class TestMemoryGates:
    def test_friendster_k12288_needs_large_cluster(self):
        shape = dataset_shape("com-Friendster", 12288)
        with pytest.raises(MemoryError):
            analytic_iteration(shape, cluster=das5(16))
        t = analytic_iteration(shape, cluster=das5(64))
        assert t.total > 0

    def test_single_node_memory_gate(self):
        shape = dataset_shape("com-Friendster", 12288)
        with pytest.raises(MemoryError):
            analytic_single_node(shape, HPC_CLOUD_NODE)
        small = dataset_shape("com-DBLP", 1024)
        assert analytic_single_node(small, HPC_CLOUD_NODE).total > 0


class TestSweeps:
    def test_strong_scaling_rows(self):
        rows = fig1_strong_scaling([8, 16, 32, 64], n_communities=1024, n_iterations=2048)
        assert [r["workers"] for r in rows] == [8, 16, 32, 64]
        totals = [r["total_s"] for r in rows]
        assert totals == sorted(totals, reverse=True)
        assert rows[0]["speedup_vs_8"] == pytest.approx(1.0)
        assert rows[-1]["speedup_vs_8"] > 2.0

    def test_weak_scaling_rows_flat(self):
        rows = fig2_weak_scaling([8, 16, 32, 64], communities_per_worker=128)
        secs = [r["sec_per_iteration"] for r in rows]
        assert max(secs) / min(secs) < 1.25
        assert [r["communities"] for r in rows] == [1024, 2048, 4096, 8192]


class TestCrossValidation:
    def test_analytic_close_to_functional_timing(self, config):
        """On a shape small enough to execute, the analytic closed form and
        the functional engine's measured-traffic clock must agree within
        ~35% on the dominant stage (they share constants but the
        functional engine bills actual traffic: dedup, local/remote
        split, real stratum sizes). The mini-batch is four row blocks, one
        per worker, as the closed form's even split assumes, on a graph
        large enough that a worker's 64 x 17 keys are mostly distinct."""
        from repro.dist.sampler import DistributedAMMSBSampler
        from repro.graph.generators import planted_overlapping_graph

        graph, _ = planted_overlapping_graph(
            2000, 8, memberships_per_vertex=1, p_in=0.05, p_out=0.0004,
            rng=np.random.default_rng(1234),
        )
        cfg = config.with_updates(mini_batch_vertices=256, n_communities=8)
        cluster = das5(4)
        d = DistributedAMMSBSampler(graph, cfg, cluster=cluster, pipelined=False)
        d.run(20)
        means = d.timing.mean_stage_times()

        shape = WorkloadShape(
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            n_communities=8,
            mini_batch_vertices=256,
            neighbor_sample_size=cfg.neighbor_sample_size,
            heldout_pairs=0,
        )
        t = analytic_iteration(shape, cluster=cluster, pipelined=False)
        assert means["load_pi"] == pytest.approx(t.load_pi, rel=0.5)
        assert means["update_phi_compute"] == pytest.approx(t.update_phi_compute, rel=0.5)
