"""Distributed engine behaviour: correctness, timing, perplexity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.spec import das5
from repro.config import AMMSBConfig, StepSizeConfig
from repro.dist.sampler import DistributedAMMSBSampler
from repro.graph.split import split_heldout


@pytest.fixture(scope="module")
def problem():
    from repro.graph.generators import planted_overlapping_graph

    rng = np.random.default_rng(1234)
    graph, truth = planted_overlapping_graph(
        200, 4, memberships_per_vertex=1, p_in=0.25, p_out=0.004, rng=rng
    )
    split = split_heldout(graph, 0.03, np.random.default_rng(5))
    cfg = AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=32,
        neighbor_sample_size=16,
        seed=42,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    return split, cfg, truth


class TestStep:
    def test_invariants_after_iterations(self, problem):
        split, cfg, _ = problem
        d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3), heldout=split)
        d.run(10)
        snap = d.state_snapshot()
        snap.validate()
        assert d.iteration == 10

    def test_deterministic_given_seed(self, problem):
        split, cfg, _ = problem
        d1 = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3))
        d2 = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3))
        d1.run(5)
        d2.run(5)
        np.testing.assert_array_equal(d1.state_snapshot().pi, d2.state_snapshot().pi)
        np.testing.assert_array_equal(d1.theta, d2.theta)

    def test_worker_count_does_not_change_the_run(self, problem):
        """2 and 5 workers, pipelined or not, end on one state: blocks,
        not ranks, key the randomness and order the theta reduce."""
        split, cfg, _ = problem
        cfg = cfg.with_updates(mini_batch_vertices=160)
        snaps = []
        for w, pipelined in ((2, True), (5, False)):
            d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(w), pipelined=pipelined)
            d.run(4)
            snaps.append(d.state_snapshot())
        np.testing.assert_array_equal(snaps[0].pi, snaps[1].pi)
        np.testing.assert_array_equal(snaps[0].theta, snaps[1].theta)

    def test_a_held_draw_is_used_only_at_its_iteration(self, problem):
        """The pipelined master holds t+1's draw; a clock moved in between
        (a resume, a stream generation) gets its own iteration's draw."""
        from repro.core.sampler import AMMSBSampler

        split, cfg, _ = problem
        d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3), pipelined=True)
        s = AMMSBSampler(split.train, cfg)
        for engine in (d, s):
            engine.step()
            engine.iteration = 5
            engine.step()
        assert d.iteration == s.iteration == 6
        np.testing.assert_array_equal(d.state_snapshot().pi, s.state.pi)
        np.testing.assert_array_equal(d.theta, s.state.theta)

    def test_dkv_holds_the_state(self, problem):
        split, cfg, _ = problem
        d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(4))
        d.run(3)
        snap = d.state_snapshot()
        values = d.dkv.snapshot()
        np.testing.assert_array_equal(values[:, :-1], snap.pi)
        np.testing.assert_array_equal(values[:, -1], snap.phi_sum)


class TestTiming:
    def test_stage_times_recorded(self, problem):
        split, cfg, _ = problem
        d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(4))
        d.run(5)
        assert len(d.timing.per_iteration) == 5
        for t in d.timing.per_iteration:
            assert t.total > 0
            assert t.load_pi > 0
            assert t.update_phi >= t.load_pi  # load is part of the block

    def test_pipelined_faster_than_not(self, problem):
        split, cfg, _ = problem
        times = {}
        for pipelined in (False, True):
            d = DistributedAMMSBSampler(
                split.train, cfg, cluster=das5(4), pipelined=pipelined
            )
            d.run(10)
            times[pipelined] = d.timing.total_seconds
        assert times[True] < times[False]

    def test_more_workers_speed_up_the_dominant_stage(self, problem):
        """update_phi (load + compute) shrinks with more workers. Totals
        need not: on toy problems the log(C) collective sync overhead can
        outweigh the per-worker savings — the same reason the paper needs
        'the input problem large enough for the given cluster size' —
        here, enough row blocks for eight workers to share."""
        split, cfg, _ = problem
        cfg_big = cfg.with_updates(mini_batch_vertices=512, n_communities=16)
        phi_stage = {}
        for w in (2, 8):
            d = DistributedAMMSBSampler(split.train, cfg_big, cluster=das5(w))
            d.run(5)
            means = d.timing.mean_stage_times()
            phi_stage[w] = means["load_pi"] + means["update_phi_compute"]
        assert phi_stage[8] < phi_stage[2]

    def test_draw_deploy_charges_the_shards_and_their_csr_slices(self, problem):
        """Workers answer ``y_ab`` from the graph, but the simulated scatter
        still ships what the paper's master does: each shard plus the CSR
        adjacency slice of its vertices, as ``Graph.adjacency_slice`` cuts
        it (ids, ``indptr``, neighbor ids)."""
        split, cfg, _ = problem
        graph = split.train
        cfg = cfg.with_updates(mini_batch_vertices=160)
        d = DistributedAMMSBSampler(graph, cfg, cluster=das5(3))
        draws = []
        next_draw = d.master.next_draw
        d.master.next_draw = lambda t: draws.append(next_draw(t)) or draws[-1]
        d.run(4)
        cost, net = d.cost, d.cluster.network
        for draw, times in zip(draws, d.timing.per_iteration, strict=True):
            payload = 0
            for shard in draw.shards:
                indptr, indices = graph.adjacency_slice(shard.vertices)
                payload += shard.payload_bytes() + shard.vertices.nbytes
                payload += indptr.nbytes + indices.nbytes
            assert sum(s.vertices.size for s in draw.shards) > 0
            assert times.draw_deploy == (
                draw.minibatch.n_vertices * cost.c_draw_per_vertex
                + payload / net.bandwidth
                + net.latency
            )

    def test_mean_stage_times_keys(self, problem):
        split, cfg, _ = problem
        d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(2))
        d.run(2)
        means = d.timing.mean_stage_times()
        assert {"load_pi", "update_phi", "total"} <= set(means)


class TestPerplexity:
    def test_matches_central_estimator(self, problem):
        """Distributed (partitioned, reduced) perplexity == the sequential
        estimator fed the same states."""
        from repro.core.perplexity import PerplexityEstimator

        split, cfg, _ = problem
        d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3), heldout=split)
        central = PerplexityEstimator(split.heldout_pairs, split.heldout_labels, cfg.delta)
        for _ in range(3):
            d.run(5)
            value = d.evaluate_perplexity()
            snap = d.state_snapshot()
            central.record(snap.pi, snap.beta)
            assert value == pytest.approx(central.value(), rel=1e-9)
        assert d.last_perplexity() == pytest.approx(central.value(), rel=1e-9)

    def test_requires_heldout(self, problem):
        split, cfg, _ = problem
        d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(2))
        with pytest.raises(RuntimeError):
            d.evaluate_perplexity()
        assert d.last_perplexity() == float("inf")

    def test_converges(self, problem):
        split, cfg, _ = problem
        d = DistributedAMMSBSampler(split.train, cfg, cluster=das5(4), heldout=split)
        d.run(2000, perplexity_every=100)
        assert d.last_perplexity() < 3.0
