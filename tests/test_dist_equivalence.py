"""E11: sequential vs threaded vs distributed numerical equivalence.

All engines execute the stage math of repro.core.stages; fed identical
mini-batches, neighbor samples, and noise, they must produce identical
states (up to float-addition reordering in the theta reduce, hence the
tight-but-not-exact tolerance on theta for the multi-worker cases).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.spec import das5
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import kernels
from repro.core.minibatch import MinibatchSampler, NeighborSample
from repro.core.sampler import AMMSBSampler
from repro.core.state import ModelState, init_state
from repro.dist.sampler import DistributedAMMSBSampler
from repro.graph.split import split_heldout
from repro.parallel.sampler import ThreadedAMMSBSampler


@pytest.fixture(scope="module")
def problem():
    from repro.graph.generators import planted_overlapping_graph

    rng = np.random.default_rng(7)
    graph, _ = planted_overlapping_graph(
        180, 4, memberships_per_vertex=1, p_in=0.25, p_out=0.005, rng=rng
    )
    split = split_heldout(graph, 0.03, np.random.default_rng(2))
    cfg = AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=40,
        neighbor_sample_size=12,
        seed=5,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    return split, cfg


def replay_inputs(split, cfg, n_iters, seed=99):
    """Pre-draw a fixed stream of (minibatch, neighbors, noises)."""
    ms = MinibatchSampler(split.train, cfg)
    r = np.random.default_rng(seed)
    stream = []
    for _ in range(n_iters):
        mb = ms.sample(r)
        ns = ms.sample_neighbors(mb.vertices, r)
        noise = r.standard_normal((mb.vertices.size, cfg.n_communities))
        tnoise = r.standard_normal((cfg.n_communities, 2))
        stream.append((mb, ns, noise, tnoise))
    return stream


class TestSequentialVsDistributed:
    @pytest.mark.parametrize("n_workers", [1, 3, 4])
    def test_identical_states_after_replay(self, problem, n_workers):
        split, cfg = problem
        st0 = init_state(split.train.n_vertices, cfg, np.random.default_rng(1))
        seq = AMMSBSampler(split.train, cfg, state=st0.copy())
        dist = DistributedAMMSBSampler(
            split.train, cfg, cluster=das5(n_workers), pipelined=False, state=st0.copy()
        )
        for mb, ns, noise, tnoise in replay_inputs(split, cfg, 6):
            seq.update_phi_pi(mb, ns, noise=noise)
            seq.update_beta_theta(mb, noise=tnoise)
            seq.iteration += 1
            parts = [
                NeighborSample(
                    ns.neighbors[w::n_workers], ns.labels[w::n_workers], ns.mask[w::n_workers]
                )
                for w in range(n_workers)
            ]
            dist.step(minibatch=mb, neighbor_samples=parts, phi_noise=noise, theta_noise=tnoise)
        snap = dist.state_snapshot()
        np.testing.assert_allclose(snap.pi, seq.state.pi, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(snap.theta, seq.state.theta, rtol=1e-9)

    def test_pipelined_replay_also_matches(self, problem):
        """Pipelining changes the clock, never the numbers."""
        split, cfg = problem
        st0 = init_state(split.train.n_vertices, cfg, np.random.default_rng(1))
        seq = AMMSBSampler(split.train, cfg, state=st0.copy())
        dist = DistributedAMMSBSampler(
            split.train, cfg, cluster=das5(2), pipelined=True, state=st0.copy()
        )
        for mb, ns, noise, tnoise in replay_inputs(split, cfg, 4):
            seq.update_phi_pi(mb, ns, noise=noise)
            seq.update_beta_theta(mb, noise=tnoise)
            seq.iteration += 1
            parts = [
                NeighborSample(ns.neighbors[w::2], ns.labels[w::2], ns.mask[w::2])
                for w in range(2)
            ]
            dist.step(minibatch=mb, neighbor_samples=parts, phi_noise=noise, theta_noise=tnoise)
        np.testing.assert_allclose(dist.state_snapshot().pi, seq.state.pi, rtol=1e-9)


class TestSequentialVsThreaded:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_identical_given_same_seed(self, problem, n_threads):
        """The threaded engine pre-draws noise exactly like the sequential
        one, so whole runs match bit-for-bit from the same seed (modulo
        chunk-sum reordering in theta, covered by the tolerance)."""
        split, cfg = problem
        seq = AMMSBSampler(split.train, cfg)
        thr = ThreadedAMMSBSampler(split.train, cfg, n_threads=n_threads)
        seq.run(8)
        thr.run(8)
        np.testing.assert_allclose(thr.state.pi, seq.state.pi, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(thr.state.theta, seq.state.theta, rtol=1e-9)


# -- every registered backend x storage dtype x row form, by registration -------
#
# A new kernel backend or row store is covered here without a new test:
# the matrix is read from the registry. The documented equivalence
# classes (DESIGN section 5): one part (1 thread / 1 worker) reproduces
# the sequential engine bit for bit in float64; several parts differ
# only by the order in which the theta partials are added; float32
# storage rounds each written row, so it is compared to tolerance.
#
# The sequential side runs once per form of the neighbor rows: deferred
# (what ``ModelState`` answers: the kernel gathers block by block) and
# gathered up front (what the DKV answers). The classes above do not
# depend on it, because the form never changes a bit.

MATRIX = [(b, d) for b in kernels.available_backends() for d in ("float64", "float32")]
ROW_FORMS = ("deferred", "gathered")


class GatheredState(ModelState):
    """A ``ModelState`` that answers the neighbor rows as a copy."""

    def read_rows(self, vertices, others):
        pi_a, phi_sum_a, pi_b = super().read_rows(vertices, others)
        return pi_a, phi_sum_a, kernels.gather_rows(pi_b)


def sequential(graph, cfg, form, state=None):
    seq = AMMSBSampler(graph, cfg, state=state)
    if form == "gathered":
        seq.state = GatheredState(seq.state.pi, seq.state.phi_sum, seq.state.theta)
    return seq


def assert_equivalent(got, want, dtype, n_parts):
    if dtype == "float64" and n_parts == 1:
        np.testing.assert_array_equal(got.pi, want.pi)
        np.testing.assert_array_equal(got.theta, want.theta)
        return
    tol = dict(rtol=1e-9, atol=1e-12) if dtype == "float64" else dict(rtol=1e-3, atol=1e-5)
    np.testing.assert_allclose(got.pi, want.pi, **tol)
    np.testing.assert_allclose(got.theta, want.theta, rtol=tol["rtol"])


@pytest.mark.parametrize("backend,dtype", MATRIX)
class TestEngineMatrix:
    @pytest.mark.parametrize("n_workers", [1, 3, 4])
    def test_distributed_replay(self, problem, backend, dtype, n_workers):
        split, cfg = problem
        cfg = cfg.with_updates(kernel_backend=backend, dtype=dtype)
        st0 = init_state(split.train.n_vertices, cfg, np.random.default_rng(1))
        seqs = [sequential(split.train, cfg, form, state=st0.copy()) for form in ROW_FORMS]
        dist = DistributedAMMSBSampler(
            split.train, cfg, cluster=das5(n_workers), pipelined=False, state=st0.copy()
        )
        for mb, ns, noise, tnoise in replay_inputs(split, cfg, 6):
            for seq in seqs:
                seq.update_phi_pi(mb, ns, noise=noise)
                seq.update_beta_theta(mb, noise=tnoise)
                seq.iteration += 1
            parts = [
                NeighborSample(
                    ns.neighbors[w::n_workers], ns.labels[w::n_workers], ns.mask[w::n_workers]
                )
                for w in range(n_workers)
            ]
            dist.step(minibatch=mb, neighbor_samples=parts, phi_noise=noise, theta_noise=tnoise)
        snap = dist.state_snapshot()
        for seq in seqs:
            assert snap.pi.dtype == seq.state.pi.dtype == np.dtype(dtype)
            assert_equivalent(snap, seq.state, dtype, n_workers)

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_threaded_free_run(self, problem, backend, dtype, n_threads):
        split, cfg = problem
        cfg = cfg.with_updates(kernel_backend=backend, dtype=dtype)
        thr = ThreadedAMMSBSampler(split.train, cfg, n_threads=n_threads)
        thr.run(8)
        for form in ROW_FORMS:
            seq = sequential(split.train, cfg, form)
            seq.run(8)
            assert_equivalent(thr.state, seq.state, dtype, n_threads)


class TestStatisticalAgreement:
    def test_free_running_engines_reach_similar_perplexity(self, problem):
        """Without replay, the engines use different RNG streams; their
        converged perplexities must agree statistically."""
        split, cfg = problem
        seq = AMMSBSampler(split.train, cfg, heldout=split)
        seq.run(1500, perplexity_every=100)
        dist = DistributedAMMSBSampler(split.train, cfg, cluster=das5(3), heldout=split)
        dist.run(1500, perplexity_every=100)
        a = seq.perplexity_estimator.value()
        b = dist.last_perplexity()
        assert abs(a - b) / a < 0.2
