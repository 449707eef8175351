"""E11: one trajectory from every engine, thread count and worker count.

Every random number past the mini-batch draw is keyed by (iteration,
block), the stages run over whole row / pair blocks and the theta
partials are summed in block order, so free runs of the threaded,
distributed and multiprocess engines end on the sequential engine's
state bit for bit — for every registered kernel backend, in float64 and
float32 storage alike. One assertion, :func:`assert_same_state`, says so.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.spec import das5
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import kernels
from repro.core.minibatch import PAIR_BLOCK, ROW_BLOCK
from repro.core.sampler import AMMSBSampler
from repro.core.state import ModelState
from repro.dist.mp import MultiprocessAMMSBSampler
from repro.dist.sampler import DistributedAMMSBSampler
from repro.graph.split import split_heldout
from repro.parallel.sampler import ThreadedAMMSBSampler

N_ITER = 20


@pytest.fixture(scope="module")
def problem():
    """Mini-batches of ~1,300 rows and >= 1,700 pairs: twenty row blocks
    and four pair blocks, so every worker count below splits both, and
    at three workers worker 0 reduces pair blocks 0 and 3."""
    from repro.graph.generators import planted_overlapping_graph

    graph, _ = planted_overlapping_graph(
        2000, 4, memberships_per_vertex=1, p_in=0.075, p_out=0.003,
        rng=np.random.default_rng(7),
    )
    split = split_heldout(graph, 0.03, np.random.default_rng(2))
    cfg = AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=2000,
        neighbor_sample_size=12,
        seed=5,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    draw = AMMSBSampler(split.train, cfg, heldout=split).minibatch_sampler.sample(
        np.random.default_rng(cfg.seed)
    )
    assert draw.n_vertices > 8 * ROW_BLOCK and draw.n_edges > 3 * PAIR_BLOCK
    return split, cfg


def assert_same_state(got: ModelState, want: ModelState) -> None:
    """The one equivalence assertion: the same bits."""
    assert got.pi.dtype == want.pi.dtype
    np.testing.assert_array_equal(got.pi, want.pi)
    np.testing.assert_array_equal(got.phi_sum, want.phi_sum)
    np.testing.assert_array_equal(got.theta, want.theta)


class TestSequentialVsThreaded:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_identical_given_same_seed(self, problem, n_threads):
        """Held-out tracking on: the same states and the same averaged
        perplexity, whatever the thread count."""
        split, cfg = problem
        seq = AMMSBSampler(split.train, cfg, heldout=split)
        thr = ThreadedAMMSBSampler(split.train, cfg, heldout=split, n_threads=n_threads)
        seq.run(N_ITER, perplexity_every=5)
        thr.run(N_ITER, perplexity_every=5)
        assert_same_state(thr.state, seq.state)
        assert thr.perplexity_estimator.value() == seq.perplexity_estimator.value()


# -- every engine x every registered backend x storage dtype x row form -------
#
# A new kernel backend or row store is covered here without a new test:
# the matrix is read from the registry. The sequential side runs once per
# form of the neighbor rows: deferred (what ``ModelState`` answers: the
# kernel gathers block by block) and gathered up front (what the DKV
# answers); the form never changes a bit.

MATRIX = [(b, d) for b in kernels.available_backends() for d in ("float64", "float32")]
ROW_FORMS = ("deferred", "gathered")


class GatheredState(ModelState):
    """A ``ModelState`` that answers the neighbor rows as a copy."""

    def read_rows(self, vertices, others):
        pi_a, phi_sum_a, pi_b = super().read_rows(vertices, others)
        return pi_a, phi_sum_a, kernels.gather_rows(pi_b)


def replay_stage_calls(seq: AMMSBSampler, n_iter: int) -> None:
    """``step()`` as its four public stage calls — how the benchmark's
    traced run drives the sequential engine."""
    draws = seq.minibatch_sampler
    for _ in range(n_iter):
        minibatch = draws.sample(seq.rng)
        neighbors = draws.sample_neighbors(minibatch.vertices, seq.rng)
        seq.update_phi_pi(minibatch, neighbors)
        seq.update_beta_theta(minibatch)
        seq.iteration += 1


@pytest.fixture(scope="module")
def sequential(problem):
    """``sequential(cfg, form, replayed)``: the sequential engine's state
    after ``N_ITER`` iterations, by ``run`` or by its stage calls."""
    split, _ = problem
    cache = {}

    def get(cfg, form, replayed=False):
        if (cfg, form, replayed) not in cache:
            seq = AMMSBSampler(split.train, cfg, heldout=split)
            if form == "gathered":
                seq.state = GatheredState(seq.state.pi, seq.state.phi_sum, seq.state.theta)
            if replayed:
                replay_stage_calls(seq, N_ITER)
            else:
                seq.run(N_ITER)
            cache[cfg, form, replayed] = seq.state
        return cache[cfg, form, replayed]

    return get


@pytest.mark.parametrize("backend,dtype", MATRIX)
class TestEngineMatrix:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_threaded_free_run(self, problem, sequential, backend, dtype, n_threads):
        split, cfg = problem
        cfg = cfg.with_updates(kernel_backend=backend, dtype=dtype)
        thr = ThreadedAMMSBSampler(split.train, cfg, heldout=split, n_threads=n_threads)
        thr.run(N_ITER)
        for form in ROW_FORMS:
            assert_same_state(thr.state, sequential(cfg, form))

    @pytest.mark.parametrize("n_workers", [1, 3, 4])
    def test_distributed_replay(self, problem, sequential, backend, dtype, n_workers):
        """Free distributed runs, pipelined and not, against the
        sequential engine replayed as its four stage calls."""
        split, cfg = problem
        cfg = cfg.with_updates(kernel_backend=backend, dtype=dtype)
        for pipelined in (True, False):
            dist = DistributedAMMSBSampler(
                split.train, cfg, cluster=das5(n_workers), heldout=split, pipelined=pipelined
            )
            dist.run(N_ITER)
            for form in ROW_FORMS:
                assert_same_state(dist.state_snapshot(), sequential(cfg, form, replayed=True))

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_mp_free_run(self, problem, sequential, backend, dtype, n_workers):
        split, cfg = problem
        cfg = cfg.with_updates(kernel_backend=backend, dtype=dtype)
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=n_workers, heldout=split) as mp:
            mp.run(N_ITER)
            assert_same_state(mp.state_snapshot(), sequential(cfg, "deferred"))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_mp_held_draw_carries_across_calls(problem, n_workers, dtype):
    """``run(3); evaluate_perplexity(); run(4)`` ≡ ``run(7)`` ≡ sequential:
    between calls the mp master holds the next iteration's draw, and a
    held-out evaluation in between neither moves nor strands it."""
    split, cfg = problem
    cfg = cfg.with_updates(dtype=dtype)
    with MultiprocessAMMSBSampler(split.train, cfg, n_workers=n_workers, heldout=split) as mp:
        mp.run(3)
        mp.evaluate_perplexity()
        mp.run(4)
        interrupted = mp.state_snapshot()
    with MultiprocessAMMSBSampler(split.train, cfg, n_workers=n_workers, heldout=split) as mp:
        mp.run(7)
        whole = mp.state_snapshot()
    seq = AMMSBSampler(split.train, cfg, heldout=split)
    seq.run(7)
    assert_same_state(interrupted, whole)
    assert_same_state(interrupted, seq.state)
