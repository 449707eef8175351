"""The one master protocol (``repro.dist.protocol``) over both transports.

The in-process engine and the multiprocess engine run one loop; what it
promises is held here once, for each of them: perplexity as a central
estimator computes it, ``run(n)`` as ``n`` steps, a draw keyed by the
iteration it is used at, a closed sampler refusing work, and the initial
state's shape checked before anything is built.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.cluster.spec import das5
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.perplexity import PerplexityEstimator
from repro.core.sampler import AMMSBSampler
from repro.core.state import ModelState, init_state
from repro.dist.mp import MultiprocessAMMSBSampler
from repro.dist.sampler import DistributedAMMSBSampler
from repro.graph.generators import planted_overlapping_graph
from repro.graph.split import split_heldout

ENGINES = ("simulated", "mp")


@pytest.fixture(scope="module")
def problem():
    graph, _ = planted_overlapping_graph(
        150, 4, memberships_per_vertex=1, p_in=0.25, p_out=0.005,
        rng=np.random.default_rng(7),
    )
    split = split_heldout(graph, 0.03, np.random.default_rng(2))
    cfg = AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=140,  # three row blocks: both workers own rows
        neighbor_sample_size=12,
        seed=5,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )
    return split, cfg


def make(engine, split, cfg, **kwargs):
    """Two workers of ``engine`` over ``split``'s training graph."""
    if engine == "simulated":
        return DistributedAMMSBSampler(split.train, cfg, cluster=das5(2), **kwargs)
    return MultiprocessAMMSBSampler(split.train, cfg, n_workers=2, **kwargs)


def assert_same_state(got: ModelState, want: ModelState) -> None:
    np.testing.assert_array_equal(got.pi, want.pi)
    np.testing.assert_array_equal(got.phi_sum, want.phi_sum)
    np.testing.assert_array_equal(got.theta, want.theta)


@pytest.mark.parametrize("engine", ENGINES)
class TestOneProtocol:
    def test_perplexity_is_the_central_estimators(self, problem, engine):
        """Parts evaluated by the ranks and pooled == one estimator fed
        the same snapshots; ``last_perplexity`` re-reads the value
        without adding a sample."""
        split, cfg = problem
        central = PerplexityEstimator(split.heldout_pairs, split.heldout_labels, cfg.delta)
        with make(engine, split, cfg, heldout=split) as s:
            assert s.last_perplexity() == float("inf")
            for _ in range(3):
                s.run(3)
                value = s.evaluate_perplexity()
                snap = s.state_snapshot()
                central.record(snap.pi, snap.beta)
                assert value == pytest.approx(central.value(), rel=1e-12)
                assert s.last_perplexity() == value

    def test_run_is_n_steps(self, problem, engine):
        split, cfg = problem
        with make(engine, split, cfg) as ran, make(engine, split, cfg) as stepped:
            assert ran.run(5) is None
            for _ in range(5):
                assert stepped.step() is None
            assert ran.iteration == stepped.iteration == 5
            assert_same_state(ran.state_snapshot(), stepped.state_snapshot())

    def test_a_held_draw_is_used_only_at_its_iteration(self, problem, engine):
        """The master holds t+1's draw; a clock moved in between (a
        resume, a stream generation) gets its own iteration's draw."""
        split, cfg = problem
        sequential = AMMSBSampler(split.train, cfg)
        with make(engine, split, cfg) as s:
            for sampler in (s, sequential):
                sampler.step()
                sampler.iteration = 5
                sampler.step()
            assert s.iteration == 6
            assert_same_state(s.state_snapshot(), sequential.state)

    def test_a_closed_sampler_refuses_work_and_records_nothing(self, problem, engine):
        split, cfg = problem
        s = make(engine, split, cfg, heldout=split)
        s.run(2)
        s.close()
        for call in (s.step, s.evaluate_perplexity):
            with pytest.raises(RuntimeError, match="sampler is closed"):
                call()
        assert s.iteration == 2
        assert s.recoveries == []
        s.close()  # idempotent


def _reshaped(state: ModelState, which: str) -> ModelState:
    fields = {"pi": state.pi, "phi_sum": state.phi_sum, "theta": state.theta}
    if which == "one_row":
        fields["pi"], fields["phi_sum"] = state.pi[:1], state.phi_sum[:1]
    elif which == "five_rows_short":
        fields["pi"], fields["phi_sum"] = state.pi[:-5], state.phi_sum[:-5]
    elif which == "phi_sum":
        fields["phi_sum"] = state.phi_sum[:-1]
    else:
        fields["theta"] = state.theta[:-1]
    return ModelState(**fields)


@pytest.mark.parametrize("which", ["one_row", "five_rows_short", "phi_sum", "theta"])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_state_that_does_not_fit_is_refused_before_anything_is_built(
    problem, engine, which, monkeypatch
):
    split, cfg = problem
    state = _reshaped(init_state(split.train.n_vertices, cfg), which)

    def no_segment(*_args, **_kwargs):
        raise AssertionError("a shared-memory segment was created for a refused state")

    monkeypatch.setattr(shared_memory, "SharedMemory", no_segment)
    n, k = split.train.n_vertices, cfg.n_communities
    with pytest.raises(ValueError, match="expected shapes") as err:
        make(engine, split, cfg, state=state)
    message = str(err.value)
    assert f"'pi': ({n}, {k})" in message
    assert f"'pi': {state.pi.shape}" in message
