"""Sequential reference implementation of Algorithm 1.

This is the single-threaded ground truth the parallel engines are measured
against. Each iteration:

1. draw a mini-batch ``E_n`` (:class:`repro.core.minibatch.MinibatchSampler`);
2. for the mini-batch vertices, draw neighbor sets ``V_n`` and apply the
   SGRLD phi update (Eqns 5-6), renormalizing into pi;
3. apply the SGRLD theta update from the mini-batch edge gradients
   (Eqns 3-4) and derive beta.

All the numerics live in :mod:`repro.core.stages` (over the kernel
backends); this module only orchestrates. Noise is drawn through a
dedicated ``np.random.Generator`` so runs are reproducible and the
distributed engine can replay identical iterations (see
``tests/test_dist_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

import numpy as np

from repro.config import AMMSBConfig
from repro.core import kernels, stages
from repro.core.minibatch import Minibatch, MinibatchSampler, NeighborSample
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import ModelState, init_state
from repro.graph.graph import Graph
from repro.graph.split import HeldoutSplit

T = TypeVar("T")


@dataclass
class IterationStats:
    """Bookkeeping for one iteration (used by tests and benchmarks)."""

    iteration: int
    n_minibatch_vertices: int
    n_minibatch_edges: int
    step_phi: float
    step_theta: float
    perplexity: Optional[float] = None


class AMMSBSampler:
    """Sequential SG-MCMC sampler for a-MMSB (Algorithm 1).

    Args:
        graph: training graph.
        config: hyperparameters and knobs.
        heldout: optional held-out split; enables perplexity tracking. When
            given, ``graph`` should be ``heldout.train``.
        state: optional initial state (random-initialized otherwise).

    Example:
        >>> import numpy as np
        >>> from repro.config import AMMSBConfig
        >>> from repro.graph.generators import generate_ammsb_graph
        >>> g, _ = generate_ammsb_graph(200, 4, rng=np.random.default_rng(0))
        >>> s = AMMSBSampler(g, AMMSBConfig(n_communities=4))
        >>> _ = s.run(10)
        >>> s.state.pi.shape
        (200, 4)
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        heldout: Optional[HeldoutSplit] = None,
        state: Optional[ModelState] = None,
    ) -> None:
        self.graph = graph
        self.kernels, config = stages.pinned_backend(config)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.noise_rng = np.random.default_rng(config.seed + 1)
        heldout_keys = None
        self.perplexity_estimator: Optional[PerplexityEstimator] = None
        if heldout is not None:
            from repro.graph.graph import edge_keys

            heldout_keys = edge_keys(heldout.heldout_pairs, graph.n_vertices)
            self.perplexity_estimator = PerplexityEstimator(
                heldout.heldout_pairs, heldout.heldout_labels, config.delta
            )
        self.minibatch_sampler = MinibatchSampler(graph, config, heldout_keys=heldout_keys)
        self.state = state if state is not None else init_state(graph.n_vertices, config, self.rng)
        self.workspace = kernels.KernelWorkspace()
        self.iteration = 0
        self.history: list[IterationStats] = []

    # -- update stages: repro.core.stages over this engine's executor -------

    def _map_chunks(
        self, fn: Callable[[int, int, kernels.KernelWorkspace], T], n: int
    ) -> list[T]:
        """Run ``fn(start, stop, workspace)`` over chunks covering
        ``range(n)``; results in chunk order. This engine is the inline
        executor: one chunk, the sampler's own workspace."""
        return [fn(0, n, self.workspace)]

    def update_phi_pi(
        self,
        minibatch: Minibatch,
        neighbor_sample: NeighborSample,
        noise: Optional[np.ndarray] = None,
    ) -> None:
        """Stage: phi update (Eqn 5) + pi renormalization for the mini-batch.

        Chunks read shared state (pi rows of neighbors) and produce
        disjoint rows (their own mini-batch vertices), stored only after
        every chunk is done — the same argument the paper makes for the
        absence of read/write hazards in the DKV stages.
        """
        cfg = self.config
        vs = minibatch.vertices
        if noise is None:
            noise = self.noise_rng.standard_normal((vs.size, cfg.n_communities))
        eps_t = cfg.step_phi.at(self.iteration)
        beta = self.state.beta
        ns = neighbor_sample

        def chunk(a: int, b: int, workspace: kernels.KernelWorkspace):
            sample = NeighborSample(ns.neighbors[a:b], ns.labels[a:b], ns.mask[a:b])
            return stages.phi_stage(
                self.state, self.kernels, workspace, cfg, self.graph.n_vertices,
                vs[a:b], sample, beta, eps_t, noise[a:b],
            )

        parts = self._map_chunks(chunk, vs.size)
        pi_rows, phi_sum = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        self.state.write_rows(vs, pi_rows, phi_sum)

    def update_beta_theta(
        self, minibatch: Minibatch, noise: Optional[np.ndarray] = None
    ) -> None:
        """Stage: theta update (Eqn 3) from h-scaled stratum gradients.

        All strata are batched into one edge array with per-edge
        h-weights, which keep the mixed-strata estimator unbiased (the
        gradient is linear in the per-edge terms). Chunk partials are
        reduced in chunk order, so a multi-chunk executor matches this
        one up to float-addition reordering across chunk boundaries.
        """
        pairs, labels, scales = minibatch.all_pairs()
        theta = self.state.theta

        def chunk(a: int, b: int, workspace: kernels.KernelWorkspace) -> np.ndarray:
            return stages.theta_partial(
                self.state, self.kernels, workspace, self.config,
                pairs[a:b], labels[a:b], scales[a:b], theta,
            )

        grad_total, *rest = self._map_chunks(chunk, pairs.shape[0])
        for part in rest:
            grad_total = grad_total + part
        if noise is None:
            noise = self.noise_rng.standard_normal(theta.shape)
        self.state.theta = stages.apply_theta(
            self.kernels, self.workspace, self.config, theta, grad_total, self.iteration, noise
        )

    # -- main loop -----------------------------------------------------------

    def step(self) -> IterationStats:
        """Run one full iteration of Algorithm 1."""
        minibatch = self.minibatch_sampler.sample(self.rng)
        neighbor_sample = self.minibatch_sampler.sample_neighbors(minibatch.vertices, self.rng)
        self.update_phi_pi(minibatch, neighbor_sample)
        self.update_beta_theta(minibatch)
        stats = IterationStats(
            iteration=self.iteration,
            n_minibatch_vertices=minibatch.n_vertices,
            n_minibatch_edges=minibatch.n_edges,
            step_phi=self.config.step_phi.at(self.iteration),
            step_theta=self.config.step_theta.at(self.iteration),
        )
        self.iteration += 1
        self.history.append(stats)
        return stats

    def run(
        self,
        n_iterations: int,
        perplexity_every: int = 0,
        callback: Optional[Callable[[IterationStats], None]] = None,
    ) -> list[IterationStats]:
        """Run ``n_iterations``; optionally record perplexity periodically.

        Args:
            n_iterations: iterations to run.
            perplexity_every: if > 0 (and a held-out split was given),
                record a posterior sample and evaluate averaged perplexity
                every that many iterations.
            callback: called after each iteration with its stats.
        """
        out = []
        for _ in range(n_iterations):
            stats = self.step()
            if (
                perplexity_every
                and self.perplexity_estimator is not None
                and self.iteration % perplexity_every == 0
            ):
                self.perplexity_estimator.record(
                    self.state.pi, self.state.beta, iteration=self.iteration
                )
                stats.perplexity = self.perplexity_estimator.value()
            if callback:
                callback(stats)
            out.append(stats)
        return out

    def run_until_converged(
        self,
        max_iterations: int = 100_000,
        checkpoint_every: int = 200,
        perplexity_every: int = 50,
        monitor: Optional["ConvergenceMonitor"] = None,
    ) -> tuple[float, int]:
        """Run until the held-out perplexity trace flattens.

        This is the paper's operational convergence criterion ("the
        algorithm reached a stable state", Section IV-F) made explicit via
        :class:`repro.core.diagnostics.ConvergenceMonitor`.

        Args:
            max_iterations: hard budget.
            checkpoint_every: iterations between monitor updates.
            perplexity_every: iterations between posterior samples.
            monitor: custom monitor (default settings otherwise).

        Returns:
            ``(best_perplexity, iterations_run)``.

        Raises:
            RuntimeError: if no held-out split was provided.
        """
        if self.perplexity_estimator is None:
            raise RuntimeError("run_until_converged needs a held-out split")
        from repro.core.diagnostics import ConvergenceMonitor

        monitor = monitor or ConvergenceMonitor()
        start = self.iteration
        while self.iteration - start < max_iterations:
            self.run(checkpoint_every, perplexity_every=perplexity_every)
            if monitor.update(self.perplexity_estimator.value()):
                break
        return monitor.best, self.iteration - start
