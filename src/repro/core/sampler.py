"""Sequential reference implementation of Algorithm 1.

This is the single-threaded ground truth the parallel engines are measured
against. Each iteration:

1. draw a mini-batch ``E_n`` (:class:`repro.core.minibatch.MinibatchSampler`);
2. for the mini-batch vertices, draw neighbor sets ``V_n`` and apply the
   SGRLD phi update (Eqns 5-6), renormalizing into pi;
3. apply the SGRLD theta update from the mini-batch edge gradients
   (Eqns 3-4) and derive beta.

All the numerics live in :mod:`repro.core.stages` (over the kernel
backends); this module only orchestrates. An iteration is a pure function
of (seed, t, state): its mini-batch, then its neighbor-set key, come from
``block_rng(seed, DRAW, 0, t)``, and every other random number is keyed
by (iteration, block) (:func:`repro.core.minibatch.block_rng`). The
stages run over whole row and pair blocks and the theta partials are
summed in block order, so the threaded, distributed and multiprocess
engines end on this engine's state bit for bit, for every thread and
worker count (``tests/test_dist_equivalence.py``), and a state plus its
iteration resumes a run. :attr:`AMMSBSampler.rng` is the current
iteration's draw generator, for callers that replay the stages one call
at a time.

An iteration is a draw (:meth:`AMMSBSampler._draw`: mini-batch, then
neighbor sets) and an apply (:meth:`AMMSBSampler._apply`: the phi and
theta stages). The draw of t reads the graph and t, never the state, so
:meth:`AMMSBSampler.run` draws iteration t+1 in one forked process while
iteration t is applied in the calling one, and uses that draw when the
clock reads t+1. The process is forked at the first ``run(n >= 2)`` and
lives as long as the sampler (:meth:`AMMSBSampler.close`, ``with``, or
the sampler's collection end it): it draws from the sampler as it was at
that fork, so the graph and the mini-batch sampler are fixed for a
sampler's life. :attr:`IterationStats.draw_wait_s` is what the calling
process still waited for its draw.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

from repro.config import AMMSBConfig
from repro.core import kernels, stages
from repro.core.minibatch import (
    DRAW, ROW_BLOCK, Minibatch, MinibatchSampler, NeighborSample, block_rng, n_blocks,
    pair_bounds, seat,
)
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import ModelState, init_state
from repro.graph.graph import Graph
from repro.graph.split import HeldoutSplit

T = TypeVar("T")
Draw = tuple[Minibatch, NeighborSample]


def _serve_draws(draw: Callable[[int], Draw], conn, parent_end) -> None:
    """The draw process: answer each iteration number with ``(t, draw(t))``,
    or ``(t, None)`` when the draw raised (the parent draws t again and
    the error surfaces there, with its own traceback). Ends at EOF."""
    parent_end.close()  # else the parent closing its end is no EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            t = conn.recv()
        except EOFError:
            return
        try:
            reply = (t, draw(t))
        except Exception:
            reply = (t, None)
        conn.send(reply)


class _DrawProcess:
    """One forked process drawing iterations ahead for a sampler; holds no
    reference to the sampler, so the sampler's finalizer can close it."""

    def __init__(self, draw: Callable[[int], Draw]) -> None:
        ctx = mp.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve_draws, args=(draw, child_end, self._conn), daemon=True
        )
        self.process.start()
        child_end.close()
        #: the iteration asked for and not yet received
        self.pending: Optional[int] = None
        self.alive = True

    def ask(self, iteration: int) -> None:
        try:
            self._conn.send(iteration)
            self.pending = iteration
        except OSError:  # the process died
            self.close()

    def take(self, iteration: int) -> Optional[Draw]:
        """The held draw of ``iteration``, or None: nothing asked, a stale
        or failed reply (drained either way), or the process died."""
        if self.pending is None:
            return None
        try:
            held, draw = self._conn.recv()
        except (EOFError, OSError):  # the process died
            self.close()
            return None
        self.pending = None
        return draw if held == iteration else None

    def close(self) -> None:
        """Kill and reap the process (it holds nothing to clean up); idempotent."""
        self.alive, self.pending = False, None
        self._conn.close()
        self.process.kill()
        self.process.join()


@dataclass
class IterationStats:
    """Bookkeeping for one iteration (used by tests and benchmarks)."""

    iteration: int
    n_minibatch_vertices: int
    n_minibatch_edges: int
    step_phi: float
    step_theta: float
    perplexity: Optional[float] = None
    #: seconds the calling process blocked on this iteration's draw: all
    #: of it in ``step()`` and in ``run()``'s first iteration, afterwards
    #: only what the draw process had not finished
    draw_wait_s: float = 0.0


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
        heldout_keys = None
        self.perplexity_estimator: Optional[PerplexityEstimator] = None
        if heldout is not None:
            from repro.graph.graph import edge_keys

            heldout_keys = edge_keys(heldout.heldout_pairs, graph.n_vertices)
            self.perplexity_estimator = PerplexityEstimator(
                heldout.heldout_pairs, heldout.heldout_labels, config.delta
            )
        self.minibatch_sampler = MinibatchSampler(graph, config, heldout_keys=heldout_keys)
        self.state = state if state is not None else init_state(graph.n_vertices, config)
        self.workspace = kernels.KernelWorkspace()
        self.iteration = 0
        self.history: list[IterationStats] = []
        self._rng, self._seated_at = block_rng(config.seed, DRAW, 0, 0), 0
        self._ahead: Optional[_DrawProcess] = None
        self._closed = False

    @property
    def rng(self) -> np.random.Generator:
        """The generator of the current iteration's draw, ``block_rng(seed,
        DRAW, 0, iteration)``: re-seated whenever the clock has moved since
        it last was, so ``sample(rng)`` then ``sample_neighbors(vertices,
        rng)`` is this iteration's draw."""
        if self._seated_at != self.iteration:
            self._seated_at = self.iteration
            seat(self._rng, self.config.seed, DRAW, 0, self.iteration)
        return self._rng

    def close(self) -> None:
        """End the draw process, if one was started; idempotent. A closed
        sampler still runs, drawing every iteration inline."""
        self._closed = True
        if self._ahead is not None:
            self._ahead.close()
            self._ahead = None

    def __enter__(self) -> "AMMSBSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _draw_process(self) -> Optional[_DrawProcess]:
        """The live draw process, forked now if there is none (the first
        run, or the last one died); None once the sampler is closed."""
        if self._closed:
            return None
        if self._ahead is None or not self._ahead.alive:
            self._ahead = _DrawProcess(self._draw)
            weakref.finalize(self, self._ahead.close)
        return self._ahead

    # -- update stages: repro.core.stages over this engine's executor -------

    def _map_blocks(
        self, fn: Callable[[int, int, kernels.KernelWorkspace], T], n: int
    ) -> list[T]:
        """Run ``fn(first, stop, workspace)`` over runs of whole blocks
        covering ``range(n)`` blocks; results in block order. This engine
        is the inline executor: one run, the sampler's own workspace."""
        return [fn(0, n, self.workspace)]

    def update_phi_pi(self, minibatch: Minibatch, neighbor_sample: NeighborSample) -> None:
        """Stage: phi update (Eqn 5) + pi renormalization for the mini-batch.

        Runs of row blocks read shared state (pi rows of neighbors) and
        produce disjoint rows (their own mini-batch vertices), stored only
        after every run is done — the same argument the paper makes for
        the absence of read/write hazards in the DKV stages.
        """
        vs = minibatch.vertices
        beta = self.state.beta
        ns = neighbor_sample

        def run(first: int, stop: int, workspace: kernels.KernelWorkspace):
            rows = slice(first * ROW_BLOCK, stop * ROW_BLOCK)
            sample = NeighborSample(ns.neighbors[rows], ns.labels[rows], ns.mask[rows])
            return stages.phi_stage(
                self.state, self.kernels, workspace, self.config, self.graph.n_vertices,
                vs[rows], sample, beta, self.iteration, range(first, stop),
            )

        parts = self._map_blocks(run, n_blocks(vs.size, ROW_BLOCK))
        pi_rows, phi_sum = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        self.state.write_rows(vs, pi_rows, phi_sum)

    def update_beta_theta(self, minibatch: Minibatch) -> None:
        """Stage: theta update (Eqn 3) from h-scaled stratum gradients.

        All strata are batched into one pair array with per-pair
        h-weights, which keep the mixed-strata estimator unbiased (the
        gradient is linear in the per-pair terms), and cut into fixed
        pair blocks whose partials are summed in block order.
        """
        pairs, labels, scales = minibatch.all_pairs()
        theta = self.state.theta
        bounds = pair_bounds(len(pairs))

        def run(first: int, stop: int, workspace: kernels.KernelWorkspace):
            cut = slice(bounds[first], bounds[stop])
            return stages.theta_partials(
                self.state, self.kernels, workspace, self.config,
                pairs[cut], labels[cut], scales[cut], theta,
                bounds[first : stop + 1] - bounds[first],
            )

        runs = self._map_blocks(run, len(bounds) - 1)
        self.state.theta = stages.apply_theta(
            self.kernels, self.workspace, self.config, theta,
            dict(enumerate(part for parts in runs for part in parts)), self.iteration,
        )

    # -- main loop -----------------------------------------------------------

    def _draw(self, iteration: int) -> Draw:
        """Iteration ``iteration``'s draw: the mini-batch, then its neighbor
        sets under a key drawn right after it, both from ``block_rng(seed,
        DRAW, 0, iteration)``. Reads the graph only, never the state."""
        rng = block_rng(self.config.seed, DRAW, 0, iteration)
        minibatch = self.minibatch_sampler.sample(rng)
        return minibatch, self.minibatch_sampler.sample_neighbors(minibatch.vertices, rng)

    def _apply(self, minibatch: Minibatch, neighbor_sample: NeighborSample) -> IterationStats:
        """An iteration's update stages over its draw; advances the clock."""
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

    def step(self) -> IterationStats:
        """Run one full iteration of Algorithm 1."""
        start = time.perf_counter()
        draw = self._draw(self.iteration)
        waited = time.perf_counter() - start
        stats = self._apply(*draw)
        stats.draw_wait_s = waited
        return stats

    def run(
        self,
        n_iterations: int,
        perplexity_every: int = 0,
        callback: Optional[Callable[[IterationStats], None]] = None,
    ) -> list[IterationStats]:
        """Run ``n_iterations``; optionally record perplexity periodically.

        Ends on the state of ``n_iterations`` calls of :meth:`step` while
        drawing each next iteration in the draw process (module
        docstring). A held draw is used only at the iteration it was
        drawn for, so a callback that moves the clock (a ``step()``) is
        followed: the next draw is then taken inline. A draw that failed
        in the draw process is drawn again inline, so its error surfaces
        at the iteration that needs the draw; if the process died, the
        rest of the run draws inline, to the same bits.

        Args:
            n_iterations: iterations to run.
            perplexity_every: if > 0 (and a held-out split was given),
                record a posterior sample and evaluate averaged perplexity
                every that many iterations.
            callback: called after each iteration with its stats.
        """
        out = []
        ahead = self._draw_process() if n_iterations >= 2 else None
        for i in range(n_iterations):
            start = time.perf_counter()
            draw = ahead.take(self.iteration) if ahead is not None else None
            if draw is None:
                draw = self._draw(self.iteration)
            waited = time.perf_counter() - start
            if ahead is not None and ahead.alive and i + 1 < n_iterations:
                ahead.ask(self.iteration + 1)
            stats = self._apply(*draw)
            stats.draw_wait_s = waited
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
