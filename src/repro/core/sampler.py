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

An iteration is a draw (:meth:`AMMSBSampler._draw`: the mini-batch,
its neighbor sets and the phi stage's noise, everything of iteration t
that reads no state) and an apply (:meth:`AMMSBSampler._apply`: the phi
and theta stages). So :meth:`AMMSBSampler.run` draws iteration t+1 in a
forked :class:`DrawProcess` while iteration t is applied in the calling
one, uses that draw when the clock reads t+1, and before it returns asks
for the next call's first draw. The process is forked at the first
``run(n >= 2)`` and lives as long as the sampler
(:meth:`AMMSBSampler.close`, ``with``, or the sampler's collection end
it): it draws from the sampler as it was at that fork, so the graph and
the mini-batch sampler are fixed for a sampler's life. A
:class:`~repro.stream.trainer.StreamTrainer` owns one process for all its
generations and re-arms it on each generation's graph.
:attr:`IterationStats.draw_wait_s` is what the calling process still
waited for its draw.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import signal
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, TypeVar

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


class Draw(NamedTuple):
    """Everything of one iteration that reads no state."""

    minibatch: Minibatch
    neighbors: NeighborSample
    #: the phi stage's noise for every mini-batch row (:func:`repro.core.stages.phi_noise`)
    noise: np.ndarray


def draw_iteration(
    minibatch_sampler: MinibatchSampler, config: AMMSBConfig, iteration: int
) -> Draw:
    """Iteration ``iteration``'s draw: the mini-batch, then its neighbor
    sets under a key drawn right after it, both from ``block_rng(seed,
    DRAW, 0, iteration)``, then the phi noise of its row blocks. Reads
    the graph and the iteration, never the state."""
    rng = block_rng(config.seed, DRAW, 0, iteration)
    minibatch = minibatch_sampler.sample(rng)
    neighbors = minibatch_sampler.sample_neighbors(minibatch.vertices, rng)
    m = minibatch.n_vertices
    noise = stages.phi_noise(config, iteration, range(n_blocks(m, ROW_BLOCK)), m)
    return Draw(minibatch, neighbors, noise)


#: Bytes of the shared slot a draw crosses in (virtual until written: a
#: draw touches its own prefix). A draw that does not fit is drawn inline.
SLOT_BYTES = 1 << 25
_ALIGN = 64  # each array starts at a multiple of this in the slot
_N_ARRAYS = 9
#: a reply's header, in int64s: (epoch, iteration, fits, graph digest),
#: then (dtype char, rows, columns or -1) per array
_HEADER = 4 + 3 * _N_ARRAYS


def _arrays(draw: Draw) -> list[np.ndarray]:
    minibatch, neighbors = draw.minibatch, draw.neighbors
    pairs, labels, _ = minibatch.all_pairs()
    sizes = np.array([s.labels.size for s in minibatch.strata], dtype=np.int64)
    scales = np.array([s.scale for s in minibatch.strata], dtype=np.float64)
    return [
        pairs, labels, sizes, scales, minibatch.vertices,
        neighbors.neighbors, neighbors.labels, neighbors.mask, draw.noise,
    ]


def _pack(slot: mmap.mmap, header: np.ndarray, arrays: list[np.ndarray]) -> bool:
    """Write ``arrays`` back to back into ``slot`` and their dtypes and
    shapes into ``header``; False if they do not fit."""
    at = 0
    for i, a in enumerate(arrays):
        header[4 + 3 * i : 7 + 3 * i] = ord(a.dtype.char), a.shape[0], (a.shape + (-1,))[1]
        at = -(-at // _ALIGN) * _ALIGN
        if at + a.nbytes > len(slot):
            return False
        if a.size:
            np.frombuffer(slot, a.dtype, a.size, at).reshape(a.shape)[...] = a
        at += a.nbytes
    return True


def _unpack(slot: mmap.mmap, header: np.ndarray, copy: np.ndarray) -> Draw:
    """The draw ``header`` describes, as views into ``copy``, where the
    slot's used prefix is copied first (the slot is the next draw's once
    this returns)."""
    fields, spans, at = header.tolist(), [], 0
    for i in range(4, _HEADER, 3):
        char, rows, cols = fields[i : i + 3]
        dtype, shape = np.dtype(chr(char)), (rows,) if cols < 0 else (rows, cols)
        at = -(-at // _ALIGN) * _ALIGN
        count = rows if cols < 0 else rows * cols
        spans.append((at, at + dtype.itemsize * count, dtype, shape))
        at = spans[-1][1]
    used = copy[:at]
    used[...] = np.frombuffer(slot, np.uint8, at)
    (pairs, labels, sizes, scales, vertices, neighbors, neighbor_labels, mask, noise) = (
        used[a:b].view(dtype).reshape(shape) for a, b, dtype, shape in spans
    )
    return Draw(
        Minibatch.from_pairs(pairs, labels, sizes, scales, vertices),
        NeighborSample(neighbors, neighbor_labels, mask),
        noise,
    )


Arm = Callable[..., tuple[Optional[Callable[[int], Draw]], int]]


def _serve_draws(
    draw: Optional[Callable[[int], Draw]], arm: Optional[Arm], conn, parent_end,
    slot: mmap.mmap,
) -> None:
    """The draw process: answer each iteration number with a header and,
    when the draw fits, the draw in the slot; a failed draw (the parent
    draws it again, and the error surfaces there with its own traceback)
    or one too large is a header marked as not fitting. A re-arm message
    ``(args,)`` replaces the draw by ``arm(*args)``'s and starts the next
    epoch. Ends when the parent closes its end."""
    parent_end.close()  # else the parent closing its end is no EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    header = np.zeros(_HEADER, dtype=np.int64)
    epoch = digest = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # the parent closed its end
            return
        if isinstance(message, tuple):
            epoch += 1
            try:
                draw, digest = arm(*message[0])
            except Exception:
                draw, digest = None, 0
            continue
        header[:4] = epoch, message, 0, digest
        try:
            header[2] = draw is not None and _pack(slot, header, _arrays(draw(message)))
        except Exception:
            pass
        try:
            conn.send_bytes(header)
        except OSError:
            return


class DrawProcess:
    """One forked process drawing iterations ahead; holds no reference to
    a sampler, so a sampler's finalizer can close it.

    Draws cross in one shared anonymous mapping made before the fork, a
    single slot: the child writes a draw there only once asked for it,
    and the parent asks for the next only after copying the last one
    out. The pipe carries the iteration numbers one way and fixed-size
    int64 headers the other. A draw is keyed by (epoch, iteration): a
    re-arm (:meth:`arm`) starts a new epoch, so a draw asked for on the
    old graph is never taken on the new one.

    Args:
        draw: iteration -> :class:`Draw`, run in the child.
        arm: run in the child on each :meth:`arm` with its arguments;
            returns the new draw function (None: every draw fails) and
            a digest of what it drew from, carried on every later reply.
    """

    def __init__(self, draw: Optional[Callable[[int], Draw]], arm: Optional[Arm] = None) -> None:
        ctx = mp.get_context("fork")
        self._slot = mmap.mmap(-1, SLOT_BYTES)
        self._conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve_draws, args=(draw, arm, child_end, self._conn, self._slot),
            daemon=True,
        )
        self.process.start()
        child_end.close()
        self._header = np.zeros(_HEADER, dtype=np.int64)
        # what a taken draw's arrays are views into: as large as the slot,
        # resident only as far as draws reached, reused while no view of
        # the last draw is left (a fresh copy per draw churned malloc and
        # raised the parent's peak resident set)
        self._copy = np.empty(SLOT_BYTES, dtype=np.uint8)
        #: replies asked for and not yet received
        self.owed = 0
        self.epoch = 0
        #: the digest the last reply carried (the child's ``arm`` result)
        self.digest = 0
        self.alive = True

    def _send(self, message) -> None:
        try:
            self._conn.send(message)
        except OSError:  # the process died
            self.close()

    def ask(self, iteration: int) -> None:
        self._send(iteration)
        if self.alive:
            self.owed += 1

    def arm(self, *args) -> None:
        """Re-arm the child with ``arm(*args)``; draws asked for before
        are drained, never taken."""
        self.epoch += 1
        self._send((args,))

    def take(self, iteration: int) -> Optional[Draw]:
        """The held draw of ``iteration`` in this epoch, or None: nothing
        asked, a stale, failed or too large reply (drained either way),
        or the process died."""
        if not self.owed:
            return None
        try:
            while self.owed:  # the slot holds the last reply's draw only
                self._conn.recv_bytes_into(self._header)
                self.owed -= 1
        except (EOFError, OSError):  # the process died
            self.close()
            return None
        epoch, held, fits, self.digest = self._header[:4].tolist()
        if not fits or (epoch, held) != (self.epoch, iteration):
            return None
        if sys.getrefcount(self._copy) > 2:  # the last draw is still held
            self._copy = np.empty(SLOT_BYTES, dtype=np.uint8)
        return _unpack(self._slot, self._header, self._copy)

    def close(self) -> None:
        """Kill and reap the process (it holds nothing to clean up); idempotent."""
        self.alive, self.owed = False, 0
        self.process.kill()
        self.process.join()
        self._conn.close()
        self._slot.close()


@dataclass
class IterationStats:
    """Bookkeeping for one iteration (used by tests and benchmarks)."""

    iteration: int
    n_minibatch_vertices: int
    n_minibatch_edges: int
    step_phi: float
    step_theta: float
    perplexity: Optional[float] = None
    #: seconds the calling process blocked on this iteration's draw. In
    #: ``step()`` the whole draw; in ``run()`` what the draw process had
    #: not finished plus the handoff (a header off the pipe, one copy out
    #: of the slot), or the whole draw inline where none was held for
    #: this iteration: a sampler's first run, a run after the clock was
    #: moved between calls, a generation's first iteration in a
    #: :class:`~repro.stream.trainer.StreamTrainer`, a draw too large
    #: for the slot
    draw_wait_s: float = 0.0


class AMMSBSampler:
    """Sequential SG-MCMC sampler for a-MMSB (Algorithm 1).

    Args:
        graph: training graph.
        config: hyperparameters and knobs.
        heldout: optional held-out split; enables perplexity tracking. When
            given, ``graph`` should be ``heldout.train``.
        state: optional initial state (random-initialized otherwise).
        _draws: a draw process its owner lends (a
            :class:`~repro.stream.trainer.StreamTrainer`'s, armed on
            ``graph``): used in place of one of the sampler's own, never
            forked again or closed by the sampler.

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
        *,
        _draws: Optional[DrawProcess] = None,
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
        self._rng = block_rng(config.seed, DRAW, 0, 0)
        self.iteration = 0
        self.history: list[IterationStats] = []
        self._ahead, self._lent = _draws, _draws is not None
        self._closed = False

    @property
    def iteration(self) -> int:
        """The clock: the iteration the next draw is of."""
        return self._iteration

    @iteration.setter
    def iteration(self, t: int) -> None:
        self._iteration, self._seated = t, False

    @property
    def rng(self) -> np.random.Generator:
        """The generator of the current iteration's draw, ``block_rng(seed,
        DRAW, 0, iteration)``: re-seated at its first use after the clock
        was set, to a new value or to the same one, so ``sample(rng)`` then
        ``sample_neighbors(vertices, rng)`` is this iteration's draw."""
        if not self._seated:
            self._seated = True
            seat(self._rng, self.config.seed, DRAW, 0, self.iteration)
        return self._rng

    def close(self) -> None:
        """End the draw process, if one was started (a lent one is only
        let go); idempotent. A closed sampler still runs, drawing every
        iteration inline."""
        self._closed = True
        if self._ahead is not None and not self._lent:
            self._ahead.close()
        self._ahead = None

    def __enter__(self) -> "AMMSBSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _draw_process(self, fork: bool) -> Optional[DrawProcess]:
        """The live draw process; one of the sampler's own is forked now
        when ``fork`` and there is none (the first run of two or more
        iterations, or the last one died). None once the sampler is
        closed, or when the lent one died."""
        if self._closed:
            return None
        if fork and not self._lent and (self._ahead is None or not self._ahead.alive):
            self._ahead = DrawProcess(self._draw)
            weakref.finalize(self, self._ahead.close)
        return self._ahead if self._ahead is not None and self._ahead.alive else None

    # -- update stages: repro.core.stages over this engine's executor -------

    def _map_blocks(
        self, fn: Callable[[int, int, kernels.KernelWorkspace], T], n: int
    ) -> list[T]:
        """Run ``fn(first, stop, workspace)`` over runs of whole blocks
        covering ``range(n)`` blocks; results in block order. This engine
        is the inline executor: one run, the sampler's own workspace."""
        return [fn(0, n, self.workspace)]

    def update_phi_pi(
        self, minibatch: Minibatch, neighbor_sample: NeighborSample,
        noise: Optional[np.ndarray] = None,
    ) -> None:
        """Stage: phi update (Eqn 5) + pi renormalization for the mini-batch.

        ``noise`` is the draw's (:func:`repro.core.stages.phi_noise` of
        the whole mini-batch), drawn here when not given. Runs of row
        blocks read shared state (pi rows of neighbors) and produce
        disjoint rows (their own mini-batch vertices), stored only after
        every run is done — the same argument the paper makes for the
        absence of read/write hazards in the DKV stages.
        """
        vs = minibatch.vertices
        beta = self.state.beta
        ns = neighbor_sample
        blocks = n_blocks(vs.size, ROW_BLOCK)
        if noise is None:
            noise = stages.phi_noise(self.config, self.iteration, range(blocks), vs.size)

        def run(first: int, stop: int, workspace: kernels.KernelWorkspace):
            rows = slice(first * ROW_BLOCK, stop * ROW_BLOCK)
            sample = NeighborSample(ns.neighbors[rows], ns.labels[rows], ns.mask[rows])
            return stages.phi_stage(
                self.state, self.kernels, workspace, self.config, self.graph.n_vertices,
                vs[rows], sample, noise[rows], beta, self.iteration,
            )

        parts = self._map_blocks(run, blocks)
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
        """Iteration ``iteration``'s draw (:func:`draw_iteration`)."""
        return draw_iteration(self.minibatch_sampler, self.config, iteration)

    def _apply(self, draw: Draw) -> IterationStats:
        """An iteration's update stages over its draw; advances the clock."""
        minibatch = draw.minibatch
        self.update_phi_pi(minibatch, draw.neighbors, draw.noise)
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
        stats = self._apply(draw)
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
        docstring), the next call's first included. A held draw is used
        only at the iteration it was drawn for, so a callback, a
        ``step()`` or an ``iteration =`` between calls that moves the
        clock is followed: the held draw is drained and the next one
        drawn inline. A draw that failed in the draw process is drawn
        again inline, so its error surfaces at the iteration that needs
        the draw; if the process died, the rest of the run draws inline,
        to the same bits.

        Args:
            n_iterations: iterations to run.
            perplexity_every: if > 0 (and a held-out split was given),
                record a posterior sample and evaluate averaged perplexity
                every that many iterations.
            callback: called after each iteration with its stats.
        """
        out = []
        ahead = self._draw_process(fork=n_iterations >= 2) if n_iterations else None
        for _ in range(n_iterations):
            start = time.perf_counter()
            draw = ahead.take(self.iteration) if ahead is not None else None
            if draw is None:
                draw = self._draw(self.iteration)
            waited = time.perf_counter() - start
            if ahead is not None and ahead.alive:
                ahead.ask(self.iteration + 1)  # after the last: the next call's first
            stats = self._apply(draw)
            del draw  # its arrays are views into the copy the next take() reuses
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
