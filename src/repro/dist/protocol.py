"""Algorithm 1's master protocol, written once over a transport.

One iteration is the paper's BSP stage sequence (Section III-C):

1. **draw/deploy** — the master deals iteration t's mini-batch (drawn
   ahead during the previous update_phi, or now) to the workers;
2. **update_phi** — each worker samples its neighbor sets and computes
   new ``pi`` rows from a consistent snapshot; meanwhile the master
   draws iteration t+1 (Section III-D); *barrier*;
3. **update_pi** — the workers write their rows back; *barrier*;
4. **update_beta** — the workers' pair-block theta partials are reduced
   at the master in block order, which updates theta and broadcasts
   beta (:func:`repro.core.stages.apply_theta`).

Perplexity deals part ``j`` of the statically partitioned E_h to rank
``ranks[j % len(ranks)]``.

A transport carries the four worker calls and holds the ranks:

- ``phi_compute(draw, beta, iteration, overlap)`` — deploy the shards,
  run ``overlap()`` while the workers compute, return at the barrier;
- ``pi_write()`` — the write-back of the rows ``phi_compute`` made;
- ``theta_partial(theta)`` — ``{pair block: partial}`` of every worker;
- ``perplexity(parts, beta)`` — ``p(y_ab)`` of each held-out part;
- ``ranks`` — who perplexity deals to; ``close()`` releases them.

:class:`~repro.dist.sampler.DistributedAMMSBSampler` drives the ranks in
this process (a simulated clock observes its calls);
:class:`~repro.dist.mp.MultiprocessAMMSBSampler` drives forked workers
over pipes. Only a pipe transport loses a worker: it raises
:class:`~repro.faults.WorkerCrashed`, its ``fence(workers)`` drops them
and rolls back the rows of an iteration in flight, and the protocol
re-deals the same draw to the survivors — so a recovered run is the
fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core import stages
from repro.core.kernels import KernelWorkspace
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import ModelState, init_state
from repro.dist.master import MasterContext, MasterDraw
from repro.dist.partition import partition_heldout
from repro.faults import WorkerCrashed
from repro.graph.graph import Graph, edge_keys
from repro.graph.split import HeldoutSplit


@dataclass(frozen=True)
class RecoveryEvent:
    """One healed failure: which workers were lost and when."""

    iteration: int
    workers: tuple[int, ...]
    stalled: bool


def _check_state(state: ModelState, n_vertices: int, n_communities: int) -> None:
    """Refuse a state that does not hold one row per vertex."""
    want = {
        "pi": (n_vertices, n_communities),
        "phi_sum": (n_vertices,),
        "theta": (n_communities, 2),
    }
    got = {name: np.shape(getattr(state, name)) for name in want}
    if got != want:
        raise ValueError(f"initial state: expected shapes {want}, got {got}")


class MasterLoop:
    """The master side of Algorithm 1 over the transport ``_connect``
    returns; the engines differ only in that transport.

    ``state`` (random otherwise) must hold ``pi`` ``(N, K)``, ``phi_sum``
    ``(N,)`` and ``theta`` ``(K, 2)``; it is checked before ``_connect``
    builds anything.
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        n_workers: int,
        heldout: Optional[HeldoutSplit],
        state: Optional[ModelState],
    ) -> None:
        self.graph = graph
        self.kernels, self.config = stages.pinned_backend(config)
        self.workspace = KernelWorkspace()
        init = state if state is not None else init_state(graph.n_vertices, self.config)
        _check_state(init, graph.n_vertices, self.config.n_communities)

        heldout_keys = None
        if heldout is not None:
            heldout_keys = np.sort(edge_keys(heldout.heldout_pairs, graph.n_vertices))
        self.master = MasterContext(graph, self.config, n_workers, heldout_keys)
        self.theta = init.theta.copy()
        self.recoveries: list[RecoveryEvent] = []
        self.iteration = 0
        self._closed = False
        self.transport = self._connect(init, heldout_keys)

        # Static E_h partition over the ranks, each part with its own
        # running average; the parts outlive worker losses.
        self._heldout_parts: list[PerplexityEstimator] = []
        if heldout is not None:
            parts = partition_heldout(
                heldout.heldout_pairs, heldout.heldout_labels, len(self.transport.ranks)
            )
            self._heldout_parts = [PerplexityEstimator(*p, self.config.delta) for p in parts]

    def _connect(self, init: ModelState, heldout_keys: Optional[np.ndarray]):
        """Build the transport over rows holding ``init``."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the transport; the sampler refuses further work."""
        if self._closed:
            return
        self._closed = True
        self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("sampler is closed")

    def _recover(self, crash: WorkerCrashed) -> None:
        """Drop the lost workers and deal over the survivors from now on:
        the dead worker's share re-partitioned mid-run, as the paper's
        static layout never could."""
        lost = self.transport.fence(crash.workers)
        if lost:
            self.recoveries.append(RecoveryEvent(self.iteration, lost, crash.stalled))
        if not self.transport.ranks:
            self.close()
            raise RuntimeError(f"all workers lost at iteration {self.iteration}") from crash
        self.master.n_workers = len(self.transport.ranks)

    # -- derived views -------------------------------------------------------------

    @property
    def beta(self) -> np.ndarray:
        return self.theta[:, 1] / self.theta.sum(axis=1)

    # -- one iteration ---------------------------------------------------------------

    def step(self) -> None:
        """One BSP iteration. The draw is kept until the iteration commits:
        after a worker loss the same draw is re-dealt to the survivors
        (losses are in :attr:`recoveries`)."""
        self._check_open()
        draw = self.master.next_draw(self.iteration)
        while True:
            try:
                self._iterate(draw)
                break
            except WorkerCrashed as crash:
                self._recover(crash)
                draw = self.master.deal(draw.minibatch, draw.key)
        self.iteration += 1

    def _iterate(self, draw: MasterDraw) -> None:
        t = self.iteration
        self.transport.phi_compute(draw, self.beta, t, lambda: self.master.prefetch(t + 1))
        self.transport.pi_write()
        blocks = self.transport.theta_partial(self.theta)
        self.theta = stages.apply_theta(
            self.kernels, self.workspace, self.config, self.theta, blocks, t
        )

    def run(self, n_iterations: int, perplexity_every: int = 0) -> None:
        """Run iterations; optionally evaluate perplexity periodically."""
        for _ in range(n_iterations):
            self.step()
            if (
                perplexity_every
                and self._heldout_parts
                and self.iteration % perplexity_every == 0
            ):
                self.evaluate_perplexity()

    # -- perplexity ---------------------------------------------------------------

    def evaluate_perplexity(self) -> float:
        """One distributed perplexity pass (Eqn 7, sample-averaged): each
        rank evaluates its static E_h parts against the current rows,
        each part adds to its running average, the log-sums are pooled."""
        self._check_open()
        if not self._heldout_parts:
            raise RuntimeError("no held-out split was provided")
        while True:
            try:
                probs = self.transport.perplexity(self._heldout_parts, self.beta)
                break
            except WorkerCrashed as crash:
                self._recover(crash)
        for part, p in zip(self._heldout_parts, probs):
            part.add(p)
        return stages.pooled_perplexity(self._heldout_parts)

    def last_perplexity(self) -> float:
        """The current averaged perplexity without a new sample."""
        return stages.pooled_perplexity(self._heldout_parts)
