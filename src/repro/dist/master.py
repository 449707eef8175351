"""Master rank: owns E, draws mini-batches, partitions work.

The master is rank 0. It is the only rank holding the full edge set (13.5
GB for com-Friendster in the paper — too large to replicate), the
mini-batch sampler, and the authoritative copy of theta. In the
pipelined configuration the master draws iteration ``t+1``'s mini-batch
while the workers compute iteration ``t``'s update_phi (Section III-D).
A draw is the sequential engine's: iteration t's mini-batch, then its
neighbor-set key, from ``block_rng(seed, DRAW, 0, t)`` — a function of t
alone, so a draw made ahead is only a cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core.minibatch import DRAW, Minibatch, MinibatchSampler, block_rng, draw_key
from repro.dist.partition import WorkerShard, partition_minibatch, slice_bytes
from repro.graph.graph import Graph


@dataclass
class MasterDraw:
    """A prepared mini-batch and neighbor-set key with per-worker shards."""

    minibatch: Minibatch
    key: int
    shards: list[WorkerShard]

    def scatter_payload_bytes(self, degrees: np.ndarray) -> int:
        """The shards' bytes plus the CSR adjacency slice of each shard's
        vertices (``degrees``: the graph's), as the paper scatters them."""
        return sum(s.payload_bytes() + slice_bytes(degrees, s.vertices) for s in self.shards)


class MasterContext:
    """State and behaviour of rank 0.

    Args:
        graph: the full training graph (master-only).
        config: shared configuration.
        n_workers: worker count.
        heldout_keys: sorted canonical keys of held-out pairs.
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        n_workers: int,
        heldout_keys: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config
        self.n_workers = n_workers
        self.minibatch_sampler = MinibatchSampler(graph, config, heldout_keys=heldout_keys)
        #: The look-ahead: ``(t, minibatch, key)`` of a draw not yet dealt,
        #: so a worker loss in between never strands it.
        self._ahead: Optional[tuple[int, Minibatch, int]] = None

    def _sample(self, iteration: int) -> tuple[int, Minibatch, int]:
        rng = block_rng(self.config.seed, DRAW, 0, iteration)
        minibatch = self.minibatch_sampler.sample(rng)
        minibatch.all_pairs()  # concatenated in the look-ahead: a deal only cuts
        return iteration, minibatch, draw_key(rng)

    def deal(self, minibatch: Minibatch, key: int) -> MasterDraw:
        """Shard a drawn mini-batch across the current worker count (a
        retry after a worker loss re-deals the same draw)."""
        shards = partition_minibatch(minibatch, self.n_workers, key)
        return MasterDraw(minibatch=minibatch, key=key, shards=shards)

    def next_draw(self, iteration: int) -> MasterDraw:
        """Iteration ``iteration``'s draw, dealt over the current worker
        count: the looked-ahead one if it is held, else drawn now (the
        same bits). The pipelined runtimes call :meth:`prefetch` during
        update_phi of the previous iteration."""
        ahead, self._ahead = self._ahead, None
        if ahead is None or ahead[0] != iteration:
            ahead = self._sample(iteration)
        return self.deal(*ahead[1:])

    def prefetch(self, iteration: int) -> None:
        """Draw iteration ``iteration``'s mini-batch and key now (overlapped
        with update_phi); :meth:`next_draw` deals them. A no-op while that
        draw is held, so a retried iteration draws nothing twice."""
        if self._ahead is None or self._ahead[0] != iteration:
            self._ahead = self._sample(iteration)
