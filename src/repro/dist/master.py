"""Master rank: owns E, draws mini-batches, partitions work.

The master is rank 0. It is the only rank holding the full edge set (13.5
GB for com-Friendster in the paper — too large to replicate), the
mini-batch sampler state, and the authoritative copy of theta. In the
pipelined configuration the master prepares iteration ``t+1``'s mini-batch
while the workers compute iteration ``t``'s update_phi (Section III-D).
Its generator, ``rng``, is the sequential engine's master stream, seeded
and consumed alike (mini-batch, then neighbor-set key, prefetched or not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core.minibatch import Minibatch, MinibatchSampler, draw_key
from repro.dist.partition import WorkerShard, partition_minibatch
from repro.graph.graph import Graph


@dataclass
class MasterDraw:
    """A prepared mini-batch and neighbor-set key with per-worker shards."""

    minibatch: Minibatch
    key: int
    shards: list[WorkerShard]

    def scatter_payload_bytes(self) -> int:
        return sum(s.payload_bytes() for s in self.shards)


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
        ship_adjacency: bool = True,
    ) -> None:
        self.graph = graph
        self.config = config
        self.n_workers = n_workers
        # False when workers hold a shared mapped graph (dist.mp
        # graph_path mode): shards then carry no adjacency slices.
        self.ship_adjacency = ship_adjacency
        self.rng = np.random.default_rng(config.seed)
        self.minibatch_sampler = MinibatchSampler(graph, config, heldout_keys=heldout_keys)
        self._prefetched: Optional[MasterDraw] = None

    def draw(self) -> MasterDraw:
        """Draw a mini-batch and its neighbor-set key; build shards."""
        minibatch = self.minibatch_sampler.sample(self.rng)
        return self.deal(minibatch, draw_key(self.rng))

    def deal(self, minibatch: Minibatch, key: int) -> MasterDraw:
        """Shard a drawn mini-batch across the current worker count (a
        retry after a worker loss re-deals the same draw)."""
        shards = partition_minibatch(
            self.graph, minibatch, self.n_workers, key, with_adjacency=self.ship_adjacency
        )
        return MasterDraw(minibatch=minibatch, key=key, shards=shards)

    def next_draw(self) -> MasterDraw:
        """Return the prefetched draw if present, else draw now.

        The pipelined runtime calls :meth:`prefetch` during update_phi of
        the previous iteration; the non-pipelined runtime never prefetches,
        so this degrades to a synchronous draw.
        """
        if self._prefetched is not None:
            out, self._prefetched = self._prefetched, None
            return out
        return self.draw()

    def prefetch(self) -> None:
        """Prepare the next iteration's draw (overlapped with update_phi)."""
        if self._prefetched is None:
            self._prefetched = self.draw()
