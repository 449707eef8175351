"""Partitioning of mini-batches and held-out pairs.

The master owns E. For each iteration it scatters, per worker:

- its share of the mini-batch vertices: whole row blocks
  (:data:`~repro.core.minibatch.ROW_BLOCK`), dealt round-robin for
  balance, with the iteration's neighbor-set key;
- its share of the mini-batch pairs with their h-weights: whole pair
  blocks (:func:`~repro.core.minibatch.pair_bounds`), dealt round-robin,
  used by the update_beta stage.

Every worker answers ``y_ab`` with ``Graph.links_from(shard.vertices, ·)``
from the graph it holds (a forked mp worker inherits the master's). The
paper's master also ships the CSR adjacency slice of the shard vertices
("the subset of E touched by the mini-batch", Section III-A); the
simulated scatter charges those bytes (:func:`slice_bytes`) without
cutting the slice.

Blocks are fixed by the mini-batch alone, so a row's random numbers and
a pair block's partial do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.minibatch import ROW_BLOCK, Minibatch, n_blocks, pair_bounds


def slice_bytes(degrees: np.ndarray, vertices: np.ndarray) -> int:
    """Bytes of the CSR adjacency slice of ``vertices`` as the paper's
    master ships it: the vertex ids, ``indptr`` and the neighbor ids,
    8 bytes each — ``8·(2m+1) + 8·Σdeg(v)`` from the graph's degrees."""
    return 8 * (2 * vertices.size + 1) + 8 * int(degrees[vertices].sum())


@dataclass(frozen=True)
class WorkerShard:
    """Everything one worker receives for one iteration.

    ``vertices`` are the mini-batch rows of ``row_blocks`` and ``pairs``
    the pairs of ``pair_blocks``, each in block order; ``pair_bounds``
    are the offsets of those blocks in ``pairs``.
    """

    key: int  # the iteration's neighbor-set key
    row_blocks: tuple[int, ...]
    vertices: np.ndarray  # this worker's mini-batch vertices
    pair_blocks: tuple[int, ...]
    pair_bounds: np.ndarray  # (len(pair_blocks) + 1,) block offsets in pairs
    pairs: np.ndarray  # (E, 2) mini-batch pairs, for update_beta
    labels: np.ndarray
    weights: np.ndarray  # per-pair h-weights

    def payload_bytes(self) -> int:
        return int(
            self.vertices.nbytes + self.pairs.nbytes + self.labels.nbytes
            + self.weights.nbytes + self.pair_bounds.nbytes
            + 8 * (1 + len(self.row_blocks) + len(self.pair_blocks))
        )


def partition_minibatch(minibatch: Minibatch, n_workers: int, key: int) -> list[WorkerShard]:
    """Split a mini-batch into per-worker shards.

    Whole row blocks and whole pair blocks are dealt round-robin (the
    vertices arrive sorted and degree-skewed, so round-robin balances
    both count and expected adjacency size).
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    pairs, labels, weights = minibatch.all_pairs()
    # The worker each row and each pair goes to, block by block.
    m = minibatch.n_vertices
    sizes = np.diff(pair_bounds(len(pairs)))
    row_owner = np.arange(m) // ROW_BLOCK % n_workers
    pair_owner = np.repeat(np.arange(sizes.size) % n_workers, sizes)
    shards = []
    for w in range(n_workers):
        rows, cut = row_owner == w, pair_owner == w
        shards.append(
            WorkerShard(
                key=key,
                row_blocks=tuple(range(w, n_blocks(m, ROW_BLOCK), n_workers)),
                vertices=minibatch.vertices[rows],
                pair_blocks=tuple(range(w, sizes.size, n_workers)),
                pair_bounds=np.concatenate([[0], np.cumsum(sizes[w::n_workers])]),
                pairs=pairs[cut],
                labels=labels[cut],
                weights=weights[cut],
            )
        )
    return shards


def partition_heldout(
    pairs: np.ndarray, labels: np.ndarray, n_ranks: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Static round-robin partition of E_h over all machines (master too)."""
    return [(pairs[r::n_ranks], labels[r::n_ranks]) for r in range(n_ranks)]
