"""Partitioning of mini-batches, strata, and adjacency slices.

The master owns E; workers never see the whole graph. For each iteration
the master scatters, per worker:

- its share of the mini-batch vertices: whole row blocks
  (:data:`~repro.core.minibatch.ROW_BLOCK`), dealt round-robin for
  balance, with the iteration's neighbor-set key;
- the CSR adjacency slice of exactly those vertices ("the subset of E
  touched by the mini-batch", paper Section III-A) — this is what lets a
  worker answer ``y_ab`` for any pair whose first endpoint is one of its
  mini-batch vertices;
- its share of the mini-batch pairs with their h-weights: whole pair
  blocks (:func:`~repro.core.minibatch.pair_bounds`), dealt round-robin,
  used by the update_beta stage.

Blocks are fixed by the mini-batch alone, so a row's random numbers and
a pair block's partial do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.minibatch import ROW_BLOCK, Minibatch, n_blocks, pair_bounds
from repro.graph.graph import Graph, rows_contain


@dataclass(frozen=True)
class AdjacencySlice:
    """Compact CSR over an explicit vertex list (the scattered E-subset)."""

    vertices: np.ndarray  # (m,) vertex ids, in slice order
    indptr: np.ndarray  # (m+1,)
    indices: np.ndarray  # (nnz,) neighbor ids, sorted per row

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def payload_bytes(self) -> int:
        return int(self.vertices.nbytes + self.indptr.nbytes + self.indices.nbytes)

    def row(self, i: int) -> np.ndarray:
        """Sorted adjacency of ``vertices[i]``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def links_against(self, neighbors: np.ndarray) -> np.ndarray:
        """Vectorized ``y_ab`` for a (m, n) neighbor matrix.

        Row i is tested against the adjacency of ``vertices[i]``
        (:func:`repro.graph.graph.rows_contain`).
        """
        return rows_contain(self.indptr, self.indices, neighbors)


def adjacency_slice(graph: Graph, vertices: np.ndarray) -> AdjacencySlice:
    """Extract the CSR slice of ``vertices`` from the master's graph."""
    vertices = np.asarray(vertices, dtype=np.int64)
    indptr, indices = graph.adjacency_slice(vertices)
    return AdjacencySlice(vertices=vertices, indptr=indptr, indices=indices)


@dataclass(frozen=True)
class WorkerShard:
    """Everything one worker receives for one iteration.

    ``vertices`` are the mini-batch rows of ``row_blocks`` and ``pairs``
    the pairs of ``pair_blocks``, each in block order; ``pair_bounds``
    are the offsets of those blocks in ``pairs``. ``adjacency`` is
    ``None`` when the workers hold the graph themselves
    (:mod:`repro.dist.mp`'s forked workers, which inherit it): the worker
    then answers ``y_ab`` from that graph, and the per-iteration adjacency
    payload disappears from the scatter entirely.
    """

    key: int  # the iteration's neighbor-set key
    row_blocks: tuple[int, ...]
    vertices: np.ndarray  # this worker's mini-batch vertices
    adjacency: AdjacencySlice | None  # adjacency of exactly those vertices
    pair_blocks: tuple[int, ...]
    pair_bounds: np.ndarray  # (len(pair_blocks) + 1,) block offsets in pairs
    pairs: np.ndarray  # (E, 2) mini-batch pairs, for update_beta
    labels: np.ndarray
    weights: np.ndarray  # per-pair h-weights

    def payload_bytes(self) -> int:
        adj_bytes = self.adjacency.payload_bytes() if self.adjacency is not None else 0
        return int(
            self.vertices.nbytes + adj_bytes + self.pairs.nbytes + self.labels.nbytes
            + self.weights.nbytes + self.pair_bounds.nbytes
            + 8 * (1 + len(self.row_blocks) + len(self.pair_blocks))
        )


def partition_minibatch(
    graph: Graph, minibatch: Minibatch, n_workers: int, key: int, with_adjacency: bool = True
) -> list[WorkerShard]:
    """Split a mini-batch into per-worker shards.

    Whole row blocks and whole pair blocks are dealt round-robin (the
    vertices arrive sorted and degree-skewed, so round-robin balances
    both count and expected adjacency size).

    ``with_adjacency=False`` skips the CSR slice extraction and ships
    ``adjacency=None`` — for workers that hold the graph themselves.
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
        vs = minibatch.vertices[rows]
        shards.append(
            WorkerShard(
                key=key,
                row_blocks=tuple(range(w, n_blocks(m, ROW_BLOCK), n_workers)),
                vertices=vs,
                adjacency=adjacency_slice(graph, vs) if with_adjacency else None,
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
