"""Partitioning of mini-batches, strata, and adjacency slices.

The master owns E; workers never see the whole graph. For each iteration
the master scatters, per worker:

- its share of the mini-batch vertices (round-robin for balance),
- the CSR adjacency slice of exactly those vertices ("the subset of E
  touched by the mini-batch", paper Section III-A) — this is what lets a
  worker answer ``y_ab`` for any pair whose first endpoint is one of its
  mini-batch vertices,
- its share of the mini-batch strata (whole strata, round-robin), used by
  the update_beta stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.minibatch import Minibatch, Stratum
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

    ``adjacency`` is ``None`` when the runtime gives every worker a
    shared read-only memory-mapped graph instead (``graph_path`` mode in
    :mod:`repro.dist.mp`): the worker then answers ``y_ab`` straight
    from the mapped CSR, and the per-iteration adjacency payload
    disappears from the scatter entirely.
    """

    worker: int  # 0-based worker index (rank = worker + 1)
    vertices: np.ndarray  # this worker's mini-batch vertices
    adjacency: AdjacencySlice | None  # adjacency of exactly those vertices
    strata: list[Stratum] = field(default_factory=list)  # for update_beta

    def payload_bytes(self) -> int:
        strata_bytes = sum(
            s.pairs.nbytes + s.labels.nbytes + 8 for s in self.strata
        )
        adj_bytes = self.adjacency.payload_bytes() if self.adjacency is not None else 0
        return int(self.vertices.nbytes + adj_bytes + strata_bytes)


def partition_minibatch(
    graph: Graph, minibatch: Minibatch, n_workers: int, with_adjacency: bool = True
) -> list[WorkerShard]:
    """Split a mini-batch into per-worker shards.

    Vertices are dealt round-robin (they arrive sorted and degree-skewed,
    so round-robin balances both count and expected adjacency size);
    strata are dealt whole, round-robin by index.

    ``with_adjacency=False`` skips the CSR slice extraction and ships
    ``adjacency=None`` — for workers that hold a shared mapped graph.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    shards = []
    for w in range(n_workers):
        vs = minibatch.vertices[w::n_workers]
        shards.append(
            WorkerShard(
                worker=w,
                vertices=vs,
                adjacency=adjacency_slice(graph, vs) if with_adjacency else None,
                strata=list(minibatch.strata[w::n_workers]),
            )
        )
    return shards


def partition_heldout(
    pairs: np.ndarray, labels: np.ndarray, n_ranks: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Static round-robin partition of E_h over all machines (master too)."""
    return [(pairs[r::n_ranks], labels[r::n_ranks]) for r in range(n_ranks)]
