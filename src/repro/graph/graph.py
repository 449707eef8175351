"""Compact undirected graph with CSR adjacency and two kinds of edge query.

The SG-MCMC algorithm needs three graph operations, all of which must be
fast and vectorized:

- enumerate the neighbors of a vertex (CSR slice) — used when the master
  scatters the mini-batch together with the touched slice of the edge set;
- test whether a pair is linked (``y_ab``) for whole arrays of pairs at
  once — used by update_phi on sampled neighbor sets and by the
  perplexity kernel on the held-out set;
- sample uniform non-link pairs — used by the held-out split and the
  stratified mini-batch sampler.

Edges are stored canonically (``a < b``) in a sorted key array
(``key = a * N + b``) and as CSR rows over both directions, sorted within
each row. Which ``y_ab`` query costs what:

- :meth:`Graph.has_edges` — any (m, 2) pair list (ingest dedup, random-pair
  and full-batch strata, analysis): one ``np.searchsorted`` over the global
  key array, O(log E) per pair and a cache miss per probe on a large graph.
- :meth:`Graph.links_from` / :func:`rows_contain` — an (m, n) candidate
  matrix whose row i is asked against the adjacency of one vertex, which is
  what every neighbor-sampling path asks: the m touched rows (the "subset
  of E touched by the mini-batch", paper Section III-A — from the graph, a
  scattered slice or a mapped CSR container) mark a scratch mask sized by
  their entries, and the few candidates the mask does not rule out are
  searched in one small sorted key array of those rows: O(1) per pair
  and O(log sum-of-degrees) per survivor, cache-resident.

E is kept once: ``edges`` is decoded from the keys on demand
(``divmod(key, N)``), so a graph holds 24 bytes per edge — 8 of key, 16
of CSR — and an edit rewrites two arrays, not three.

Graphs are immutable; two structural edits derive a new graph from the
sorted arrays of an old one without sorting them again — an O(E) copy plus
a search of the d changed edges in the CSR rows they touch, array-for-array
what ``Graph(n, edges)`` would build:

- :meth:`Graph.with_edges` — merge new pairs (and vertices) in: a stream
  generation's compaction;
- :meth:`Graph.subgraph` — delete edges by key: the held-out split.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def edge_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """Canonical keys ``min * n + max`` of the undirected pairs of an
    (m, 2) int array in an n-vertex graph."""
    pairs = np.asarray(pairs)
    lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    return lo * np.int64(n) + hi


def in_sorted(haystack: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Elementwise membership of ``values`` in the sorted 1-d ``haystack``."""
    if not haystack.size or not values.size:
        return np.zeros(values.shape, dtype=bool)
    idx = np.minimum(np.searchsorted(haystack, values), haystack.size - 1)
    return haystack[idx] == values


def rows_contain(
    indptr: np.ndarray, indices: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Whether row i of a compact CSR holds ``candidates[i, j]``; (m, n) bool.

    Rows must be sorted (every CSR in this package is). Most candidates
    are in no touched row, so a filter goes first: the rows' entries mark
    a scratch mask of at least 8 slots an entry, indexed by the low bits
    of the vertex id, and only the candidates whose slot is marked are
    searched. Row i's entries become keys ``i * stride + neighbor`` —
    already globally sorted — so those candidates are answered by one
    ``searchsorted`` against a key array the size of the touched rows;
    nothing is sized by E or N.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    m = candidates.shape[0]
    if len(indptr) != m + 1:
        raise ValueError("candidate matrix row count != CSR rows")
    low = (1 << int(8 * indices.size).bit_length()) - 1
    marked = np.zeros(low + 1, dtype=bool)
    marked[indices & low] = True
    hit = np.flatnonzero(marked[candidates & low])
    row, asked = hit // max(candidates.shape[1], 1), candidates.flat[hit]
    stride = max(int(indices.max(initial=0)), int(asked.max(initial=0))) + 1
    keys = np.repeat(np.arange(m, dtype=np.int64) * stride, np.diff(indptr)) + indices
    out = np.zeros(candidates.shape, dtype=bool)
    out.flat[hit] = in_sorted(keys, row * stride + asked)
    return out


def _decode(keys: np.ndarray, n: int) -> np.ndarray:
    """The (m, 2) canonical pairs ``(lo, hi)`` of keys ``lo * n + hi``."""
    lo, hi = np.divmod(keys, np.int64(n))
    return np.column_stack([lo, hi])


def _canonical_edges(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(edges, keys)`` of an (m, 2) pair list: ``lo < hi``, key-sorted."""
    if n <= 0:
        raise ValueError("graph needs at least one vertex")
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2), got {edges.shape}")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    if edges.size and np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("self-loops are not allowed")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if keys.size and np.any(np.diff(keys) == 0):
        raise ValueError("duplicate edges are not allowed")
    return np.column_stack([lo[order], hi[order]]), keys


class Graph:
    """Immutable undirected graph.

    Args:
        n_vertices: number of vertices (ids ``0 .. n-1``).
        edges: (m, 2) integer array of undirected edges. Duplicates and
            self-loops are rejected.

    Attributes:
        n_vertices: N.
        n_edges: number of undirected edges.
    """

    def __init__(self, n_vertices: int, edges: np.ndarray) -> None:
        self.n_vertices = int(n_vertices)
        edges, self._keys = _canonical_edges(self.n_vertices, edges)
        self.n_edges = int(self._keys.size)

        # CSR over both directions. ``edges`` is sorted by (lo, hi), so with
        # the (hi -> lo) entries first one stable sort by source leaves each
        # row sorted: neighbors below v in lo order, then those above it.
        src = np.concatenate([edges[:, 1], edges[:, 0]])
        dst = np.concatenate([edges[:, 0], edges[:, 1]])
        self._csr_indices = dst[np.argsort(src, kind="stable")]
        self._csr_indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n_vertices), out=self._csr_indptr[1:])

    @classmethod
    def from_csr(
        cls,
        n_vertices: int,
        keys: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        validate: bool = True,
    ) -> "Graph":
        """Construct a graph over already-canonical CSR arrays, zero-copy.

        ``__init__`` re-canonicalizes from scratch: an O(m log m) sort of
        the key array and a second sort for the adjacency, both of which
        allocate fresh arrays. When the
        arrays come out of a trusted producer (the CSR container written
        by :func:`repro.graph.io.save_csr`, whose bytes are sealed by
        per-array sha256 digests), that work is pure overhead and the
        copies defeat memory mapping. This fast path adopts the arrays
        *as given* — no sort, no copy; ``self._csr_indptr is indptr``
        holds afterwards — so a multi-GB graph can be served from
        read-only mapped files with only the touched pages resident.

        Args:
            n_vertices: N.
            keys: (m,) sorted canonical keys (``lo * N + hi``, ``lo < hi``).
            indptr: (N+1,) CSR row pointers over both edge directions.
            indices: (2m,) CSR neighbor ids, sorted within each row.
            validate: run O(N + m) *non-allocating-heavy* invariants
                (shape/monotonicity/range). Disable only for bytes you
                have digest-verified.
        """
        keys = np.asarray(keys)
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if validate:
            n = int(n_vertices)
            if n <= 0:
                raise ValueError("graph needs at least one vertex")
            if keys.ndim != 1:
                raise ValueError(f"keys must be (m,), got {keys.shape}")
            m = keys.shape[0]
            if indptr.shape != (n + 1,):
                raise ValueError(f"indptr must be ({n + 1},), got {indptr.shape}")
            if indices.shape != (2 * m,):
                raise ValueError(f"indices must be ({2 * m},), got {indices.shape}")
            if m and (int(indptr[0]) != 0 or int(indptr[-1]) != 2 * m):
                raise ValueError("indptr endpoints inconsistent with edge count")
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if keys.size and np.any(np.diff(keys) <= 0):
                raise ValueError("keys must be strictly increasing (canonical, deduped)")
            if keys.size and (int(keys[0]) < 1 or int(keys[-1]) >= n * n):
                raise ValueError("edge key out of range")
            if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= n):
                raise ValueError("CSR index out of range")
        g = cls.__new__(cls)
        g.n_vertices = int(n_vertices)
        g.n_edges = int(keys.shape[0])
        g._keys = keys
        g._csr_indptr = indptr
        g._csr_indices = indices
        return g

    # -- queries -----------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees, shape (N,)."""
        return np.diff(self._csr_indptr)

    def degree(self, v: int) -> int:
        return int(self._csr_indptr[v + 1] - self._csr_indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a view; do not mutate)."""
        return self._csr_indices[self._csr_indptr[v] : self._csr_indptr[v + 1]]

    def has_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorized linkedness test for an (m, 2) array; self-pairs -> False."""
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return np.zeros(0, dtype=bool)
        # Self-pairs produce key a*N+a, which cannot collide with any
        # canonical key lo*N+hi (lo < hi < N has a unique decomposition),
        # so they naturally test False.
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        return in_sorted(self._keys, lo * np.int64(self.n_vertices) + hi)

    def adjacency_slice(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR sub-slices for a vertex set.

        Returns ``(indptr, indices)`` of a compacted CSR that holds, for each
        requested vertex in order, its neighbor list. This is exactly the
        "subset of E touched by the mini-batch" the master scatters to the
        workers (paper Section III-A).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self._csr_indptr[vertices]
        counts = self._csr_indptr[vertices + 1] - starts
        out_indptr = np.zeros(len(vertices) + 1, dtype=np.int64)
        np.cumsum(counts, out=out_indptr[1:])
        # Loop-free ragged gather: position j of output row i reads
        # indices[starts[i] + j]; ``vertices`` may be unsorted and repeat.
        take = np.arange(out_indptr[-1], dtype=np.int64)
        take += np.repeat(starts - out_indptr[:-1], counts)
        return out_indptr, self._csr_indices[take]

    def links_from(self, vertices: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """``y_ab`` for ``a = vertices[i]``, ``b = candidates[i, j]``; (m, n) bool.

        Equal to :meth:`has_edges` on the same pairs (self-pairs test
        False), answered from the m touched rows alone.
        """
        return rows_contain(*self.adjacency_slice(vertices), candidates)

    # -- sampling ----------------------------------------------------------

    def sample_nonlink_pairs(
        self, m: int, rng: np.random.Generator, exclude_keys: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Sample ``m`` uniform unordered non-linked, non-self pairs.

        Rejection sampling; with the sparse graphs this model targets
        (density well below 1e-2) the expected number of rounds is ~1.
        ``exclude_keys`` (sorted) lets callers also avoid e.g. held-out pairs.
        """
        if m < 0:
            raise ValueError("m must be >= 0")
        n = self.n_vertices
        if n < 2:
            raise ValueError("need >= 2 vertices to sample pairs")
        picked = np.zeros((0, 2), dtype=np.int64)
        picked_keys = np.zeros(0, dtype=np.int64)
        for _ in range(100):  # rounds
            if len(picked) >= m:
                break
            need = (m - len(picked)) * 2 + 16
            a = rng.integers(0, n, size=need)
            b = rng.integers(0, n, size=need)
            ok = a != b
            cand = np.column_stack([np.minimum(a, b), np.maximum(a, b)])[ok]
            keys = cand[:, 0] * np.int64(n) + cand[:, 1]
            keep = ~in_sorted(self._keys, keys)
            if exclude_keys is not None:
                keep &= ~in_sorted(exclude_keys, keys)
            # Dedupe within the sample: the first occurrence of each fresh
            # key, in candidate order — the picks of a scalar seen-set loop.
            _, first = np.unique(keys[keep], return_index=True)
            fresh = np.flatnonzero(keep)[np.sort(first)]
            fresh = fresh[~np.isin(keys[fresh], picked_keys)]
            picked = np.concatenate([picked, cand[fresh]])[:m]
            picked_keys = np.concatenate([picked_keys, keys[fresh]])
        if len(picked) < m:
            raise RuntimeError(f"could not sample {m} non-link pairs (graph too dense?)")
        return picked

    # -- derived quantities --------------------------------------------------

    @property
    def keys(self) -> np.ndarray:
        """Sorted canonical keys of all edges (read-only view)."""
        return self._keys

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) canonical edges (``a < b``) in key order, decoded from the
        keys on each access (a fresh array: hold it, do not re-read it)."""
        return _decode(self._keys, self.n_vertices)

    # -- structural edits ----------------------------------------------------

    def _directed(self, pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, neighbors, at)`` of the 2d directed entries of canonical
        ``pairs`` in CSR order; ``at`` is where each sits (or belongs) in
        ``indices``. Found from the touched rows alone, as
        :func:`rows_contain` does: the rows' entries become the sorted keys
        ``slot * n + neighbor``, searched once. A row past this graph's
        vertices (a new vertex) is empty, so its entries go at the end."""
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        nbrs = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.argsort(rows * np.int64(n) + nbrs)
        rows, nbrs = rows[order], nbrs[order]
        at = np.full(rows.size, self._csr_indptr[-1], dtype=np.int64)
        old = int(np.searchsorted(rows, self.n_vertices))  # rows are sorted
        touched, slot = np.unique(rows[:old], return_inverse=True)
        indptr, indices = self.adjacency_slice(touched)
        offsets = np.arange(touched.size, dtype=np.int64) * n
        found = np.searchsorted(
            np.repeat(offsets, np.diff(indptr)) + indices, offsets[slot] + nbrs[:old]
        )
        at[:old] = self._csr_indptr[rows[:old]] + found - indptr[slot]
        return rows, nbrs, at

    def with_edges(self, pairs: np.ndarray, n_vertices: Optional[int] = None) -> "Graph":
        """Graph with ``pairs`` (and vertices up to ``n_vertices``) added.

        Equal, array for array, to ``Graph(n_vertices, concat(edges, pairs))``
        and rejects what that rejects, but sorts only ``pairs``: they are
        searched into the sorted key array and the sorted CSR rows.
        """
        n = self.n_vertices if n_vertices is None else int(n_vertices)
        if n < self.n_vertices:
            raise ValueError(f"cannot shrink {self.n_vertices} vertices to {n}")
        new_edges, new_keys = _canonical_edges(n, pairs)
        keys = self._keys
        if n != self.n_vertices:  # re-keying under a larger N keeps the (lo, hi) order
            lo = keys // self.n_vertices
            lo *= n - self.n_vertices
            lo += keys
            keys = lo
        if in_sorted(keys, new_keys).any():
            raise ValueError("duplicate edges are not allowed")
        rows, nbrs, csr_at = self._directed(new_edges, n)
        indptr = np.full(n + 1, self._csr_indptr[-1], dtype=np.int64)
        indptr[: self.n_vertices + 1] = self._csr_indptr
        indptr[1:] += np.cumsum(np.bincount(rows, minlength=n))
        return Graph.from_csr(  # canonical by construction: nothing to validate
            n,
            np.insert(keys, np.searchsorted(keys, new_keys), new_keys),
            indptr,
            np.insert(self._csr_indices, csr_at, nbrs),
            validate=False,
        )

    def subgraph(self, remove_keys: np.ndarray) -> "Graph":
        """Graph with the edges whose keys appear in ``remove_keys`` removed
        (keys of no edge are ignored), deleted from the sorted arrays."""
        remove_keys = np.unique(np.asarray(remove_keys, dtype=np.int64))
        at = np.searchsorted(self._keys, remove_keys)[in_sorted(self._keys, remove_keys)]
        rows, _, csr_at = self._directed(_decode(self._keys[at], self.n_vertices), self.n_vertices)
        indptr = self._csr_indptr.copy()
        indptr[1:] -= np.cumsum(np.bincount(rows, minlength=self.n_vertices))
        return Graph.from_csr(  # canonical by construction: nothing to validate
            self.n_vertices,
            np.delete(self._keys, at),
            indptr,
            np.delete(self._csr_indices, csr_at),
            validate=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(N={self.n_vertices}, |E|={self.n_edges})"
