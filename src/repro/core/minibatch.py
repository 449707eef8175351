"""Mini-batch strategies and their unbiasedness scale factors h(E_n).

Two strategies from [Li, Ahn, Welling 2015] (the algorithm the paper
distributes):

- **random-pair** — sample pairs uniformly from V x V; the scale factor is
  ``total_pairs / |E_n|``. Simple but high-variance because links are rare.
- **stratified-random-node** (default) — repeatedly pick a random vertex
  ``a``; with probability 1/2 take *all* of a's training links as the
  stratum (scale ``N/2``), otherwise take one random partition (of ``m``)
  of a's non-links (scale ``N * m / 2``). The minus-variance workhorse;
  one draw touches ~degree(a) vertices, so several draws are batched until
  the configured mini-batch vertex budget M is reached — this is exactly
  what gives the paper its ``M = 16384`` mini-batches.

A :class:`Minibatch` is a list of :class:`Stratum` (each with its own
scale factor, so the theta gradient stays unbiased when strata are mixed)
plus the deduplicated vertex set that update_phi will treat.

Neighbor sets V_n for update_phi are sampled here too
(:func:`sample_neighbor_sets`, which every engine calls): n uniform
vertices per mini-batch vertex, with held-out pairs masked out so test
data never leaks into training. Both ``y_ab`` and the held-out test are
row lookups (:func:`repro.graph.graph.rows_contain`) in the adjacency of
the mini-batch vertices only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.graph.graph import Graph, in_sorted


@dataclass(frozen=True)
class Stratum:
    """A set of same-kind pairs sharing one scale factor.

    Attributes:
        pairs: (E, 2) vertex pairs.
        labels: (E,) bool link indicators.
        scale: h contribution — multiply this stratum's summed gradient by
            it to get an unbiased full-graph estimate.
    """

    pairs: np.ndarray
    labels: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError("pairs must be (E, 2)")
        if self.labels.shape != (self.pairs.shape[0],):
            raise ValueError("labels must match pairs")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def concat_strata(
    strata: list["Stratum"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated (pairs, labels, per-pair scales) over a stratum list.

    The per-pair scale array carries each stratum's h-factor per edge, so
    one weighted theta-gradient call over the concatenation equals the
    per-stratum ``sum_s scale_s * grad_s`` loop — every engine batches its
    strata through this helper in the same order, keeping the engines'
    float-summation orders aligned.
    """
    if not strata:
        z = np.zeros(0, dtype=np.int64)
        return z.reshape(0, 2), z.astype(bool), z.astype(np.float64)
    pairs = np.vstack([s.pairs for s in strata])
    labels = np.concatenate([s.labels for s in strata])
    scales = np.concatenate([
        np.full(s.pairs.shape[0], s.scale) for s in strata
    ])
    return pairs, labels, scales


@dataclass(frozen=True)
class Minibatch:
    """One iteration's worth of sampled data."""

    strata: list[Stratum]
    vertices: np.ndarray  # unique mini-batch vertices, sorted

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.size)

    @property
    def n_edges(self) -> int:
        return int(sum(s.pairs.shape[0] for s in self.strata))

    def all_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (pairs, labels, per-pair scales)."""
        return concat_strata(self.strata)


@dataclass(frozen=True)
class NeighborSample:
    """Sampled neighbor sets for the phi update.

    Attributes:
        neighbors: (m, n) vertex ids.
        labels: (m, n) bool link indicators against the *training* graph.
        mask: (m, n) bool; False entries (held-out collisions, self pairs)
            are excluded from the gradient sum and the per-row count.
    """

    neighbors: np.ndarray
    labels: np.ndarray
    mask: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Effective |V_n| per row, shape (m, 1)."""
        return self.mask.sum(axis=1, keepdims=True)


def heldout_rows(heldout_keys: Optional[np.ndarray], n_vertices: int) -> Optional[Graph]:
    """The held-out pairs (canonical keys) as a graph, ``None`` when empty.

    Built once per engine so that held-out exclusion is a lookup in the
    few held-out pairs of the mini-batch rows, not a search of E_h.
    """
    if heldout_keys is None or not len(heldout_keys):
        return None
    lo, hi = np.divmod(np.unique(np.asarray(heldout_keys, dtype=np.int64)), n_vertices)
    return Graph(n_vertices, np.column_stack([lo, hi])[lo != hi])


def sample_neighbor_sets(
    vertices: np.ndarray,
    rng: np.random.Generator,
    n_vertices: int,
    n_sample: int,
    links_against: Callable[[np.ndarray], np.ndarray],
    heldout: Optional[Graph],
) -> NeighborSample:
    """Sample V_n (``n_sample`` uniform vertices) per mini-batch vertex.

    The one neighbor-sampling routine of every engine. ``links_against``
    answers ``y_ab`` for an (m, n) candidate matrix against the rows of
    ``vertices`` and is the only thing that differs between them:
    ``Graph.links_from`` on the training graph or on a mapped CSR
    container, ``AdjacencySlice.links_against`` on a scattered slice.

    Self-pairs and held-out pairs are masked out rather than resampled,
    which keeps the draw vectorized; the phi update divides by the
    per-row effective count, so the estimator stays unbiased.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    neighbors = rng.integers(0, n_vertices, size=(vertices.size, n_sample))
    mask = neighbors != vertices[:, None]
    if heldout is not None:
        mask &= ~heldout.links_from(vertices, neighbors)
    # Guarantee an active neighbor per row where one exists (degenerate
    # rows would otherwise divide by zero): replace the first column by
    # the next vertex id, unless that pair is itself held out.
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size:
        repl = (vertices[empty] + 1) % n_vertices
        neighbors[empty, 0] = repl
        active = repl != vertices[empty]
        if heldout is not None:
            active &= ~heldout.links_from(vertices[empty], repl[:, None])[:, 0]
        mask[empty, 0] = active
    labels = links_against(neighbors) & mask
    return NeighborSample(neighbors=neighbors, labels=labels, mask=mask)


class MinibatchSampler:
    """Draws mini-batches and neighbor sets from a training graph.

    Args:
        graph: training graph (held-out links already removed).
        config: sampler configuration.
        heldout_keys: sorted canonical keys of held-out pairs, excluded
            from non-link sampling and neighbor sets.
        nonlink_stratum_size: size of a sampled non-link stratum for the
            stratified strategy; defaults to ``max(64, avg_degree)``.
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        heldout_keys: Optional[np.ndarray] = None,
        nonlink_stratum_size: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.heldout_keys = (
            np.sort(np.asarray(heldout_keys, dtype=np.int64))
            if heldout_keys is not None and len(heldout_keys)
            else np.zeros(0, dtype=np.int64)
        )
        n = graph.n_vertices
        self.heldout = heldout_rows(self.heldout_keys, n)
        avg_degree = 2.0 * graph.n_edges / n if n else 0.0
        self.nonlink_stratum_size = int(
            nonlink_stratum_size
            if nonlink_stratum_size is not None
            else max(64, int(round(avg_degree)))
        )
        self.nonlink_stratum_size = min(self.nonlink_stratum_size, max(1, n - 1))
        # m partitions of each vertex's ~N non-links.
        self.n_partitions = max(1, int(np.ceil((n - 1) / self.nonlink_stratum_size)))

    # -- strata ------------------------------------------------------------

    def _link_stratum(self, a: int) -> Optional[Stratum]:
        nbrs = self.graph.neighbors(a)
        if nbrs.size == 0:
            return None
        pairs = np.column_stack([np.full(nbrs.size, a, dtype=np.int64), nbrs])
        # Unbiasedness (one draw): E_a[(1/2) * h * sum_{b in nbr(a)} g_ab]
        # = (h / 2N) * 2 * sum_{links} g, so h = N recovers sum over links.
        return Stratum(
            pairs=pairs,
            labels=np.ones(nbrs.size, dtype=bool),
            scale=float(self.graph.n_vertices),
        )

    def _nonlink_stratum(self, a: int, rng: np.random.Generator) -> Optional[Stratum]:
        n = self.graph.n_vertices
        size = self.nonlink_stratum_size
        # Rejection-sample `size` non-neighbors of a, avoiding held-out pairs.
        picked = np.zeros(0, dtype=np.int64)
        for _ in range(8):
            if picked.size >= size:
                break
            cand = rng.integers(0, n, size=2 * (size - picked.size) + 8)
            cand = cand[cand != a]
            valid = cand[~in_sorted(self.graph.neighbors(a), cand)]
            if self.heldout is not None:
                valid = valid[~in_sorted(self.heldout.neighbors(a), valid)]
            # Keep the first occurrence of each fresh vertex in candidate
            # order — identical picks (and RNG stream) to a scalar loop.
            _, first = np.unique(valid, return_index=True)
            fresh = valid[np.sort(first)]
            if picked.size:
                fresh = fresh[~np.isin(fresh, picked)]
            picked = np.concatenate([picked, fresh[: size - picked.size]])
        if not picked.size:
            return None
        bs = picked
        pairs = np.column_stack([np.full(bs.size, a, dtype=np.int64), bs])
        # One of m partitions of a's non-links, coin probability 1/2:
        # h = N * m recovers the sum over all non-link pairs (see link
        # stratum comment; the derivation is in tests/test_minibatch.py).
        return Stratum(
            pairs=pairs,
            labels=np.zeros(bs.size, dtype=bool),
            scale=float(self.graph.n_vertices * self.n_partitions),
        )

    # -- public API ----------------------------------------------------------

    #: full-batch strategy materializes all N^2/2 pairs; keep it honest.
    FULL_BATCH_MAX_VERTICES = 3000

    def sample(self, rng: np.random.Generator) -> Minibatch:
        """Draw one mini-batch according to the configured strategy."""
        if self.config.strategy == "random-pair":
            return self._sample_random_pair(rng)
        if self.config.strategy == "full-batch":
            return self._sample_full_batch()
        return self._sample_stratified(rng)

    def _sample_full_batch(self) -> Minibatch:
        n = self.graph.n_vertices
        if n > self.FULL_BATCH_MAX_VERTICES:
            raise ValueError(
                f"full-batch strategy limited to N <= {self.FULL_BATCH_MAX_VERTICES}"
            )
        pairs = np.column_stack(np.triu_indices(n, k=1)).astype(np.int64)
        pairs = pairs[~in_sorted(self.heldout_keys, pairs[:, 0] * np.int64(n) + pairs[:, 1])]
        labels = self.graph.has_edges(pairs)
        stratum = Stratum(pairs=pairs, labels=labels, scale=1.0)
        return Minibatch(strata=[stratum], vertices=np.arange(n, dtype=np.int64))

    def _sample_random_pair(self, rng: np.random.Generator) -> Minibatch:
        n = self.graph.n_vertices
        n_pairs = max(1, self.config.mini_batch_vertices // 2)
        a = rng.integers(0, n, size=2 * n_pairs + 8)
        b = rng.integers(0, n, size=2 * n_pairs + 8)
        ok = a != b
        pairs = np.column_stack([a, b])[ok]
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo * np.int64(n) + hi
        pairs = pairs[~in_sorted(self.heldout_keys, keys)][:n_pairs]
        if pairs.shape[0] == 0:
            raise RuntimeError("failed to sample any valid pair")
        labels = self.graph.has_edges(pairs)
        total_pairs = n * (n - 1) / 2.0
        stratum = Stratum(pairs=pairs, labels=labels, scale=total_pairs / pairs.shape[0])
        vertices = np.unique(pairs)
        return Minibatch(strata=[stratum], vertices=vertices)

    def _sample_stratified(self, rng: np.random.Generator) -> Minibatch:
        n = self.graph.n_vertices
        budget = self.config.mini_batch_vertices
        # The number of draws must be fixed *before* sampling: stopping when
        # the vertex budget fills would correlate the draw count with the
        # stratum contents (high-degree link strata fill the budget faster)
        # and bias the averaged estimator — a classic stopping-time bias we
        # caught with the unbiasedness test in tests/test_minibatch.py.
        avg_degree = 2.0 * self.graph.n_edges / n if n else 1.0
        expected_per_draw = 0.5 * (avg_degree + self.nonlink_stratum_size) + 1.0
        n_draws = max(1, int(round(budget / expected_per_draw)))
        strata: list[Stratum] = []
        vertex_set: list[np.ndarray] = []
        for _ in range(n_draws):
            a = int(rng.integers(0, n))
            if rng.random() < 0.5:
                s = self._link_stratum(a)
            else:
                s = self._nonlink_stratum(a, rng)
            if s is None:
                # A failed draw (isolated vertex / dense row) still counts:
                # an unbiased zero-contribution estimate.
                continue
            strata.append(s)
            vertex_set.append(np.unique(s.pairs))
        if not strata:
            raise RuntimeError("graph appears empty; cannot build a mini-batch")
        # Average the n_draws independent unbiased estimators: divide every
        # scale by n_draws (expectation unchanged, variance reduced).
        d = float(n_draws)
        strata = [
            Stratum(pairs=s.pairs, labels=s.labels, scale=s.scale / d) for s in strata
        ]
        vertices = np.unique(np.concatenate(vertex_set))
        return Minibatch(strata=strata, vertices=vertices)

    def sample_neighbors(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> NeighborSample:
        """Sample V_n per mini-batch vertex (:func:`sample_neighbor_sets`)."""
        return sample_neighbor_sets(
            vertices,
            rng,
            self.graph.n_vertices,
            self.config.neighbor_sample_size,
            partial(self.graph.links_from, vertices),
            self.heldout,
        )
