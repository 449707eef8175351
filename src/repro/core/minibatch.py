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

Every random number of an iteration is keyed by *what* is computed, not
by who computes it or what ran before: iteration t's mini-batch and then
its neighbor-set key come from ``block_rng(seed, DRAW, 0, t)``; the
mini-batch rows fall into fixed blocks of :data:`ROW_BLOCK`, its pairs
into :func:`pair_bounds`' blocks, and every per-block random number comes
from :func:`block_rng`, a counter-based generator that is a pure function
of (key, stream, block, iteration). So every engine, thread count and
worker count draws the same mini-batch, neighbor sets and noise for the
same iteration and row, and a state plus its iteration resumes a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from repro.config import AMMSBConfig
from repro.graph.graph import Graph, in_sorted

#: Mini-batch rows per random block. ``train_sampling``'s M = 256 budget
#: is four blocks: work for up to four threads or workers, for two
#: generator constructions and six re-seatings (~9 and ~2.5 us) an
#: iteration.
ROW_BLOCK = 64
#: Most mini-batch pairs per theta-partial block: one block an iteration
#: at M = 256 (~250 pairs), one or two at M = 512, because each block is
#: one kernel call with a fixed cost (~50 us at K = 32, ~80 at K = 128)
#: and its own term of the reduce. :func:`pair_bounds` cuts the blocks.
PAIR_BLOCK = 512

#: ``block_rng`` streams: one per kind of random number of an iteration
NEIGHBORS, PHI_NOISE, THETA_NOISE, DRAW = range(4)


def _key_and_counter(key: int, stream: int, block: int, iteration: int):
    # uint64 arrays: a list holding a key >= 2**63 would go through float64
    return (
        np.array([key, stream], dtype=np.uint64),
        np.array([0, block, iteration, 0], dtype=np.uint64),
    )


def block_rng(key: int, stream: int, block: int, iteration: int = 0) -> np.random.Generator:
    """The generator of one block's random numbers: Philox keyed by
    ``(key, stream)``, counter ``[0, block, iteration, 0]``.

    The only per-block generator there is. Philox increments the first
    counter word, so keeping it at 0 gives every (block, iteration) its
    own 2**64 counters; ``[iteration, block, 0, 0]`` would make block b
    of iteration t+1 block b of iteration t shifted by four outputs.
    """
    key_words, counter = _key_and_counter(key, stream, block, iteration)
    return np.random.Generator(np.random.Philox(key=key_words, counter=counter))


def seat(
    generator: np.random.Generator, key: int, stream: int, block: int, iteration: int = 0
) -> np.random.Generator:
    """Put a :func:`block_rng` generator where a fresh ``block_rng(key,
    stream, block, iteration)`` starts, for a third of a construction's
    cost (a construction also gathers OS entropy, then discards it)."""
    key_words, counter = _key_and_counter(key, stream, block, iteration)
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"key": key_words, "counter": counter},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def n_blocks(n: int, size: int) -> int:
    """How many blocks of ``size`` cover ``n`` items (the last may be short)."""
    return -(-n // size)


def pair_bounds(n_pairs: int) -> np.ndarray:
    """Offsets of a mini-batch's pair blocks: block b is pairs
    ``[bounds[b], bounds[b + 1])``. The one place pair blocks are cut:
    ``n_blocks(n_pairs, PAIR_BLOCK)`` blocks whose sizes differ by at most
    one, so W workers dealt one block each get equal work (~530 pairs are
    two blocks of ~265, not 512 and ~18) for as many kernel calls."""
    count = n_blocks(n_pairs, PAIR_BLOCK)
    return np.arange(count + 1) * n_pairs // max(count, 1)


def block_draws(
    key: int,
    stream: int,
    blocks: Sequence[int],
    n_rows: int,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    iteration: int = 0,
) -> np.ndarray:
    """``draw(generator, rows)`` per row block, stacked in the order of
    ``blocks``: ``n_rows`` rows in all, :data:`ROW_BLOCK` per block but
    the last, which may be short (a shard's blocks are whole blocks of the
    mini-batch, and only the mini-batch's last one is short). One
    generator, re-seated from block to block."""
    generator = block_rng(key, stream, blocks[0] if len(blocks) else 0, iteration)
    parts = [draw(generator, min(n_rows, ROW_BLOCK))]
    for j, b in enumerate(blocks[1:], start=1):
        seat(generator, key, stream, b, iteration)
        parts.append(draw(generator, min(ROW_BLOCK, n_rows - j * ROW_BLOCK)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    weighted theta-gradient calls over the concatenation equal the
    per-stratum ``sum_s scale_s * grad_s`` loop — every engine cuts its
    :func:`pair_bounds` blocks from this one concatenation, so a block
    holds the same pairs whoever computes it.
    """
    if not strata:
        z = np.zeros(0, dtype=np.int64)
        return z.reshape(0, 2), z.astype(bool), z.astype(np.float64)
    pairs = np.vstack([s.pairs for s in strata])
    labels = np.concatenate([s.labels for s in strata])
    scales = np.repeat(
        np.array([s.scale for s in strata], dtype=np.float64),
        [s.pairs.shape[0] for s in strata],
    )
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

    @classmethod
    def from_pairs(
        cls, pairs: np.ndarray, labels: np.ndarray, sizes: np.ndarray,
        scales: np.ndarray, vertices: np.ndarray,
    ) -> "Minibatch":
        """The mini-batch whose strata are consecutive runs of ``sizes``
        rows of the concatenated ``pairs`` / ``labels``, with ``scales``:
        what :meth:`all_pairs` and the strata's sizes and scales describe.
        Its :meth:`all_pairs` answers these arrays, not a new concatenation."""
        strata, a = [], 0
        for size, scale in zip(sizes.tolist(), scales.tolist()):
            rows = slice(a, a + size)
            strata.append(Stratum(pairs=pairs[rows], labels=labels[rows], scale=scale))
            a += size
        minibatch = cls(strata=strata, vertices=vertices)
        minibatch.__dict__["_all_pairs"] = (pairs, labels, np.repeat(scales, sizes))
        return minibatch

    def all_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (pairs, labels, per-pair scales), built on the
        first call and shared by every later one: read-only."""
        return self._all_pairs

    @cached_property
    def _all_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def draw_key(rng: np.random.Generator) -> int:
    """An iteration's neighbor-set key: one 64-bit draw from the
    iteration's ``DRAW`` generator, taken right after the mini-batch in
    every engine."""
    return int(rng.integers(2**64, dtype=np.uint64))


def sample_neighbor_sets(
    vertices: np.ndarray,
    key: int,
    blocks: Sequence[int],
    n_vertices: int,
    n_sample: int,
    links_against: Callable[[np.ndarray], np.ndarray],
    heldout: Optional[Graph],
) -> NeighborSample:
    """Sample V_n (``n_sample`` uniform vertices) per mini-batch vertex.

    The one neighbor-sampling routine of every engine. ``vertices`` are
    the mini-batch rows of the row ``blocks`` (:func:`block_draws`), and
    each block's candidates come from its own :func:`block_rng` under the
    iteration's ``key``. ``links_against`` answers ``y_ab`` for an (m, n)
    candidate matrix against the rows of ``vertices``: every engine
    passes ``Graph.links_from`` on its training graph (in memory, on a
    mapped CSR container, or inherited by a forked worker).

    Self-pairs and held-out pairs are masked out rather than resampled,
    which keeps the draw vectorized; the phi update divides by the
    per-row effective count, so the estimator stays unbiased.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    neighbors = block_draws(
        key, NEIGHBORS, blocks, vertices.size,
        lambda g, rows: g.integers(0, n_vertices, size=(rows, n_sample)),
    )
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


#: Floor of the stratified strategy's sampled non-link stratum: a stratum
#: is ``max(NONLINK_STRATUM_MIN, avg_degree)`` pairs, at most N - 1.
NONLINK_STRATUM_MIN = 64


class MinibatchSampler:
    """Draws mini-batches and neighbor sets from a training graph.

    Args:
        graph: training graph (held-out links already removed).
        config: sampler configuration.
        heldout_keys: sorted canonical keys of held-out pairs, excluded
            from non-link sampling and neighbor sets.
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        heldout_keys: Optional[np.ndarray] = None,
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
        self.nonlink_stratum_size = min(
            max(NONLINK_STRATUM_MIN, int(round(avg_degree))), max(1, n - 1)
        )
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
        """Sample V_n for all mini-batch rows (:func:`sample_neighbor_sets`)
        under a key drawn from ``rng`` (:func:`draw_key`)."""
        return sample_neighbor_sets(
            vertices,
            draw_key(rng),
            range(n_blocks(len(vertices), ROW_BLOCK)),
            self.graph.n_vertices,
            self.config.neighbor_sample_size,
            partial(self.graph.links_from, vertices),
            self.heldout,
        )
