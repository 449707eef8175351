"""Append-only edge/node delta overlay on an immutable CSR base graph.

:class:`repro.graph.graph.Graph` is deliberately immutable — every
consumer (samplers, serving, mmap containers) relies on its canonical
sorted-CSR invariants. Streaming arrivals therefore never mutate a
graph; they accumulate in a :class:`DeltaOverlay`, a bounded sorted
buffer of *novel* canonical edges layered over the base:

- **dedup on ingest** — each arriving pair is canonicalized (``lo <
  hi``) and checked against both the base graph (:meth:`Graph.has_edges`
  for pairs whose endpoints the base covers) and the pending buffer, so
  the overlay only ever holds edges the compacted graph will actually
  gain. Pending pairs are keyed under a fixed ``2**32`` radix (id-space
  independent, unlike ``Graph`` keys), keeping the buffer sorted for
  O(log p) membership tests and order-independent of arrival order.
- **bounded buffer** — ``max_pending``/``max_new_nodes`` cap the overlay
  between compactions; overflow raises :class:`DeltaOverflow` *before*
  any mutation, so a failed ingest batch never half-applies.
- **typed rejection** — malformed arrivals (negative/absurd ids,
  self-loops, non-finite timestamps) raise :class:`MalformedArrival`
  under ``strict=True`` or are quarantined (kept, counted, reported)
  under ``strict=False``; out-of-order timestamps are counted per batch.
- **compaction** — :meth:`DeltaOverlay.compact` merges the pending
  pairs into the base's sorted arrays (:meth:`Graph.with_edges`: an O(E)
  copy and an O(p log E) search, no sort); given a path it round-trips
  the merge through a :func:`repro.graph.io.save_csr` container so the
  result is the provider-backed graph every later consumer memory-maps,
  then resets the overlay onto the merged graph as the new base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.graph.graph import Graph
from repro.graph.io import load_csr, save_csr

PathLike = Union[str, Path]

#: Fixed radix for pending-edge keys: independent of any graph's vertex
#: count, so keys stay comparable as the id space grows. Ids must stay
#: below ``2**31`` (anything larger is treated as malformed — far above
#: any graph this codebase trains).
_KEY_RADIX = np.int64(1) << 32
MAX_VERTEX_ID = int(1 << 31) - 1


class StreamError(ValueError):
    """Base class for streaming-tier errors."""


class MalformedArrival(StreamError):
    """An arriving edge record failed validation.

    Attributes:
        reason: short machine-readable tag (``"negative-id"``,
            ``"id-overflow"``, ``"self-loop"``, ``"bad-timestamp"``,
            ``"bad-shape"``, ``"unparseable"``).
        record: the offending record, when available.
    """

    def __init__(self, reason: str, record: object = None) -> None:
        self.reason = reason
        self.record = record
        detail = f": {record!r}" if record is not None else ""
        super().__init__(f"malformed arrival ({reason}){detail}")


class DeltaOverflow(StreamError):
    """The delta overlay's bounded buffer would exceed its cap."""


@dataclass(frozen=True)
class IngestReport:
    """Per-batch ingest accounting returned by :meth:`DeltaOverlay.ingest_pairs`.

    ``accepted`` counts novel edges added to the pending buffer;
    ``duplicates`` counts arrivals already present in the base graph, the
    pending buffer, or repeated within the batch; ``quarantined`` counts
    malformed records set aside under ``strict=False``; ``out_of_order``
    counts arrivals whose timestamp ran backwards relative to the newest
    timestamp seen before them.
    """

    accepted: int = 0
    duplicates: int = 0
    quarantined: int = 0
    out_of_order: int = 0

    def __add__(self, other: "IngestReport") -> "IngestReport":
        return IngestReport(
            self.accepted + other.accepted,
            self.duplicates + other.duplicates,
            self.quarantined + other.quarantined,
            self.out_of_order + other.out_of_order,
        )


@dataclass
class _PendingBuffer:
    """Sorted (keys, pairs) columns of the not-yet-compacted edges."""

    keys: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    pairs: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int64)
    )


class DeltaOverlay:
    """Bounded append-only edge delta over an immutable base graph.

    Args:
        base: the compacted CSR graph arrivals are layered on.
        max_pending: cap on novel edges buffered between compactions.
        max_new_nodes: cap on vertex ids beyond ``base.n_vertices``
            introduced by pending edges (``None`` = unbounded).

    Attributes:
        base: current base graph (replaced by :meth:`compact`).
        quarantined: malformed records set aside by non-strict ingest,
            as ``(reason, record)`` tuples in arrival order.
        last_timestamp: newest finite timestamp ingested so far.
    """

    def __init__(
        self,
        base: Graph,
        max_pending: int = 1 << 20,
        max_new_nodes: Optional[int] = None,
    ) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if max_new_nodes is not None and max_new_nodes < 0:
            raise ValueError("max_new_nodes must be >= 0")
        self.base = base
        self.max_pending = int(max_pending)
        self.max_new_nodes = max_new_nodes
        self.quarantined: list[tuple[str, tuple[int, int]]] = []
        self.last_timestamp = -np.inf
        self._pending = _PendingBuffer()

    # -- views ---------------------------------------------------------------

    @property
    def n_pending(self) -> int:
        """Novel edges buffered since the last compaction."""
        return int(self._pending.keys.size)

    @property
    def pending_pairs(self) -> np.ndarray:
        """Canonical (lo, hi) pending pairs, key-sorted (read-only view)."""
        pairs = self._pending.pairs
        pairs.setflags(write=False)
        return pairs

    @property
    def n_vertices(self) -> int:
        """Vertex count of the graph a compaction would produce."""
        if self._pending.pairs.size == 0:
            return self.base.n_vertices
        return max(self.base.n_vertices, int(self._pending.pairs.max()) + 1)

    @property
    def n_new_nodes(self) -> int:
        return self.n_vertices - self.base.n_vertices

    # -- ingest --------------------------------------------------------------

    def ingest_pairs(
        self,
        pairs: np.ndarray,
        timestamps: Optional[np.ndarray] = None,
        strict: bool = True,
    ) -> IngestReport:
        """Validate, dedup, and buffer a batch of arriving edges.

        Args:
            pairs: (m, 2) integer array of arriving endpoint pairs, in
                arrival order.
            timestamps: optional (m,) float arrival times; used only for
                out-of-order accounting (the overlay itself is unordered).
            strict: raise :class:`MalformedArrival` on the first invalid
                record instead of quarantining it.

        Returns:
            An :class:`IngestReport` for the batch.

        Raises:
            MalformedArrival: invalid record under ``strict=True``, or a
                batch whose shape/dtype cannot be interpreted at all.
            DeltaOverflow: accepting the batch's novel edges would exceed
                ``max_pending`` or ``max_new_nodes``. Raised before any
                state changes.
        """
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            return IngestReport()
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise MalformedArrival("bad-shape", pairs.shape)
        if not np.issubdtype(pairs.dtype, np.integer):
            flt = np.asarray(pairs, dtype=np.float64)
            if not np.all(np.isfinite(flt)) or np.any(flt != np.floor(flt)):
                raise MalformedArrival("unparseable", pairs.dtype)
        pairs = pairs.astype(np.int64)
        m = pairs.shape[0]
        if timestamps is not None:
            timestamps = np.asarray(timestamps, dtype=np.float64)
            if timestamps.shape != (m,):
                raise MalformedArrival("bad-shape", timestamps.shape)

        bad_reason = np.full(m, "", dtype=object)
        neg = (pairs < 0).any(axis=1)
        over = (pairs > MAX_VERTEX_ID).any(axis=1) & ~neg
        loops = (pairs[:, 0] == pairs[:, 1]) & ~neg & ~over
        bad_reason[neg] = "negative-id"
        bad_reason[over] = "id-overflow"
        bad_reason[loops] = "self-loop"
        if timestamps is not None:
            bad_ts = ~np.isfinite(timestamps) & (bad_reason == "")
            bad_reason[bad_ts] = "bad-timestamp"
        bad = bad_reason != ""
        if strict and bad.any():
            i = int(np.argmax(bad))
            raise MalformedArrival(str(bad_reason[i]), tuple(pairs[i]))

        good = ~bad
        report_quarantined = int(bad.sum())
        out_of_order = 0
        last = self.last_timestamp
        if timestamps is not None:
            ts_good = timestamps[good]
            if ts_good.size:
                prev = np.concatenate(([last], ts_good[:-1]))
                running = np.maximum.accumulate(prev)
                out_of_order = int((ts_good < running).sum())
                last = max(last, float(ts_good.max()))

        clean = pairs[good]
        duplicates = 0
        novel_keys = np.zeros(0, dtype=np.int64)
        novel_pairs = clean[:0]
        if clean.size:
            lo = np.minimum(clean[:, 0], clean[:, 1])
            hi = np.maximum(clean[:, 0], clean[:, 1])
            keys = lo * _KEY_RADIX + hi
            ukeys, uidx = np.unique(keys, return_index=True)
            duplicates += int(keys.size - ukeys.size)  # within-batch repeats
            upairs = np.column_stack([lo, hi])[uidx]
            # vs the base graph — only pairs it can possibly contain.
            in_base = np.zeros(ukeys.size, dtype=bool)
            covered = upairs[:, 1] < self.base.n_vertices
            if covered.any():
                in_base[covered] = self.base.has_edges(upairs[covered])
            # vs the pending buffer.
            in_pending = self._member(ukeys)
            known = in_base | in_pending
            duplicates += int(known.sum())
            novel_keys = ukeys[~known]
            novel_pairs = upairs[~known]

        if self.n_pending + novel_keys.size > self.max_pending:
            raise DeltaOverflow(
                f"pending buffer would hold {self.n_pending + novel_keys.size}"
                f" edges (max_pending={self.max_pending}); compact first"
            )
        if self.max_new_nodes is not None and novel_pairs.size:
            top = max(self.n_vertices, int(novel_pairs.max()) + 1)
            if top - self.base.n_vertices > self.max_new_nodes:
                raise DeltaOverflow(
                    f"delta would introduce {top - self.base.n_vertices} new"
                    f" nodes (max_new_nodes={self.max_new_nodes})"
                )

        # All checks passed — commit.
        if bad.any():
            for i in np.flatnonzero(bad):
                self.quarantined.append((str(bad_reason[i]), tuple(pairs[i])))
        if novel_keys.size:
            merged = np.concatenate([self._pending.keys, novel_keys])
            order = np.argsort(merged, kind="stable")
            self._pending.keys = merged[order]
            self._pending.pairs = np.concatenate(
                [self._pending.pairs, novel_pairs]
            )[order]
        self.last_timestamp = last
        return IngestReport(
            accepted=int(novel_keys.size),
            duplicates=duplicates,
            quarantined=report_quarantined,
            out_of_order=out_of_order,
        )

    def _member(self, keys: np.ndarray) -> np.ndarray:
        """Membership of sorted candidate ``keys`` in the pending buffer."""
        have = self._pending.keys
        if not have.size or not keys.size:
            return np.zeros(keys.size, dtype=bool)
        idx = np.minimum(np.searchsorted(have, keys), have.size - 1)
        return have[idx] == keys

    # -- compaction ----------------------------------------------------------

    def compact(self, path: Optional[PathLike] = None) -> Graph:
        """Merge base + pending into a fresh graph and reset onto it.

        The cost follows the delta: the pending pairs are searched into
        the base's sorted arrays (:meth:`Graph.with_edges`), which are
        copied once and never sorted again.

        Without ``path`` the merged graph is built in memory. With
        ``path`` the merge is persisted as a CSR container
        (:func:`repro.graph.io.save_csr`) and reloaded through
        :func:`repro.graph.io.load_csr`, so the returned graph — which
        becomes the overlay's new base — is backed by read-only memory
        maps exactly like any other compacted graph in the system.

        A compaction with nothing pending still returns (and, with
        ``path``, persists) the base graph, so callers can rely on the
        container existing per generation.
        """
        if self._pending.pairs.size:
            merged = self.base.with_edges(self._pending.pairs, self.n_vertices)
        else:
            merged = self.base
        if path is not None:
            save_csr(merged, path)
            merged = load_csr(path)
        self.base = merged
        self._pending = _PendingBuffer()
        return merged
