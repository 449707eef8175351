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
  copy, and a search of the pairs in the CSR rows they touch, no sort)
  and resets the overlay onto the merged graph, in memory, as the new
  base.
- **persistence follows the delta** — given a path, a compaction writes
  what changed, not the graph: one sealed delta container of every pair
  merged since the last full :func:`repro.graph.io.save_csr` snapshot.
  A new snapshot replaces the delta only once the delta bytes written
  since the last one would reach that snapshot's size (rent, then buy).
  :meth:`DeltaOverlay.open` rebuilds the base from the two files as
  ``load_csr(snapshot).with_edges(delta)``, array for array the graph
  the compaction returned. A delta is written over the spare
  :data:`DELTA_SPARE` beside it when there is one (a stream trainer
  renames each stale delta there): readers open a delta ``resident``
  with every digest verified, so they hold a copy, never the inode. A
  reader that kept a delta's file open across two generations would
  read another delta's bytes and fail the digest check
  (:class:`~repro.store.StoreCorrupt`), never return wrong pairs; none
  in this package does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.graph.graph import Graph
from repro.graph.io import GRAPH_CSR_KIND, load_csr, save_csr
from repro.store import Container, StoreCorrupt, StoreError, read_manifest, write_container

PathLike = Union[str, Path]

GRAPH_DELTA_KIND = "repro-graph-delta/1"
#: the name, beside a compaction's record, of the spare file the next
#: delta container is written over (``store.atomic.atomic_file``)
DELTA_SPARE = ".graph.delta.spare"

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


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two disjoint key-sorted canonical pair arrays as one, key-sorted."""
    pairs = np.concatenate([a, b])
    return pairs[np.argsort(pairs[:, 0] * _KEY_RADIX + pairs[:, 1], kind="stable")]


def merged_graph(base: Graph, pending: np.ndarray, n_vertices: int) -> Graph:
    """``base`` with the key-sorted canonical ``pending`` pairs merged in,
    over ``n_vertices``: what a compaction makes its new base, and what a
    stream trainer's draw process makes of its own copy of the base."""
    return base.with_edges(pending, n_vertices) if pending.size else base


def _csr_bytes(graph: Graph) -> int:
    """Payload bytes of ``graph``'s CSR container."""
    return int(graph.keys.nbytes + graph._csr_indptr.nbytes + graph._csr_indices.nbytes)


def _open_sealed(path: Path, kind: str) -> Container:
    """The container of ``kind`` at ``path``, every digest verified."""
    try:
        container = Container(path, provider="resident", verify="eager")
    except StoreCorrupt:
        raise
    except StoreError as exc:
        if not path.is_file():
            raise
        raise StoreError(
            path, f"{exc.reason}; `repro convert-graph` builds one from an edge list or .npz"
        ) from None
    if container.kind != kind:
        raise StoreError(path, f"not a {kind} container (kind={container.kind!r})")
    return container


class DeltaOverlay:
    """Bounded append-only edge delta over an immutable base graph.

    Args:
        base: the compacted CSR graph arrivals are layered on.
        max_pending: cap on novel edges buffered between compactions.
        max_new_nodes: cap on vertex ids beyond ``base.n_vertices``
            introduced by pending edges (``None`` = unbounded).

    Attributes:
        base: current base graph (replaced by :meth:`compact`).
        last_merged: the pairs the last :meth:`compact` merged into the
            base, key-sorted canonical (a stream trainer re-arms its draw
            process with them).
        quarantined: malformed records set aside by non-strict ingest,
            as ``(reason, record)`` tuples in arrival order.
        last_timestamp: newest finite timestamp ingested so far.
        snapshot_path / delta_path: where the last persisting
            :meth:`compact` left the base: a full CSR snapshot and the
            delta container on top of it (``None`` when that compaction
            wrote the snapshot, or before any persisted).
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
        self.last_merged = np.zeros((0, 2), dtype=np.int64)
        self.snapshot_path: Optional[Path] = None
        self.delta_path: Optional[Path] = None
        self._snapshot_version = ""
        self._snapshot_bytes = 0
        #: every pair merged since the snapshot, key-sorted, and the delta
        #: bytes written since it
        self._merged = np.zeros((0, 2), dtype=np.int64)
        self._delta_bytes = 0

    @classmethod
    def open(
        cls, snapshot: PathLike, delta: Optional[PathLike] = None, **bounds
    ) -> "DeltaOverlay":
        """The overlay a persisting :meth:`compact` left: its base is
        ``load_csr(snapshot).with_edges(delta's pairs)``, every digest of
        both containers verified, and its next compaction decides as the
        one that wrote them would have. ``bounds`` are the constructor's
        ``max_pending`` / ``max_new_nodes``.

        Raises:
            StoreError: a missing, damaged or foreign container (naming
                it), a delta built on another snapshot, or pairs that do
                not merge into the snapshot.
        """
        snapshot = Path(snapshot)
        version = _open_sealed(snapshot, GRAPH_CSR_KIND).manifest["content_version"]
        graph = load_csr(snapshot)
        snapshot_bytes = _csr_bytes(graph)
        merged, delta_bytes = np.zeros((0, 2), dtype=np.int64), 0
        if delta is not None:
            delta = Path(delta)
            container = _open_sealed(delta, GRAPH_DELTA_KIND)
            meta = container.meta
            if meta.get("snapshot_version") != version:
                raise StoreError(
                    delta, f"built on another snapshot than {snapshot} ({version})"
                )
            merged = container.array("pairs")
            try:
                delta_bytes = int(meta["delta_bytes"])
                graph = graph.with_edges(merged, int(meta["n_vertices"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreCorrupt(delta, f"does not merge into {snapshot} ({exc})") from exc
        overlay = cls(graph, **bounds)
        overlay.snapshot_path, overlay.delta_path = snapshot, delta
        overlay._snapshot_version = version
        overlay._snapshot_bytes = snapshot_bytes
        overlay._merged, overlay._delta_bytes = merged, delta_bytes
        return overlay

    # -- views ---------------------------------------------------------------

    @property
    def n_pending(self) -> int:
        """Novel edges buffered since the last compaction."""
        return int(self._pending.keys.size)

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
        copied once and never sorted again. The merged graph, which
        becomes the overlay's new base, lives in memory.

        ``path`` names the compaction's record on disk; its suffix is
        replaced. The record is one sealed container: ``path.delta``,
        every pair merged since the last snapshot (key-sorted, with the
        graph's ``n_vertices`` and the snapshot's content version), or
        — once the delta bytes written since that snapshot would reach
        its size, or when there is none yet — ``path.csr``, a full
        :func:`repro.graph.io.save_csr` snapshot. ``snapshot_path`` and
        ``delta_path`` say which files now hold the base. A compaction
        with nothing pending still writes its record, so callers can
        rely on one per generation.
        """
        pending = self._pending.pairs
        merged = merged_graph(self.base, pending, self.n_vertices)
        if path is not None:
            self._persist(merged, _merge(self._merged, pending), Path(path))
        elif pending.size:  # the files no longer hold the base: next, a snapshot
            self.snapshot_path = self.delta_path = None
            self._snapshot_bytes = 0
        self.base, self.last_merged = merged, pending
        self._pending = _PendingBuffer()
        return merged

    def _persist(self, graph: Graph, since: np.ndarray, path: Path) -> None:
        """Write ``graph`` at ``path`` as a delta of ``since`` (the pairs
        merged since the snapshot) or, by the rent-or-buy rule, as a new
        snapshot."""
        written = self._delta_bytes + since.nbytes
        if written < self._snapshot_bytes:
            self.delta_path = write_container(
                path.with_suffix(".delta"),
                {"pairs": since},
                kind=GRAPH_DELTA_KIND,
                meta={
                    "n_vertices": graph.n_vertices,
                    "snapshot_version": self._snapshot_version,
                    "delta_bytes": written,
                },
                spare=path.parent / DELTA_SPARE,
            )
            self._merged, self._delta_bytes = since, written
            return
        self.snapshot_path = save_csr(graph, path.with_suffix(".csr"))
        self._snapshot_version = read_manifest(self.snapshot_path)["content_version"]
        self._snapshot_bytes = _csr_bytes(graph)
        self.delta_path = None
        self._merged, self._delta_bytes = since[:0], 0
