"""Replayable edge-arrival sources for the streaming tier.

Two producers feed :class:`repro.stream.delta.DeltaOverlay`:

- :class:`FileTailSource` tails a whitespace-separated arrival file —
  ``src dst`` or ``timestamp src dst`` lines, ``#`` comments — by byte
  offset, so repeated :meth:`~FileTailSource.poll` calls pick up only
  lines appended since the previous call (a partially written trailing
  line is deferred until its newline lands). Malformed lines raise
  :class:`~repro.stream.delta.MalformedArrival` under ``strict=True`` or
  are counted and skipped otherwise.
- :class:`SyntheticArrivalSource` derives a deterministic arrival
  process from a planted overlapping-community graph: edges arrive in an
  order that grows the vertex id frontier contiguously (so "new nodes"
  are exactly the ids past the warm-start base), with seeded
  exponential inter-arrival timestamps. :meth:`~SyntheticArrivalSource
  .base_graph` cuts the prefix graph a trainer cold-starts on, and
  :meth:`~SyntheticArrivalSource.batches` yields the remainder as
  generation-sized batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.graph.graph import Graph
from repro.stream.delta import MalformedArrival

PathLike = Union[str, Path]


@dataclass(frozen=True)
class EdgeArrival:
    """One timestamped undirected edge arrival.

    Field order (timestamp, src, dst) is part of the record's shape:
    fault injection (:class:`repro.faults.StreamFaultPlan`) rebuilds
    arrivals positionally via :func:`dataclasses.replace`.
    """

    timestamp: float
    src: int
    dst: int


def arrivals_to_arrays(
    arrivals: Sequence[EdgeArrival],
) -> tuple[np.ndarray, np.ndarray]:
    """Split arrivals into ``(pairs (m, 2) int64, timestamps (m,) float64)``.

    Out-of-range endpoint values (beyond int64, from fault injection or
    garbage input) are clamped into a still-invalid sentinel rather than
    raising, so validation stays the overlay's job.
    """
    if not arrivals:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.float64)
    pairs = np.array([(a.src, a.dst) for a in arrivals], dtype=np.int64)
    ts = np.array([a.timestamp for a in arrivals], dtype=np.float64)
    return pairs, ts


class FileTailSource:
    """Incremental reader of a (possibly growing) edge-arrival file.

    Args:
        path: arrival file; each data line is ``src dst`` or
            ``timestamp src dst`` (the layout is sniffed from the first
            data line and then enforced).
        strict: raise on malformed lines instead of skipping them.

    Attributes:
        n_malformed: lines skipped so far (``strict=False`` only).
        n_rotations: truncation/rotation resets detected so far.
    """

    def __init__(self, path: PathLike, strict: bool = True) -> None:
        self.path = Path(path)
        self.strict = strict
        self.n_malformed = 0
        self.n_rotations = 0
        self._offset = 0
        self._n_cols: Optional[int] = None
        self._line_no = 0  # data lines seen; synthesizes 2-col timestamps

    @property
    def offset(self) -> int:
        """Byte offset of the next unread line (resume token)."""
        return self._offset

    def seek(self, offset: int) -> None:
        """Position the tail at a byte offset (resume from a manifest).

        The column layout is re-sniffed from the next data line; seeking
        backwards simply re-reads (downstream overlay dedup makes the
        overlap idempotent).
        """
        if offset < 0:
            raise ValueError("offset must be >= 0")
        self._offset = int(offset)
        self._n_cols = None

    def poll(self) -> list[EdgeArrival]:
        """Return arrivals appended since the previous poll.

        Only byte-complete lines are consumed: a trailing line without
        its newline stays unread until a later poll sees the rest of it,
        so a writer mid-``write()`` never produces a torn record.

        A file that *shrank* below the current offset was truncated or
        rotated in place; tailing from the stale offset would read
        garbage mid-line, so the source resets to the top of the new
        file (counted in ``n_rotations``) and re-sniffs the column
        layout. A missing file raises ``FileNotFoundError`` — transient
        I/O is the follow supervisor's problem, not the source's.
        """
        with open(self.path, "rb") as fh:
            size = fh.seek(0, 2)
            if size < self._offset:
                self._offset = 0
                self._n_cols = None
                self.n_rotations += 1
            fh.seek(self._offset)
            chunk = fh.read()
        if not chunk:
            return []
        end = chunk.rfind(b"\n")
        if end < 0:
            return []  # no complete line yet
        consumed = chunk[: end + 1]
        self._offset += end + 1
        out: list[EdgeArrival] = []
        for raw in consumed.split(b"\n"):
            line = raw.decode("utf-8", errors="replace").strip()
            if not line or line.startswith("#"):
                continue
            arrival = self._parse(line)
            if arrival is not None:
                out.append(arrival)
        return out

    def read_all(self) -> list[EdgeArrival]:
        """Convenience: poll once from the current offset to EOF."""
        return self.poll()

    def _parse(self, line: str) -> Optional[EdgeArrival]:
        fields = line.split()
        if self._n_cols is None and len(fields) in (2, 3):
            self._n_cols = len(fields)
        if len(fields) != self._n_cols:
            return self._reject("bad-shape", line)
        try:
            if self._n_cols == 3:
                ts = float(fields[0])
                src, dst = int(fields[1]), int(fields[2])
            else:
                ts = float(self._line_no)
                src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            return self._reject("unparseable", line)
        self._line_no += 1
        return EdgeArrival(timestamp=ts, src=src, dst=dst)

    def _reject(self, reason: str, line: str) -> None:
        if self.strict:
            raise MalformedArrival(reason, line)
        self.n_malformed += 1
        return None


def write_arrival_file(
    path: PathLike, arrivals: Sequence[EdgeArrival], header: str = ""
) -> Path:
    """Write arrivals as a ``timestamp src dst`` file FileTailSource reads."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for a in arrivals:
            fh.write(f"{a.timestamp:.6f} {a.src} {a.dst}\n")
    return path


class SyntheticArrivalSource:
    """Deterministic arrival process over a planted overlapping graph.

    The planted graph's edges are replayed in frontier order — sorted by
    ``(max endpoint, min endpoint)`` — so vertex ids enter the stream
    contiguously: after any prefix, the touched ids are exactly
    ``0..max_id``. That makes "the first ``base_fraction`` of nodes" a
    well-defined warm-start base and everything after it genuinely new.

    Args:
        graph: the final planted graph the stream converges to.
        base_fraction: fraction of vertices (by id) forming the base.
        rate: mean arrivals per unit time for the exponential
            inter-arrival clock.
        seed: timestamp RNG seed (edge order is already deterministic).
    """

    def __init__(
        self,
        graph: Graph,
        base_fraction: float = 0.9,
        rate: float = 100.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < base_fraction < 1.0:
            raise ValueError("base_fraction must be in (0, 1)")
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.graph = graph
        self.n_base = max(2, int(graph.n_vertices * base_fraction))
        edges = graph.edges
        order = np.lexsort((edges[:, 0], edges[:, 1]))  # (hi asc, lo asc)
        self._edges = edges[order]
        rng = np.random.default_rng(seed)
        self._timestamps = np.cumsum(rng.exponential(1.0 / rate, size=len(edges)))
        # Arrivals = every edge touching a non-base vertex. hi is the max
        # endpoint (canonical lo < hi), so the split is one comparison.
        self._split = int(np.searchsorted(self._edges[:, 1], self.n_base))

    def base_graph(self) -> Graph:
        """The induced graph on vertices ``0..n_base-1`` (the warm base)."""
        return Graph(self.n_base, self._edges[: self._split])

    def arrivals(self) -> list[EdgeArrival]:
        """All post-base arrivals, timestamped, in frontier order."""
        return [
            EdgeArrival(float(self._timestamps[i]), int(e[0]), int(e[1]))
            for i, e in enumerate(self._edges[self._split :], start=self._split)
        ]

    def batches(self, n_batches: int) -> Iterator[list[EdgeArrival]]:
        """The post-base arrivals split into ``n_batches`` contiguous runs."""
        if n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        all_arrivals = self.arrivals()
        splits = np.array_split(np.arange(len(all_arrivals)), n_batches)
        for chunk in splits:
            yield [all_arrivals[i] for i in chunk]
