"""Write-ahead ingest journal and quarantine sidecar for the streaming tier.

The :class:`~repro.stream.delta.DeltaOverlay` and everything behind it
(warm-start training, artifact publish) is in-memory state: before this
module, a crash anywhere between ingest and publish silently dropped
every pending arrival. The :class:`IngestJournal` closes that hole with
the classic write-ahead discipline — **every arrival batch is appended
and made durable here before it mutates the overlay**, so after a kill
the un-digested suffix of the stream can be replayed from disk.

Layout: a journal is a directory of numbered segment files
(``seg-00000000.wal``, ``seg-00000001.wal``, ...). Appends go to the
highest-numbered (*active*) segment; a segment that reaches
``max_segment_bytes`` is sealed and a new active segment is started.
Each record is one binary frame::

    magic  b"WJ"   (2 bytes)
    kind   u8      (1 = edge batch)
    flags  u8      (reserved, 0)
    seqno  u64 LE  (monotone, unique across the whole journal)
    length u32 LE  (payload bytes)
    crc    u32 LE  (CRC32 of kind+flags+seqno+payload)
    payload        (JSON: {"pairs": [[src, dst], ...], "ts": [...]})

Durability and recovery invariants:

- **fsync batching** — every append is flushed; an fsync is issued every
  ``fsync_batch`` appends (default 1 = every append, so an acknowledged
  batch is always durable; larger batches trade a bounded loss window
  for throughput and are opt-in).
- **torn tails** — a kill mid-``write`` can leave a partial frame at the
  end of the *active* segment only. :meth:`IngestJournal.open` scans
  every segment; a bad frame at the tail of the final segment is
  truncated away (the append was never acknowledged, so the caller
  re-feeds the batch and overlay dedup keeps semantics exactly-once).
  A bad frame in any *sealed* segment is real corruption and raises
  :class:`JournalCorrupt` — losing acknowledged writes must never be
  silent.
- **compaction** — once a generation's edges are digested into a CSR
  container and the manifest records the digested seqno,
  :meth:`IngestJournal.compact` seals the active segment and unlinks
  every segment whose last seqno is covered. Sealing happens before any
  unlink, so a crash mid-compaction leaves a journal whose replay is
  exactly the un-digested suffix; the next compact finishes the GC
  (idempotent).

The :class:`QuarantineLog` is the journal's JSONL sidecar for malformed
arrivals: the overlay's in-memory ``quarantined`` list dies with the
process, so every quarantined record is mirrored here with its reason
(append + flush + fsync per record — quarantines are rare). An
unterminated final line (torn write) is tolerated on read and repaired
on the next append.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.store.atomic import fsync_dir
from repro.stream.delta import StreamError

PathLike = Union[str, Path]

_MAGIC = b"WJ"
#: frame header: magic(2s) kind(B) flags(B) seqno(Q) length(I) crc(I)
_HEADER = struct.Struct("<2sBBQII")
KIND_EDGES = 1

_SEG_RE = re.compile(r"^seg-(\d{8})\.wal$")


class JournalCorrupt(StreamError):
    """A sealed journal segment holds a bad frame (acknowledged data lost)."""

    def __init__(self, path: PathLike, offset: int, reason: str) -> None:
        self.path = Path(path)
        self.offset = int(offset)
        self.reason = reason
        super().__init__(f"journal segment {self.path} @ {offset}: {reason}")


@dataclass(frozen=True)
class JournalEntry:
    """One replayed journal record: an arrival batch as it was appended."""

    seqno: int
    pairs: np.ndarray
    timestamps: Optional[np.ndarray]


@dataclass
class _Segment:
    """In-memory index of one on-disk segment file."""

    index: int
    path: Path
    first_seqno: int = -1
    last_seqno: int = -1
    n_frames: int = 0
    size: int = 0


def _crc(kind: int, flags: int, seqno: int, payload: bytes) -> int:
    head = struct.pack("<BBQ", kind, flags, seqno)
    return zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF


def _encode_frame(kind: int, seqno: int, payload: bytes) -> bytes:
    header = _HEADER.pack(
        _MAGIC, kind, 0, seqno, len(payload), _crc(kind, 0, seqno, payload)
    )
    return header + payload


def _scan_segment(seg: _Segment) -> tuple[list[tuple[int, int, int]], int, str]:
    """Scan a segment's frames: ``(frames, good_bytes, tail_reason)``.

    ``frames`` is a list of ``(offset, seqno, kind)`` for every intact
    frame read from the front; ``good_bytes`` is the offset just past the
    last intact frame; ``tail_reason`` is "" when the file ends cleanly
    at a frame boundary, else a short tag describing the bad tail.
    """
    data = seg.path.read_bytes()
    frames: list[tuple[int, int, int]] = []
    off = 0
    prev_seqno = -1
    while off < len(data):
        if off + _HEADER.size > len(data):
            return frames, off, "truncated header"
        magic, kind, flags, seqno, length, crc = _HEADER.unpack_from(data, off)
        if magic != _MAGIC:
            return frames, off, "bad magic"
        end = off + _HEADER.size + length
        if end > len(data):
            return frames, off, "truncated payload"
        payload = data[off + _HEADER.size : end]
        if _crc(kind, flags, seqno, payload) != crc:
            return frames, off, "crc mismatch"
        if prev_seqno >= 0 and seqno <= prev_seqno:
            return frames, off, f"non-monotonic seqno {seqno}"
        try:
            json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return frames, off, "unreadable payload"
        frames.append((off, int(seqno), int(kind)))
        prev_seqno = seqno
        off = end
    return frames, off, ""


class IngestJournal:
    """Segment-based, checksummed, fsync-batched write-ahead log.

    Args:
        directory: journal directory (created if absent).
        max_segment_bytes: roll to a new segment once the active one
            reaches this size.
        fsync_batch: fsync every N appends (1 = every append; the only
            setting with a zero acknowledged-loss window).
        faults: optional :class:`repro.faults.StreamFaultPlan` whose
            ``journal_tear_due`` schedule tears frame writes (drills).

    Attributes:
        appends: lifetime append-attempt counter (fault schedule index).
        compactions: completed :meth:`compact` calls.
        repaired: ``(path, offset, reason)`` of the torn tail truncated
            at open, if any.
    """

    def __init__(
        self,
        directory: PathLike,
        max_segment_bytes: int = 1 << 22,
        fsync_batch: int = 1,
        faults=None,
    ) -> None:
        if max_segment_bytes < _HEADER.size + 2:
            raise ValueError("max_segment_bytes too small for one frame")
        if fsync_batch < 1:
            raise ValueError("fsync_batch must be >= 1")
        self.directory = Path(directory)
        self.max_segment_bytes = int(max_segment_bytes)
        self.fsync_batch = int(fsync_batch)
        self._faults = faults
        self.appends = 0
        self.compactions = 0
        self.repaired: Optional[tuple[Path, int, str]] = None
        self._segments: list[_Segment] = []
        self._fh = None
        self._unsynced = 0
        self._next_seqno = 0
        self._open()

    # -- open / recovery -----------------------------------------------------

    def _open(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        found: list[_Segment] = []
        for p in sorted(self.directory.iterdir()):
            m = _SEG_RE.match(p.name)
            if m:
                found.append(_Segment(index=int(m.group(1)), path=p))
        found.sort(key=lambda s: s.index)
        next_seqno = 0
        for i, seg in enumerate(found):
            frames, good, reason = _scan_segment(seg)
            if reason:
                if i != len(found) - 1:
                    raise JournalCorrupt(seg.path, good, reason)
                # Torn tail of the active segment: the partial frame was
                # never acknowledged — truncate it away.
                with open(seg.path, "r+b") as fh:
                    fh.truncate(good)
                    fh.flush()
                    os.fsync(fh.fileno())
                self.repaired = (seg.path, good, reason)
            if frames:
                seg.first_seqno = frames[0][1]
                seg.last_seqno = frames[-1][1]
                seg.n_frames = len(frames)
                if seg.first_seqno < next_seqno:
                    raise JournalCorrupt(
                        seg.path, frames[0][0],
                        f"seqno {seg.first_seqno} overlaps a prior segment",
                    )
                next_seqno = seg.last_seqno + 1
            seg.size = good
        if not found:
            found = [self._create_segment(0)]
        self._segments = found
        self._next_seqno = next_seqno
        self._fh = open(self._active.path, "ab")

    def _create_segment(self, index: int) -> _Segment:
        path = self.directory / f"seg-{index:08d}.wal"
        with open(path, "wb") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        fsync_dir(self.directory)
        return _Segment(index=index, path=path)

    @property
    def _active(self) -> _Segment:
        return self._segments[-1]

    # -- views ---------------------------------------------------------------

    @property
    def last_seqno(self) -> int:
        """Highest acknowledged seqno (``-1`` when the journal is empty)."""
        return self._next_seqno - 1

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def segment_paths(self) -> tuple[Path, ...]:
        return tuple(s.path for s in self._segments)

    # -- append --------------------------------------------------------------

    def append_edges(
        self,
        pairs: Sequence,
        timestamps: Optional[Sequence] = None,
    ) -> int:
        """Durably append one arrival batch; returns its seqno.

        The batch is journaled exactly as it will be fed to the overlay
        (post any fault mangling), so replay reproduces ingest — including
        quarantine decisions — without re-drawing fault RNG streams.
        """
        if self._fh is None:
            raise StreamError("journal is closed")
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        record: dict = {"pairs": arr.tolist()}
        if timestamps is not None:
            ts = np.asarray(timestamps, dtype=np.float64).reshape(-1)
            if ts.shape[0] != arr.shape[0]:
                raise StreamError(
                    f"timestamps length {ts.shape[0]} != pairs {arr.shape[0]}"
                )
            record["ts"] = ts.tolist()
        payload = json.dumps(record).encode("utf-8")
        seqno = self._next_seqno
        frame = _encode_frame(KIND_EDGES, seqno, payload)

        append_index = self.appends
        self.appends += 1
        if self._faults is not None and not self._faults.empty:
            if self._faults.journal_tear_due(append_index):
                # Kill mid-write(2): half a frame reaches the file, no
                # fsync, no acknowledgement. The next open must truncate it.
                from repro.faults import InjectedCrash

                self._fh.write(frame[: max(_HEADER.size - 4, len(frame) // 2)])
                self._fh.flush()
                raise InjectedCrash(f"journal append {append_index} (torn frame)")

        if self._active.size + len(frame) > self.max_segment_bytes and self._active.n_frames:
            self._roll()
        self._fh.write(frame)
        self._fh.flush()
        self._unsynced += 1
        if self._unsynced >= self.fsync_batch:
            os.fsync(self._fh.fileno())
            self._unsynced = 0
        seg = self._active
        if seg.first_seqno < 0:
            seg.first_seqno = seqno
        seg.last_seqno = seqno
        seg.n_frames += 1
        seg.size += len(frame)
        self._next_seqno = seqno + 1
        return seqno

    def sync(self) -> None:
        """Force any batched appends to disk."""
        if self._fh is not None and self._unsynced:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._unsynced = 0

    def _roll(self) -> None:
        self.sync()
        self._fh.close()
        seg = self._create_segment(self._active.index + 1)
        self._segments.append(seg)
        self._fh = open(seg.path, "ab")

    # -- replay --------------------------------------------------------------

    def replay(self, after_seqno: int = -1) -> Iterator[JournalEntry]:
        """Yield journaled batches with ``seqno > after_seqno``, in order."""
        for seg in list(self._segments):
            if seg.n_frames == 0 or seg.last_seqno <= after_seqno:
                continue
            frames, _, _ = _scan_segment(seg)
            data = seg.path.read_bytes()
            for off, seqno, kind in frames:
                if seqno <= after_seqno or kind != KIND_EDGES:
                    continue
                _, _, _, _, length, _ = _HEADER.unpack_from(data, off)
                payload = data[off + _HEADER.size : off + _HEADER.size + length]
                record = json.loads(payload.decode("utf-8"))
                pairs = np.asarray(record["pairs"], dtype=np.int64).reshape(-1, 2)
                ts = record.get("ts")
                yield JournalEntry(
                    seqno=seqno,
                    pairs=pairs,
                    timestamps=None if ts is None else np.asarray(ts, dtype=np.float64),
                )

    # -- compaction ----------------------------------------------------------

    def compact(
        self,
        digested_seqno: int,
        crash_hook: Optional[Callable[[], None]] = None,
    ) -> int:
        """Seal the active segment and GC segments covered by ``digested_seqno``.

        Called only *after* the manifest durably records
        ``digested_seqno`` (else a crash between GC and manifest loses
        the suffix). Seal happens before any unlink; ``crash_hook`` (the
        trainer's mid-compaction kill point) fires between the two, so a
        crash there leaves every un-digested frame intact and the next
        compact finishes the GC. Returns the number of segments removed.
        """
        self.sync()
        if self._active.n_frames:
            self._roll()
        if crash_hook is not None:
            crash_hook()
        removed = 0
        survivors: list[_Segment] = []
        for seg in self._segments:
            sealed = seg is not self._active
            covered = seg.n_frames == 0 or seg.last_seqno <= digested_seqno
            if sealed and covered:
                seg.path.unlink(missing_ok=True)
                removed += 1
            else:
                survivors.append(seg)
        self._segments = survivors
        if removed:
            fsync_dir(self.directory)
        self.compactions += 1
        return removed

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "IngestJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class QuarantineLog:
    """Durable JSONL sidecar of quarantined arrivals (reason + record).

    Each line is ``{"reason": ..., "record": [src, dst]}``. Appends are
    flushed and fsynced per record — quarantines are rare, losing the
    forensic trail on crash is worse than the syscall. A torn final line
    (no trailing newline) is skipped on read and terminated before the
    next append.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._count: Optional[int] = None

    def append(self, reason: str, record, seqno: Optional[int] = None) -> None:
        rec = record
        if isinstance(rec, np.ndarray):
            rec = rec.tolist()
        elif isinstance(rec, tuple):
            rec = [int(x) if isinstance(x, (int, np.integer)) else x for x in rec]
        entry = {"reason": str(reason), "record": rec}
        if seqno is not None:
            entry["seqno"] = int(seqno)
        line = json.dumps(entry)
        self._repair_tail()
        with open(self.path, "ab") as fh:
            fh.write(line.encode("utf-8") + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        if self._count is not None:
            self._count += 1

    def extend(self, items: Sequence[tuple[str, object]]) -> None:
        for reason, record in items:
            self.append(reason, record)

    def _repair_tail(self) -> None:
        """Drop an unterminated (torn, unacknowledged) final line, if any;
        a valid-but-unterminated record just gains its newline."""
        if not self.path.exists() or self.path.stat().st_size == 0:
            return
        raw = self.path.read_bytes()
        if raw.endswith(b"\n"):
            return
        cut = raw.rfind(b"\n") + 1
        tail = raw[cut:]
        try:
            json.loads(tail.decode("utf-8"))
            intact = True
        except (UnicodeDecodeError, json.JSONDecodeError):
            intact = False
        with open(self.path, "r+b") as fh:
            if intact:
                fh.seek(0, os.SEEK_END)
                fh.write(b"\n")
            else:
                fh.truncate(cut)
            fh.flush()
            os.fsync(fh.fileno())

    def read(self) -> list[dict]:
        """All intact quarantine records, oldest first."""
        if not self.path.exists():
            return []
        raw = self.path.read_bytes()
        chunks = raw.split(b"\n")
        terminated = raw.endswith(b"\n")
        out = []
        for i, line in enumerate(chunks):
            if not line.strip():
                continue
            try:
                out.append(json.loads(line.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                if i == len(chunks) - 1 and not terminated:
                    break  # torn (unacknowledged) final line
                raise StreamError(
                    f"quarantine log {self.path}: corrupt line {i}"
                ) from exc
        self._count = len(out)
        return out

    def __len__(self) -> int:
        if self._count is None:
            self._count = len(self.read())
        return self._count
