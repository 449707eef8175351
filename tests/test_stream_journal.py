"""Write-ahead journal: framing, torn tails, compaction GC, the sidecar."""

from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest

from repro.faults import InjectedCrash, JournalTear, StreamFaultPlan
from repro.stream import (
    IngestJournal,
    JournalCorrupt,
    QuarantineLog,
    StreamError,
)


def _pairs(*edges):
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestAppendReplay:
    def test_round_trip_with_timestamps(self, tmp_path):
        with IngestJournal(tmp_path / "j") as j:
            assert j.last_seqno == -1
            s0 = j.append_edges(_pairs((0, 1), (1, 2)), [0.5, 1.5])
            s1 = j.append_edges(_pairs((2, 3)))
            assert (s0, s1) == (0, 1)
            entries = list(j.replay())
        assert [e.seqno for e in entries] == [0, 1]
        np.testing.assert_array_equal(entries[0].pairs, _pairs((0, 1), (1, 2)))
        np.testing.assert_array_equal(entries[0].timestamps, [0.5, 1.5])
        assert entries[1].timestamps is None

    def test_replay_filters_after_seqno(self, tmp_path):
        with IngestJournal(tmp_path / "j") as j:
            for i in range(5):
                j.append_edges(_pairs((i, i + 1)))
            assert [e.seqno for e in j.replay(after_seqno=2)] == [3, 4]
            assert list(j.replay(after_seqno=4)) == []

    def test_reopen_continues_seqnos(self, tmp_path):
        with IngestJournal(tmp_path / "j") as j:
            j.append_edges(_pairs((0, 1)))
        with IngestJournal(tmp_path / "j") as j:
            assert j.last_seqno == 0
            assert j.append_edges(_pairs((1, 2))) == 1
            assert [e.seqno for e in j.replay()] == [0, 1]

    def test_segments_roll_at_size(self, tmp_path):
        with IngestJournal(tmp_path / "j", max_segment_bytes=64) as j:
            for i in range(4):
                j.append_edges(_pairs((i, i + 1)))
            assert len(list((tmp_path / "j").glob("seg-*.wal"))) >= 4
            assert [e.seqno for e in j.replay()] == [0, 1, 2, 3]

    def test_append_after_close_raises(self, tmp_path):
        j = IngestJournal(tmp_path / "j")
        j.close()
        with pytest.raises(StreamError, match="closed"):
            j.append_edges(_pairs((0, 1)))

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="fsync_batch"):
            IngestJournal(tmp_path / "j", fsync_batch=0)
        with pytest.raises(ValueError, match="max_segment_bytes"):
            IngestJournal(tmp_path / "j", max_segment_bytes=4)

    def test_mismatched_timestamps_rejected(self, tmp_path):
        with IngestJournal(tmp_path / "j") as j:
            with pytest.raises(StreamError, match="timestamps length"):
                j.append_edges(_pairs((0, 1)), [0.1, 0.2])


class TestTornTails:
    def test_torn_tail_truncated_on_open(self, tmp_path):
        with IngestJournal(tmp_path / "j") as j:
            j.append_edges(_pairs((0, 1)))
            active = sorted((tmp_path / "j").glob("seg-*.wal"))[-1]
        with open(active, "ab") as fh:
            fh.write(b"WJ\x01\x00garbage-part")  # partial frame
        with IngestJournal(tmp_path / "j") as j:
            assert j.repaired is not None
            assert j.repaired[2] in ("truncated header", "truncated payload",
                                     "crc mismatch")
            # The acknowledged frame survived; the torn one is gone.
            assert [e.seqno for e in j.replay()] == [0]
            # And the journal appends cleanly past the repair.
            assert j.append_edges(_pairs((1, 2))) == 1

    def test_sealed_segment_corruption_raises(self, tmp_path):
        with IngestJournal(tmp_path / "j", max_segment_bytes=64) as j:
            for i in range(3):
                j.append_edges(_pairs((i, i + 1)))
            sealed = sorted((tmp_path / "j").glob("seg-*.wal"))[0]
        raw = bytearray(sealed.read_bytes())
        raw[-3] ^= 0xFF  # flip a payload byte under the CRC
        sealed.write_bytes(bytes(raw))
        with pytest.raises(JournalCorrupt, match="crc mismatch"):
            IngestJournal(tmp_path / "j")

    def test_injected_tear_repairs_without_seqno_loss(self, tmp_path):
        faults = StreamFaultPlan(seed=0, journal_tears=(JournalTear(append=1),))
        j = IngestJournal(tmp_path / "j", faults=faults)
        j.append_edges(_pairs((0, 1)))
        with pytest.raises(InjectedCrash, match="torn frame"):
            j.append_edges(_pairs((1, 2)))
        j.close()
        with IngestJournal(tmp_path / "j") as j2:
            assert j2.repaired is not None
            assert j2.last_seqno == 0  # the torn append was never acked
            assert j2.append_edges(_pairs((1, 2))) == 1
            assert [e.seqno for e in j2.replay()] == [0, 1]


class TestCompaction:
    def test_covered_segments_unlinked(self, tmp_path):
        with IngestJournal(tmp_path / "j", max_segment_bytes=64) as j:
            for i in range(4):
                j.append_edges(_pairs((i, i + 1)))
            removed = j.compact(digested_seqno=2)
            assert removed >= 3
            assert [e.seqno for e in j.replay(after_seqno=2)] == [3]
            # idempotent: nothing new to remove.
            assert j.compact(digested_seqno=2) == 0

    def test_twenty_small_generations_keep_one_segment(self, tmp_path):
        """Compaction never rolls the active segment: a generation whose
        frames are digested frees no file."""
        with IngestJournal(tmp_path / "j") as j:
            for g in range(20):
                j.append_edges(_pairs((g, g + 1)))
                assert j.compact(digested_seqno=j.last_seqno) == 0
            assert [p.name for p in (tmp_path / "j").iterdir()] == ["seg-00000000.wal"]
            assert list(j.replay(after_seqno=j.last_seqno)) == []
            assert [e.seqno for e in j.replay(after_seqno=17)] == [18, 19]
        with IngestJournal(tmp_path / "j") as j:  # and reopens onto the same suffix
            assert j.last_seqno == 19
            assert [e.seqno for e in j.replay(after_seqno=17)] == [18, 19]

    def test_crash_mid_compaction_replays_exact_suffix(self, tmp_path):
        with IngestJournal(tmp_path / "j", max_segment_bytes=64) as j:
            for i in range(4):
                j.append_edges(_pairs((i, i + 1)))
            with pytest.raises(InjectedCrash):
                j.compact(
                    digested_seqno=2,
                    crash_hook=lambda: (_ for _ in ()).throw(
                        InjectedCrash("mid-compaction")
                    ),
                )
        # Seal-before-unlink: nothing past the digested seqno was lost,
        # and the retried compact finishes the GC.
        with IngestJournal(tmp_path / "j") as j:
            assert [e.seqno for e in j.replay(after_seqno=2)] == [3]
            assert j.compact(digested_seqno=2) >= 1
            assert [e.seqno for e in j.replay(after_seqno=2)] == [3]

    def test_fsync_batching_syncs_on_close(self, tmp_path):
        with IngestJournal(tmp_path / "j", fsync_batch=10) as j:
            for i in range(3):
                j.append_edges(_pairs((i, i + 1)))
        with IngestJournal(tmp_path / "j") as j:
            assert j.last_seqno == 2


class TestQuarantineLog:
    def test_append_read_len(self, tmp_path):
        q = QuarantineLog(tmp_path / "q.jsonl")
        assert len(q) == 0
        q.append("negative-id", (-1, 3), seqno=7)
        q.append("self-loop", np.array([2, 2]))
        records = q.read()
        assert [r["reason"] for r in records] == ["negative-id", "self-loop"]
        assert records[0]["seqno"] == 7 and records[0]["record"] == [-1, 3]
        assert len(QuarantineLog(tmp_path / "q.jsonl")) == 2

    def test_torn_garbage_tail_truncated_on_append(self, tmp_path):
        path = tmp_path / "q.jsonl"
        q = QuarantineLog(path)
        q.append("negative-id", [-1, 3])
        with open(path, "ab") as fh:
            fh.write(b'{"reason": "torn')  # no newline: unacknowledged
        assert len(QuarantineLog(path)) == 1  # read tolerates the tear
        q2 = QuarantineLog(path)
        q2.append("self-loop", [2, 2])
        assert [r["reason"] for r in q2.read()] == ["negative-id", "self-loop"]

    def test_unterminated_valid_record_kept(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_bytes(b'{"reason": "x", "record": [0, 1]}')  # no newline
        q = QuarantineLog(path)
        q.append("y", [1, 2])
        assert [r["reason"] for r in q.read()] == ["x", "y"]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_bytes(b'not json\n{"reason": "x", "record": [0, 1]}\n')
        with pytest.raises(StreamError, match="corrupt line"):
            QuarantineLog(path).read()
