"""Cross-generation membership tracking: alignment, events, the ring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AMMSBConfig
from repro.core.state import ModelState
from repro.serve.artifact import build_artifact
from repro.stream import MembershipHistory
from tests.conftest import InodeLedger


def _artifact(pi, node_ids=None, iteration=0):
    pi = np.asarray(pi, dtype=np.float64)
    state = ModelState(
        pi=pi / pi.sum(axis=1, keepdims=True),
        phi_sum=np.ones(pi.shape[0]),
        theta=np.ones((pi.shape[1], 2)),
    )
    cfg = AMMSBConfig(n_communities=pi.shape[1], seed=0)
    return build_artifact(state, cfg, iteration=iteration, node_ids=node_ids)


def _crisp_pi(n, k, rng):
    """Near-one-hot memberships: unambiguous to align."""
    pi = rng.uniform(0.01, 0.05, size=(n, k))
    pi[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    return pi / pi.sum(axis=1, keepdims=True)


class TestAlignment:
    def test_permuted_generation_lands_in_canonical_labels(self, rng):
        pi = _crisp_pi(40, 4, rng)
        hist = MembershipHistory(window=4, top_k=2)
        hist.record(_artifact(pi), 0)
        perm = np.array([2, 0, 3, 1])
        hist.record(_artifact(pi[:, perm], iteration=1), 1)
        for node in (0, 7, 39):
            gens = hist.drift(node)["generations"]
            assert len(gens) == 2
            # Same memberships, relabeled: alignment must undo the
            # permutation, so both generations report identical tops.
            assert gens[0]["communities"] == gens[1]["communities"]
            np.testing.assert_allclose(
                gens[0]["weights"], gens[1]["weights"], atol=1e-12
            )

    def test_alignment_composes_across_generations(self, rng):
        """Gen 2 aligns to *aligned* gen 1, landing in gen-0 labels."""
        pi = _crisp_pi(30, 3, rng)
        hist = MembershipHistory(window=4, top_k=1)
        hist.record(_artifact(pi), 0)
        p1 = np.array([1, 2, 0])
        p2 = np.array([2, 1, 0])
        hist.record(_artifact(pi[:, p1]), 1)
        hist.record(_artifact(pi[:, p1][:, p2]), 2)
        tops = [g["communities"][0] for g in hist.drift(5)["generations"]]
        assert tops[0] == tops[1] == tops[2]

    def test_identical_artifact_has_zero_drift(self, rng):
        pi = _crisp_pi(20, 3, rng)
        hist = MembershipHistory(window=3)
        hist.record(_artifact(pi), 0)
        events = hist.record(_artifact(pi), 1)
        assert events == []
        np.testing.assert_allclose(hist.community_drift(), 0.0, atol=1e-9)

    def test_community_count_change_rejected(self, rng):
        hist = MembershipHistory()
        hist.record(_artifact(_crisp_pi(10, 3, rng)), 0)
        with pytest.raises(ValueError, match="community count"):
            hist.record(_artifact(_crisp_pi(10, 4, rng)), 1)

    def test_generations_must_increase(self, rng):
        hist = MembershipHistory()
        hist.record(_artifact(_crisp_pi(10, 3, rng)), 5)
        with pytest.raises(ValueError, match="not after"):
            hist.record(_artifact(_crisp_pi(10, 3, rng)), 5)


class TestEvents:
    def test_top_change_event_emitted(self, rng):
        pi = _crisp_pi(25, 3, rng)
        hist = MembershipHistory(window=3)
        hist.record(_artifact(pi), 0)
        moved = pi.copy()
        moved[7] = [0.05, 0.05, 0.9] if np.argmax(pi[7]) != 2 else [0.9, 0.05, 0.05]
        events = hist.record(_artifact(moved), 1)
        assert any(e.node == 7 and e.kind == "top-change" for e in events)
        d = hist.drift(7)
        assert d["events"] and d["events"][0]["kind"] == "top-change"

    def test_shift_event_without_top_change(self):
        pi = np.tile([0.7, 0.2, 0.1], (10, 1))
        hist = MembershipHistory(window=3, event_threshold=0.2)
        hist.record(_artifact(pi), 0)
        moved = pi.copy()
        moved[3] = [0.45, 0.45, 0.1]  # same argmax? no - tie; make it keep top
        moved[3] = [0.5, 0.4, 0.1]
        events = hist.record(_artifact(moved), 1)
        kinds = {e.node: e.kind for e in events}
        assert kinds.get(3) == "shift"

    def test_event_cap_keeps_largest_movers(self, rng):
        pi = _crisp_pi(30, 3, rng)
        hist = MembershipHistory(window=3, max_events_per_generation=2)
        hist.record(_artifact(pi), 0)
        moved = _crisp_pi(30, 3, np.random.default_rng(999))
        events = hist.record(_artifact(moved), 1)
        assert len(events) <= 2


class TestRing:
    def test_window_eviction(self, rng):
        pi = _crisp_pi(10, 3, rng)
        hist = MembershipHistory(window=2)
        for g in range(4):
            hist.record(_artifact(pi), g)
        assert hist.generations == [2, 3]
        assert len(hist.drift(0)["generations"]) == 2
        # first_seen outlives the ring.
        assert hist.drift(0)["first_seen_generation"] == 0

    def test_unknown_node_raises_keyerror(self, rng):
        hist = MembershipHistory()
        hist.record(_artifact(_crisp_pi(10, 3, rng)), 0)
        with pytest.raises(KeyError):
            hist.drift(99)

    def test_last_restricts_the_span(self, rng):
        pi = _crisp_pi(10, 3, rng)
        hist = MembershipHistory(window=4)
        for g in range(3):
            hist.record(_artifact(pi), g)
        assert len(hist.drift(0, last=1)["generations"]) == 1
        with pytest.raises(ValueError):
            hist.drift(0, last=0)

    def test_new_node_appears_mid_stream(self, rng):
        pi = _crisp_pi(10, 3, rng)
        hist = MembershipHistory(window=4)
        hist.record(_artifact(pi), 0)
        grown = np.vstack([pi, _crisp_pi(2, 3, rng)])
        hist.record(_artifact(grown), 1)
        d = hist.drift(11)
        assert d["first_seen_generation"] == 1
        assert [g["generation"] for g in d["generations"]] == [1]

    def test_drift_result_is_json_serializable(self, rng):
        import json

        hist = MembershipHistory()
        hist.record(_artifact(_crisp_pi(10, 3, rng)), 0)
        json.dumps(hist.drift(0))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MembershipHistory(window=0)
        with pytest.raises(ValueError):
            MembershipHistory(event_threshold=3.0)


class TestPersistence:
    """save/load: the ring survives a server restart bit-for-bit."""

    def test_round_trip_preserves_drift_answers(self, rng, tmp_path):
        pi = _crisp_pi(12, 3, rng)
        hist = MembershipHistory(window=4, top_k=2)
        for g in range(3):
            art = _artifact(np.roll(pi, g, axis=0))
            hist.record(art, g)
        path = hist.save(tmp_path / "history.npz")
        back = MembershipHistory.load(path)
        assert back.last_version == hist.last_version
        for node in (0, 5, 11):
            assert back.drift(node) == hist.drift(node)

    def test_round_trip_keeps_recording(self, rng, tmp_path):
        pi = _crisp_pi(10, 3, rng)
        hist = MembershipHistory(window=4)
        hist.record(_artifact(pi), 0)
        back = MembershipHistory.load(hist.save(tmp_path / "h.npz"))
        back.record_next(_artifact(_crisp_pi(10, 3, rng)))
        gens = [g["generation"] for g in back.drift(0)["generations"]]
        assert gens == [0, 1]

    def test_record_next_numbers_from_the_ring(self, rng):
        hist = MembershipHistory(window=4)
        art = _artifact(_crisp_pi(8, 3, rng))
        hist.record_next(art)
        hist.record_next(art)
        gens = [g["generation"] for g in hist.drift(0)["generations"]]
        assert gens == [0, 1]
        assert hist.last_version == art.version

    def test_missing_file_raises_typed_error(self, tmp_path):
        from repro.stream import StreamError

        with pytest.raises(StreamError, match="does not exist"):
            MembershipHistory.load(tmp_path / "nope.npz")

    def test_corrupt_file_raises_typed_error(self, tmp_path):
        from repro.stream import StreamError

        path = tmp_path / "h.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(StreamError):
            MembershipHistory.load(path)

    def test_a_save_frees_no_inode_once_it_has_a_spare(self, rng, tmp_path, monkeypatch):
        """Each save keeps the file it replaces as the next one's spare
        (``load`` copies every member), so from the second save on a
        publish with drift tracking frees no file."""
        pi = _crisp_pi(12, 3, rng)
        hist, path = MembershipHistory(window=3, top_k=2), tmp_path / "history"
        ledger = InodeLedger(monkeypatch, tmp_path)
        freed = []
        for g in range(6):  # the ring fills, then evicts: sizes vary
            hist.record(_artifact(np.roll(pi, g, axis=0)), g)
            before = len(ledger.freed)
            hist.save(path)
            freed.append(ledger.freed[before:])
            back = MembershipHistory.load(path)
            assert back.last_version == hist.last_version
            assert back.generations == hist.generations
            for node in range(12):
                assert back.drift(node) == hist.drift(node)
        assert freed[1:] == [[]] * 5, freed
        assert sorted(p.name for p in tmp_path.iterdir()) == [".history.spare", "history"]

    def test_empty_history_round_trips(self, tmp_path):
        hist = MembershipHistory(window=4)
        back = MembershipHistory.load(hist.save(tmp_path / "h.npz"))
        assert back.last_version is None
