"""Serving-tier resilience: fault plans, integrity, rollback, watchdog.

Covers the seeded :class:`~repro.faults.ServeFaultPlan` (including the
bit-reproducibility contract, pinned with hypothesis), artifact
verification / quarantine / the last-known-good registry, and the
:class:`~repro.serve.server.ModelServer` failure paths: swap-failure
rollback, deadlines, SLO load shedding with degraded membership
answers, watchdog crash/stall respawn, deterministic shutdown, and the
end-to-end chaos drill invariants.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import chaosbench
from repro.config import AMMSBConfig
from repro.core.state import ModelState, init_state
from repro.faults import (
    ArtifactFault,
    ServeFaultPlan,
    SwapFailure,
    WorkerCrash,
    WorkerCrashed,
    WorkerStall,
    chaos_serve_plan,
)
from repro.serve.artifact import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactRegistry,
    DEFAULT_TOP_K,
    ModelArtifact,
    build_artifact,
    load_artifact,
    quarantine_artifact,
    save_artifact,
)
from repro.serve.engine import QueryEngine
from repro.serve.server import (
    DeadlineExceeded,
    ModelServer,
    RequestShed,
    ShedPolicy,
    SwapFailed,
)
from tests.conftest import edit_manifest, flip_member_byte, overwrite_member


def _artifact(n=40, k=4, seed=0):
    cfg = AMMSBConfig(n_communities=k, seed=seed)
    state = init_state(n, cfg, np.random.default_rng(seed))
    return build_artifact(state, cfg)


def _perturbed(art, seed=1):
    rng = np.random.default_rng(seed)
    pi = art.pi * rng.uniform(0.9, 1.1, size=art.pi.shape)
    state = ModelState(
        pi=pi / pi.sum(axis=1, keepdims=True),
        phi_sum=np.ones(art.n_nodes),
        theta=art.theta.copy(),
    )
    return build_artifact(state, art.config, iteration=art.iteration + 1)


class TestServeFaultPlan:
    def test_empty_plan_is_empty(self):
        assert ServeFaultPlan().empty
        assert ServeFaultPlan(seed=99).empty
        assert not chaos_serve_plan().empty
        # spikes need both a rate and a duration to count as scheduled
        assert ServeFaultPlan(spike_rate=0.5).empty
        assert ServeFaultPlan(spike_seconds=1.0).empty
        assert not ServeFaultPlan(spike_rate=0.5, spike_seconds=0.001).empty

    def test_empty_plan_injects_nothing(self):
        plan = ServeFaultPlan(seed=7)
        assert plan.engine_delay() == 0.0
        assert plan.draws["spike"] == 0  # fast path: no RNG draw at all
        assert not plan.crash_due(0, 0)
        assert plan.stall_seconds(0, 0) == 0.0
        assert not plan.scheduled(SwapFailure, publish=0)
        assert not plan.scheduled(ArtifactFault, publish=0)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ArtifactFault(publish=-1)
        with pytest.raises(ValueError):
            ArtifactFault(publish=0, mode="nonsense")
        with pytest.raises(ValueError):
            WorkerCrash(worker=-1, at=0)
        with pytest.raises(ValueError):
            WorkerStall(worker=0, at=0, seconds=-1.0)
        with pytest.raises(ValueError):
            SwapFailure(publish=-1)
        with pytest.raises(ValueError):
            ServeFaultPlan(spike_rate=1.5)
        with pytest.raises(ValueError):
            ServeFaultPlan(spike_seconds=-0.1)

    def test_scheduled_lookups(self):
        plan = ServeFaultPlan(
            worker_crashes=(WorkerCrash(1, 3),),
            worker_stalls=(WorkerStall(0, 2, 0.5), WorkerStall(0, 2, 0.25)),
            swap_failures=(SwapFailure(1),),
            artifact_faults=(ArtifactFault(0, "payload"),),
        )
        assert plan.crash_due(1, 3) and not plan.crash_due(1, 2)
        assert plan.stall_seconds(0, 2) == pytest.approx(0.75)
        assert plan.stall_seconds(1, 2) == 0.0
        assert plan.scheduled(SwapFailure, publish=1)
        assert not plan.scheduled(SwapFailure, publish=0)
        assert plan.scheduled(ArtifactFault, publish=0) == (ArtifactFault(0, "payload"),)
        assert plan.scheduled(ArtifactFault, publish=1) == ()

    def test_describe(self):
        assert ServeFaultPlan().describe() == "ServeFaultPlan(empty)"
        text = chaos_serve_plan(seed=3).describe()
        assert "artifact fault" in text and "swap failure" in text
        assert "worker crash" in text and "spike_rate" in text

    def test_chaos_plan_needs_a_worker(self):
        with pytest.raises(ValueError):
            chaos_serve_plan(n_workers=0)

    def test_engine_delay_sequence_is_seeded(self):
        a = ServeFaultPlan(seed=5, spike_rate=0.3, spike_seconds=0.001)
        b = ServeFaultPlan(seed=5, spike_rate=0.3, spike_seconds=0.001)
        seq_a = [a.engine_delay() for _ in range(200)]
        seq_b = [b.engine_delay() for _ in range(200)]
        assert seq_a == seq_b
        assert any(d > 0 for d in seq_a) and any(d == 0 for d in seq_a)


class TestPlanBitReproducible:
    """Seeded plans must be bit-reproducible across every injector —
    the serving counterpart of the PR-1 training guarantee."""

    @given(seed=st.integers(0, 2**31 - 1), rate=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_spike_stream(self, seed, rate):
        a = ServeFaultPlan(seed=seed, spike_rate=rate, spike_seconds=1e-9)
        b = ServeFaultPlan(seed=seed, spike_rate=rate, spike_seconds=1e-9)
        assert [a.engine_delay() for _ in range(64)] == [
            b.engine_delay() for _ in range(64)
        ]

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_flip_corruption_bytes(self, seed, tmp_path_factory):
        art = _artifact(n=20, k=3)
        damaged = []
        for run in range(2):
            path = tmp_path_factory.mktemp("bitrepro") / f"a{run}"
            save_artifact(path, art)
            ServeFaultPlan(seed=seed).corrupt_file(path, "flip")
            damaged.append(path.read_bytes())
        assert damaged[0] == damaged[1]

    def test_truncate_and_payload_deterministic(self, tmp_path):
        art = _artifact(n=20, k=3)
        blobs = {"truncate": [], "payload": []}
        for mode in blobs:
            for run in range(2):
                path = tmp_path / f"{mode}{run}"
                save_artifact(path, art)
                ServeFaultPlan(seed=11).corrupt_file(path, mode)
                blobs[mode].append(path.read_bytes())
        assert blobs["truncate"][0] == blobs["truncate"][1]
        assert blobs["payload"][0] == blobs["payload"][1]

    def test_empty_plan_spikes_leave_engine_bit_identical(self):
        art = _artifact()
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        plain = QueryEngine(art).link_probability(pairs)
        armed = QueryEngine(art, faults=ServeFaultPlan(seed=3)).link_probability(pairs)
        np.testing.assert_array_equal(plain, armed)

    def test_spiked_engine_results_still_exact(self):
        """Spikes add latency, never change answers."""
        art = _artifact()
        pairs = np.array([[0, 1], [2, 3]])
        plan = ServeFaultPlan(seed=0, spike_rate=0.9, spike_seconds=1e-6)
        spiked = QueryEngine(art, faults=plan)
        np.testing.assert_array_equal(
            QueryEngine(art).link_probability(pairs), spiked.link_probability(pairs)
        )
        assert plan.draws["spike"] > 0


class TestArtifactIntegrity:
    @pytest.fixture()
    def saved(self, tmp_path):
        art = _artifact()
        return art, save_artifact(tmp_path / "model", art)

    def test_clean_roundtrip_verifies(self, saved):
        art, path = saved
        loaded = load_artifact(path)  # verify=True by default
        assert loaded.version == art.version

    @pytest.mark.parametrize("mode", ["flip", "truncate", "payload"])
    def test_each_corruption_mode_is_caught(self, saved, mode):
        """By the full verify a publish runs — every mode damages ``pi.npy``,
        whose digest the default load defers."""
        _, path = saved
        ServeFaultPlan(seed=0).corrupt_file(path, mode)
        with pytest.raises(ArtifactCorrupt):
            load_artifact(path, verify="full")

    def test_payload_swap_passes_without_verify(self, saved):
        """The payload mode is invisible to headers + invariants — only
        the member's sha256 in the sealed manifest catches it."""
        art, path = saved
        ServeFaultPlan(seed=0).corrupt_file(path, "payload")
        loaded = load_artifact(path, verify=False)
        loaded.validate()  # structurally fine...
        assert not np.array_equal(loaded.pi, art.pi)  # ...but not what we wrote
        with pytest.raises(ArtifactCorrupt, match="sha256 mismatch"):
            load_artifact(path, verify="full")

    def test_corrupt_is_a_typed_subclass(self, saved):
        _, path = saved
        ServeFaultPlan(seed=0).corrupt_file(path, "truncate")
        with pytest.raises(ArtifactError):  # ArtifactCorrupt IS-A ArtifactError
            load_artifact(path)

    def test_missing_file_is_plain_error(self, tmp_path):
        with pytest.raises(ArtifactError) as ei:
            load_artifact(tmp_path / "nope.npz")
        assert not isinstance(ei.value, ArtifactCorrupt)

    def test_bad_corrupt_mode_rejected(self, saved):
        _, path = saved
        with pytest.raises(ValueError):
            ServeFaultPlan(seed=0).corrupt_file(path, "nonsense")

    def test_quarantine_moves_and_numbers(self, tmp_path):
        art = _artifact()
        names = []
        for _ in range(3):
            path = save_artifact(tmp_path / "model", art)
            names.append(quarantine_artifact(path).name)
            assert not path.exists()
        assert names == [
            "model.quarantined",
            "model.quarantined.1",
            "model.quarantined.2",
        ]


class TestArtifactRegistry:
    def test_previous_skips_same_version(self):
        a, b = _artifact(seed=0), _perturbed(_artifact(seed=0), seed=1)
        reg = ArtifactRegistry()
        reg.record(0, a)
        assert reg.previous(a.version) is None  # no alternative yet
        reg.record(1, b)
        assert reg.previous(b.version) is a
        assert reg.previous(a.version) is b
        assert reg.versions() == [a.version, b.version]

    def test_bounded_history(self):
        base = _artifact()
        reg = ArtifactRegistry(capacity=2)
        arts = [base] + [_perturbed(base, seed=s) for s in range(1, 4)]
        for gen, art in enumerate(arts):
            reg.record(gen, art)
        assert len(reg) == 2
        assert reg.versions() == [arts[-2].version, arts[-1].version]

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            ArtifactRegistry(capacity=1)

    def test_record_hands_back_what_it_evicts(self):
        base = _artifact()
        reg = ArtifactRegistry(capacity=2)
        arts = [base] + [_perturbed(base, seed=s) for s in range(1, 4)]
        evicted = [reg.record(gen, art) for gen, art in enumerate(arts)]
        assert evicted[:2] == [None, None]
        assert [entry[1] for entry in evicted[2:]] == arts[:2]

    def test_a_request_submitted_during_a_blocked_release_completes(self):
        """Dropping an evicted artifact can unmap the last name of a removed
        model file, which frees its blocks (~0.5 s for 13 MB on a disk that
        discards). The swap drops it once it has left the server lock, so
        submits and workers go on meanwhile."""
        releasing, release = threading.Event(), threading.Event()

        class SlowRelease:  # stands in for an artifact whose release blocks
            version = "evicted"

            def __del__(self):
                releasing.set()
                release.wait(10)

        art = _artifact()
        with ModelServer(art, n_workers=1) as server:
            server._registry._entries.appendleft((-1, SlowRelease()))
            for seed in (1, 2):
                server.publish(_perturbed(art, seed=seed))
            assert len(server._registry) == 4 and not releasing.is_set()
            publisher = threading.Thread(target=server.publish, args=(_perturbed(art, seed=3),))
            publisher.start()
            assert releasing.wait(5)
            answers = []
            asker = threading.Thread(
                target=lambda: answers.append(server.membership(0).result(timeout=5))
            )
            asker.start()
            asker.join(timeout=5)
            answered_while_blocked = bool(answers) and publisher.is_alive()
            release.set()
            publisher.join(timeout=5)
            asker.join(timeout=5)
            assert answered_while_blocked and not publisher.is_alive()
            assert server.generation == 3


class TestSwapFailureRollback:
    def test_failed_swap_rolls_back_and_raises(self):
        art = _artifact()
        plan = ServeFaultPlan(seed=0, swap_failures=(SwapFailure(0),))
        with ModelServer(art, n_workers=0, faults=plan) as server:
            new = _perturbed(art)
            with pytest.raises(SwapFailed) as ei:
                server.publish(new)
            assert ei.value.failed_version == new.version
            assert ei.value.serving_version == art.version
            assert server.artifact.version == art.version
            # double generation bump: nothing keyed to the failed snapshot
            assert server.generation == 2
            res = server.metrics.snapshot()["resilience"]
            assert res["rollbacks"] == 1 and res["publish_failures"] == 1
            # the next publish (swap index 1) succeeds
            assert server.publish(new) == 3
            assert server.artifact.version == new.version

    def test_failed_swap_never_serves_failed_snapshot(self):
        art = _artifact()
        plan = ServeFaultPlan(seed=0, swap_failures=(SwapFailure(0),))
        with ModelServer(art, n_workers=0, faults=plan, cache_size=0) as server:
            with pytest.raises(SwapFailed):
                server.publish(_perturbed(art))
            fut = server.link_probability(np.array([[0, 1]]))
            server.process_once()
            expect = QueryEngine(art).link_probability(np.array([[0, 1]]))
            np.testing.assert_array_equal(fut.result(timeout=5), expect)

    def test_manual_rollback(self):
        """An operator rolls back by publishing the last good artifact
        again: an ordinary hot swap, not a failure."""
        art = _artifact()
        new = _perturbed(art)
        with ModelServer(art, n_workers=0) as server:
            server.publish(new)
            gen = server.publish(art)
            assert gen == 2 and server.artifact.version == art.version
            res = server.metrics.snapshot()["resilience"]
            assert res["rollbacks"] == 0 and res["publish_failures"] == 0

    def test_publish_path_quarantines_corruption(self, tmp_path):
        art = _artifact()
        with ModelServer(art, n_workers=0) as server:
            path = save_artifact(tmp_path / "swap", _perturbed(art))
            ServeFaultPlan(seed=0).corrupt_file(path, "payload")
            with pytest.raises(ArtifactCorrupt) as ei:
                server.publish_path(path)
            assert not path.exists()  # moved aside
            assert ei.value.quarantined.name == "swap.quarantined"
            assert server.generation == 0  # untouched
            res = server.metrics.snapshot()["resilience"]
            assert res["quarantines"] == 1 and res["publish_failures"] == 1

    def test_publish_path_clean_file_installs(self, tmp_path):
        art = _artifact()
        new = _perturbed(art)
        with ModelServer(art, n_workers=0) as server:
            path = save_artifact(tmp_path / "swap", new)
            assert server.publish_path(path) == 1
            assert server.artifact.version == new.version


class TestV2ArtifactFaults:
    """Corruption handling for artifact container files."""

    def _save_v2(self, tmp_path, art, name="swap_v2"):
        return save_artifact(tmp_path / name, art)

    def test_corrupt_array_file_quarantined(self, tmp_path):
        art = _artifact()
        with ModelServer(art, n_workers=0) as server:
            path = self._save_v2(tmp_path, _perturbed(art))
            flip_member_byte(path, "pi")  # mid-payload bit flip
            with pytest.raises(ArtifactCorrupt) as ei:
                server.publish_path(path)
            assert not path.exists()  # the whole container moved aside
            assert ei.value.quarantined.name == "swap_v2.quarantined"
            assert (tmp_path / "swap_v2.quarantined").is_file()
            assert server.generation == 0
            res = server.metrics.snapshot()["resilience"]
            assert res["quarantines"] == 1 and res["publish_failures"] == 1

    def test_corrupt_manifest_field_quarantined(self, tmp_path):
        art = _artifact()
        with ModelServer(art, n_workers=0) as server:
            path = self._save_v2(tmp_path, _perturbed(art))
            # single manifest-field tamper
            edit_manifest(path, lambda m: m["meta"].update(iteration=999))
            with pytest.raises(ArtifactCorrupt):
                server.publish_path(path)
            assert not path.exists()
            assert server.metrics.snapshot()["resilience"]["quarantines"] == 1

    def test_failed_v2_publish_keeps_serving_last_known_good(self, tmp_path):
        art = _artifact()
        good, bad = _perturbed(art, seed=1), _perturbed(art, seed=2)
        with ModelServer(art, n_workers=0) as server:
            assert server.publish_path(self._save_v2(tmp_path, good, "good")) == 1
            assert server.artifact.version == good.version
            path = self._save_v2(tmp_path, bad, "bad")
            overwrite_member(path, "theta", b"garbage")
            with pytest.raises(ArtifactCorrupt):
                server.publish_path(path)
            # still on the last-known-good artifact, and it still answers
            assert server.artifact.version == good.version
            assert good.version in server._registry.versions()
            fut = server.link_probability(np.array([[0, 1]]))
            server.process_once()
            expect = QueryEngine(good).link_probability(np.array([[0, 1]]))
            np.testing.assert_allclose(fut.result(timeout=5), expect)

    def test_clean_v2_dir_installs(self, tmp_path):
        art = _artifact()
        new = _perturbed(art)
        with ModelServer(art, n_workers=0) as server:
            assert server.publish_path(self._save_v2(tmp_path, new)) == 1
            assert server.artifact.version == new.version


class TestValidateOnce:
    """``publish_path`` loads with ``verify="full"``, which validates; the
    swap does not validate the same frozen object again. ``publish()``
    called with an artifact of unknown provenance still does."""

    @pytest.fixture()
    def validations(self, monkeypatch):
        calls = []
        real = ModelArtifact.validate

        def counting(self):
            calls.append(self.version)
            return real(self)

        monkeypatch.setattr(ModelArtifact, "validate", counting)
        return calls

    @pytest.mark.parametrize("fmt", ["dir", "npz"])  # a name, not a format
    def test_publish_path_validates_once(self, tmp_path, validations, fmt):
        art = _artifact()
        new = _perturbed(art)
        path = save_artifact(tmp_path / f"swap.{fmt}", new)
        assert path.is_file()
        with ModelServer(art, n_workers=0) as server:
            validations.clear()
            assert server.publish_path(path) == 1
            assert validations == [new.version]

    def test_direct_publish_still_validates(self, validations):
        art = _artifact()
        new = _perturbed(art)
        with ModelServer(art, n_workers=0) as server:
            validations.clear()
            server.publish(new)
            assert validations == [new.version]
            broken = type(new)(
                config=new.config, pi=new.pi * 2.0, theta=new.theta, beta=new.beta,
                node_ids=new.node_ids, version="broken",
            )
            with pytest.raises(ValueError, match="normalized"):
                server.publish(broken)
            assert server.artifact.version == new.version

    @staticmethod
    def _refused_at_publish(tmp_path, row_0_scale):
        # digests and seal agree with the (bad) payload, so only
        # validate() can catch it: once must be enough
        art = _artifact()
        bad_pi = art.pi.copy()
        bad_pi[0] *= row_0_scale
        bad = type(art)(
            config=art.config, pi=bad_pi, theta=art.theta, beta=art.beta,
            node_ids=art.node_ids,
        )
        path = save_artifact(tmp_path / "bad", bad)
        with ModelServer(art, n_workers=0) as server:
            with pytest.raises(ValueError, match="normalized"):
                server.publish(bad)
            with pytest.raises(ArtifactCorrupt, match="normalized"):
                server.publish_path(path)
            assert (tmp_path / "bad.quarantined").is_file()
            assert server.generation == 0

    def test_invalid_rows_on_disk_still_quarantine(self, tmp_path):
        self._refused_at_publish(tmp_path, 1.5)

    def test_a_row_off_by_5e_6_is_refused_at_publish(self, tmp_path):
        # atol 1e-6 is the whole tolerance: np.allclose's default rtol
        # once let float64 rows through up to 1.1e-5 off
        self._refused_at_publish(tmp_path, 1 + 5e-6)


class TestStaleCacheEviction:
    def test_publish_purges_dead_generation_keys(self):
        with ModelServer(_artifact(), n_workers=0, cache_size=8) as server:
            for i in range(4):
                server.membership(i)
            server.process_once()
            assert server.metrics.snapshot()["cache"]["misses"] == 4
            server.publish(_perturbed(server.artifact))
            snap = server.metrics.snapshot()
            # old-generation entries no longer squat on capacity
            assert snap["cache"]["stale_evictions"] == 4
            # and they are truly gone: same queries miss again
            for i in range(4):
                server.membership(i)
            server.process_once()
            assert server.metrics.snapshot()["cache"]["hits"] == 0

    def test_rollback_also_purges(self):
        plan = ServeFaultPlan(seed=0, swap_failures=(SwapFailure(1),))
        with ModelServer(_artifact(), n_workers=0, cache_size=8, faults=plan) as server:
            server.publish(_perturbed(server.artifact))
            server.membership(0)
            server.process_once()
            with pytest.raises(SwapFailed):
                server.publish(_perturbed(server.artifact, seed=2))
            assert server.metrics.snapshot()["cache"]["stale_evictions"] == 1


class TestDeadlines:
    def test_expired_request_fails_typed(self):
        with ModelServer(_artifact(), n_workers=0, cache_size=0) as server:
            fut = server.membership(0, deadline_ms=0.001)
            time.sleep(0.01)
            assert server.process_once() == 0  # expired, not answered
            with pytest.raises(DeadlineExceeded) as ei:
                fut.result(timeout=5)
            assert ei.value.endpoint == "membership"
            assert ei.value.waited_ms >= ei.value.deadline_ms
            snap = server.metrics.snapshot()
            assert snap["resilience"]["deadline_exceeded"] == 1
            assert snap["endpoints"] == {}  # never counted as answered

    def test_default_deadline_applies(self):
        with ModelServer(
            _artifact(), n_workers=0, cache_size=0, default_deadline_ms=0.001
        ) as server:
            fut = server.membership(0)
            time.sleep(0.01)
            server.process_once()
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=5)

    def test_generous_deadline_still_answers(self):
        with ModelServer(_artifact(), n_workers=0, cache_size=0) as server:
            fut = server.membership(0, deadline_ms=60_000)
            assert server.process_once() == 1
            assert fut.result(timeout=5)

    def test_expired_mixed_with_live_in_one_flush(self):
        with ModelServer(
            _artifact(), n_workers=0, cache_size=0, max_batch=8
        ) as server:
            doomed = server.membership(0, deadline_ms=0.001)
            live = server.membership(1, deadline_ms=60_000)
            time.sleep(0.01)
            assert server.process_once() == 1  # only the live one
            assert live.result(timeout=5)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5)

    def test_expiry_flushes_even_when_no_batch_follows(self):
        """Workers blocked on an empty queue must still fail expired
        leftovers instead of parking their futures forever."""
        with ModelServer(
            _artifact(), n_workers=1, cache_size=0
        ) as server:
            # saturate the worker so the burst queues behind a real batch
            futs = [
                server.membership(i, deadline_ms=0.005) for i in range(50)
            ]
            outcomes = []
            for f in futs:
                try:
                    f.result(timeout=10)
                    outcomes.append("ok")
                except DeadlineExceeded:
                    outcomes.append("expired")
            assert len(outcomes) == 50  # nothing hung
            assert "expired" in outcomes

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            ModelServer(_artifact(), n_workers=0, default_deadline_ms=0)


class TestLoadShedding:
    def _shedding_server(self, **kw):
        defaults = dict(
            n_workers=0,
            cache_size=0,
            queue_limit=4,
            shed_policy=ShedPolicy(queue_high_fraction=0.5, degraded_membership=True),
        )
        defaults.update(kw)
        return ModelServer(_artifact(), **defaults)

    def test_queue_highwater_sheds_typed(self):
        with self._shedding_server() as server:
            server.community_members(0)
            server.community_members(1)  # depth 2 == 0.5 * 4: at high water
            with pytest.raises(RequestShed, match="high-water"):
                server.link_probability(np.array([[0, 1]]))
            assert server.metrics.snapshot()["resilience"]["shed"] == 1
            assert not server.ready()
            server.process_once()  # drain
            server.link_probability(np.array([[0, 1]]))  # admitted again
            assert server.ready() is False or True  # queue has 1 entry now

    def test_degraded_membership_answers_from_topk(self):
        with self._shedding_server() as server:
            server.community_members(0)
            server.community_members(1)
            fut = server.membership(3)  # shed state -> degraded answer
            assert fut.done()
            expect = QueryEngine(server.artifact).membership(3)
            assert fut.result() == expect  # bit-identical to the fast path
            snap = server.metrics.snapshot()
            assert snap["resilience"]["degraded_answers"] == 1
            assert snap["resilience"]["shed"] == 0

    def test_degraded_respects_stored_k(self):
        """Degraded answers go up to the width ``min(DEFAULT_TOP_K, K)``
        the top-K table was once stored at, and no further."""
        with self._shedding_server() as server:
            server.community_members(0)
            server.community_members(1)
            width = min(DEFAULT_TOP_K, server.artifact.n_communities)
            fut = server.membership(0, k=width)
            assert fut.result(timeout=5) == QueryEngine(server.artifact).membership(0, k=width)
            with pytest.raises(RequestShed):
                server.membership(0, k=width + 1)  # can't degrade: shed

    def test_degraded_unknown_node_errors_typed(self):
        with self._shedding_server() as server:
            server.community_members(0)
            server.community_members(1)
            fut = server.membership(9999)
            with pytest.raises(KeyError):
                fut.result(timeout=5)

    def test_degraded_mode_can_be_disabled(self):
        policy = ShedPolicy(queue_high_fraction=0.5, degraded_membership=False)
        with self._shedding_server(shed_policy=policy) as server:
            server.community_members(0)
            server.community_members(1)
            with pytest.raises(RequestShed):
                server.membership(3)

    def test_p99_breach_sheds(self):
        policy = ShedPolicy(slo_p99_ms=1.0, queue_high_fraction=1.0)
        with ModelServer(
            _artifact(), n_workers=0, cache_size=0, shed_policy=policy
        ) as server:
            # forge slow observations into the latency window
            for _ in range(10):
                server.metrics.record_request("link_probability", 0.05)
            with pytest.raises(RequestShed, match="SLO"):
                server.link_probability(np.array([[0, 1]]))

    def test_no_policy_means_no_shedding(self):
        with ModelServer(
            _artifact(), n_workers=0, cache_size=0, queue_limit=4
        ) as server:
            for _ in range(10):
                server.metrics.record_request("link_probability", 10.0)
            server.link_probability(np.array([[0, 1]]))  # admitted regardless

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ShedPolicy(slo_p99_ms=0)
        with pytest.raises(ValueError):
            ShedPolicy(queue_high_fraction=1.5)
        with pytest.raises(ValueError):
            ShedPolicy(p99_window=0)


class TestWatchdog:
    def test_crashed_worker_respawns_and_serves(self):
        plan = ServeFaultPlan(seed=0, worker_crashes=(WorkerCrash(0, 0),))
        with ModelServer(
            _artifact(),
            n_workers=1,
            cache_size=0,
            faults=plan,
            watchdog_interval_s=0.02,
        ) as server:
            doomed = server.membership(0)
            with pytest.raises(WorkerCrashed):
                doomed.result(timeout=10)
            # the respawned worker answers; the crash never refires
            for i in range(3):
                assert server.query("membership", i, timeout=10)
            res = server.metrics.snapshot()["resilience"]
            assert res["worker_respawns"] >= 1
            assert server.health()["workers_alive"] == 1

    def test_stalled_worker_is_fenced_and_replaced(self):
        plan = ServeFaultPlan(
            seed=0, worker_stalls=(WorkerStall(0, 0, seconds=1.5),)
        )
        with ModelServer(
            _artifact(),
            n_workers=1,
            cache_size=0,
            faults=plan,
            stall_timeout_s=0.2,
            watchdog_interval_s=0.02,
        ) as server:
            stuck = server.membership(0)
            with pytest.raises(WorkerCrashed) as ei:
                stuck.result(timeout=10)
            assert ei.value.stalled
            # replacement drains new traffic while the zombie sleeps
            assert server.query("membership", 1, timeout=10)
            assert server.metrics.snapshot()["resilience"]["worker_respawns"] >= 1

    def test_zombie_completion_does_not_clobber(self):
        """When the fenced zombie finally wakes, the already-failed
        futures must keep their typed error (first writer wins)."""
        plan = ServeFaultPlan(
            seed=0, worker_stalls=(WorkerStall(0, 0, seconds=0.6),)
        )
        with ModelServer(
            _artifact(),
            n_workers=1,
            cache_size=0,
            faults=plan,
            stall_timeout_s=0.15,
            watchdog_interval_s=0.02,
        ) as server:
            stuck = server.membership(0)
            with pytest.raises(WorkerCrashed):
                stuck.result(timeout=10)
            time.sleep(1.0)  # let the zombie wake and try to answer
            with pytest.raises(WorkerCrashed):
                stuck.result(timeout=1)

    def test_healthy_workers_not_respawned(self):
        with ModelServer(
            _artifact(), n_workers=2, watchdog_interval_s=0.02
        ) as server:
            for i in range(5):
                server.query("membership", i, timeout=10)
            time.sleep(0.2)  # several watchdog sweeps over idle workers
            assert server.metrics.snapshot()["resilience"]["worker_respawns"] == 0
            assert server.health()["workers_alive"] == 2


class TestProbes:
    def test_health_shape(self):
        with ModelServer(_artifact(), n_workers=1) as server:
            h = server.health()
            assert h["healthy"] is True and h["ready"] is True
            assert h["workers_alive"] == 1 and h["workers_expected"] == 1
            assert h["artifact_version"] == server.artifact.version
            assert h["known_good_versions"] == [server.artifact.version]

    def test_manual_mode_is_healthy_without_workers(self):
        with ModelServer(_artifact(), n_workers=0) as server:
            assert server.health()["healthy"] is True

    def test_closed_server_unhealthy_and_unready(self):
        server = ModelServer(_artifact(), n_workers=0)
        server.close()
        assert server.health()["healthy"] is False
        assert server.ready() is False

    def test_full_queue_not_ready(self):
        with ModelServer(
            _artifact(), n_workers=0, queue_limit=2, cache_size=0
        ) as server:
            server.membership(0)
            server.membership(1)
            assert server.ready() is False


class TestDeterministicShutdown:
    def test_close_resolves_every_future(self):
        """Satellite regression: close() racing in-flight batches must
        leave zero unresolved futures."""
        for trial in range(3):
            server = ModelServer(
                _artifact(n=60), n_workers=2, cache_size=0
            )
            futs = [server.membership(i % 60) for i in range(100)]
            # close while batches are very likely in flight
            server.close()
            resolved = sum(1 for f in futs if f.done() or f.cancelled())
            assert resolved == 100

    def test_close_fails_stuck_worker_batch(self):
        """A worker hung past the drain timeout cannot park its batch."""
        plan = ServeFaultPlan(
            seed=0, worker_stalls=(WorkerStall(0, 0, seconds=3.0),)
        )
        server = ModelServer(
            _artifact(),
            n_workers=1,
            cache_size=0,
            faults=plan,
            stall_timeout_s=60.0,  # watchdog will NOT fence it first
        )
        stuck = server.membership(0)
        time.sleep(0.2)  # ensure the worker picked the batch up
        server.close(drain_timeout_s=0.2)
        with pytest.raises(WorkerCrashed):
            stuck.result(timeout=1)

    def test_close_idempotent(self):
        server = ModelServer(_artifact(), n_workers=1)
        server.close()
        server.close()  # second close is a no-op


class TestWindowedP99:
    def test_empty_window_reads_zero(self):
        from repro.serve.metrics import ServerMetrics

        assert ServerMetrics().observed_p99_ms() == 0.0

    def test_tracks_recent_tail(self):
        from repro.serve.metrics import ServerMetrics

        m = ServerMetrics(p99_window=100)
        for _ in range(99):
            m.record_request("x", 0.001)
        m.record_request("x", 0.5)
        assert m.observed_p99_ms() >= 1.0
        # the slow outlier scrolls out of the bounded window
        for _ in range(100):
            m.record_request("x", 0.001)
        assert m.observed_p99_ms() == pytest.approx(1.0, rel=0.1)


class TestChaosServeDrill:
    """The end-to-end recovery invariants — the CI hard gate."""

    @pytest.fixture(scope="class")
    def report(self):
        return chaosbench.run_chaos_serve(quick=True, seed=2026)

    def test_all_invariants_hold(self, report):
        assert report["invariants"] == {k: True for k in report["invariants"]}
        assert report["passed"] is True

    def test_schema_and_plan(self, report):
        assert report["schema"] == chaosbench.CHAOS_SCHEMA
        assert "worker crash" in report["plan"]

    def test_publish_sequence(self, report):
        outcomes = [o["outcome"] for o in report["publish_attempts"]]
        assert outcomes == ["quarantined", "quarantined", "rolled_back", "published"]
        assert len(report["quarantined_files"]) == 2

    def test_accounting_closes_with_typed_errors(self, report):
        c = report["client"]
        assert c["dropped"] == 0
        assert c["completed"] + c["errors"] + c["deadline_exceeded"] == c["requests"]
        assert set(c["error_types"]) <= {"WorkerCrashed"}

    def test_rows_render(self, report):
        rows = chaosbench.chaos_report_rows(report)
        assert any("drill passed" == r["metric"] for r in rows)
