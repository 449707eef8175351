"""Serving artifacts: round-trip, versioning, typed errors, atomicity."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.artifact as artifact_module
from repro.config import AMMSBConfig
from repro.core.checkpoint import (
    STATE_KIND,
    CheckpointError,
    _config_to_json,
    load_state_checkpoint,
)
from repro.core.sampler import AMMSBSampler
from repro.core.state import init_state
from repro.serve.artifact import (
    ArtifactCorrupt,
    ArtifactError,
    _content_version,
    _top_communities,
    build_artifact,
    export_artifact,
    export_from_sampler,
    export_state_artifact,
    load_artifact,
    save_artifact,
)
from repro.store import Container, write_container
from tests.conftest import reseal_container


@pytest.fixture()
def small_state(config):
    rng = np.random.default_rng(3)
    return init_state(50, config, rng)


class TestBuildArtifact:
    def test_pi_is_renormalized_copy(self, small_state, config):
        art = build_artifact(small_state, config)
        np.testing.assert_allclose(art.pi.sum(axis=1), 1.0, atol=1e-12)
        small_state.pi[0, 0] = 123.0  # caller keeps mutating
        assert art.pi[0, 0] != 123.0

    def test_beta_matches_theta(self, small_state, config):
        art = build_artifact(small_state, config)
        np.testing.assert_array_equal(
            art.beta, art.theta[:, 1] / art.theta.sum(axis=1)
        )

    def test_top_communities_are_the_argmax_rows(self, small_state, config):
        art = build_artifact(small_state, config, top_k=3)
        for row in range(art.n_nodes):
            expect = np.argsort(-art.pi[row], kind="stable")[:3]
            np.testing.assert_array_equal(
                np.sort(art.top_communities[row]), np.sort(expect)
            )
            np.testing.assert_array_equal(
                art.top_weights[row], art.pi[row, art.top_communities[row]]
            )
            assert np.all(np.diff(art.top_weights[row]) <= 0)

    def test_top_k_clamped_to_K(self, small_state, config):
        art = build_artifact(small_state, config, top_k=999)
        assert art.top_communities.shape[1] == config.n_communities

    def test_version_is_deterministic_content_hash(self, small_state, config):
        a = build_artifact(small_state, config)
        b = build_artifact(small_state, config)
        assert a.version == b.version and len(a.version) == 16
        perturbed = init_state(50, config, np.random.default_rng(4))
        c = build_artifact(perturbed, config)
        assert c.version != a.version

    def test_custom_node_ids(self, small_state, config):
        ids = np.arange(50, dtype=np.int64) * 7 + 3
        art = build_artifact(small_state, config, node_ids=ids)
        assert art.row_of(3) == 0 and art.row_of(10) == 1
        assert len(art._row_index) == 50  # non-identity ids go through the dict
        with pytest.raises(KeyError, match="unknown node id"):
            art.row_of(4)
        np.testing.assert_array_equal(
            art.rows_of(np.array([[3, 10], [17, 3]])), [[0, 1], [2, 0]]
        )

    def test_identity_ids_range_checked(self, small_state, config):
        art = build_artifact(small_state, config)
        with pytest.raises(KeyError):
            art.rows_of(np.array([0, 50]))
        with pytest.raises(KeyError):
            art.rows_of(np.array([-1]))
        assert [art.row_of(v) for v in (0, 17, np.int64(49))] == [0, 17, 49]
        for bad in (50, -1):  # -1 must not wrap to the last row
            with pytest.raises(KeyError, match="unknown node id"):
                art.row_of(bad)
        assert art._row_index == {}  # identity ids never build the N-entry dict

    def test_wrong_node_id_count_rejected(self, small_state, config):
        with pytest.raises(ValueError, match="one entry per pi row"):
            build_artifact(small_state, config, node_ids=np.arange(49))


class TestRoundTrip:
    def test_save_load_round_trip(self, small_state, config, tmp_path):
        path = export_artifact(
            tmp_path / "a.npz", small_state, config, iteration=17
        )
        art = load_artifact(path)
        ref = build_artifact(small_state, config, iteration=17)
        assert art.version == ref.version
        assert art.iteration == 17
        assert art.config == config
        np.testing.assert_array_equal(art.pi, ref.pi)
        np.testing.assert_array_equal(art.theta, ref.theta)
        np.testing.assert_array_equal(art.beta, ref.beta)
        np.testing.assert_array_equal(art.top_communities, ref.top_communities)

    def test_float32_round_trip(self, tmp_path):
        cfg = AMMSBConfig(n_communities=4, dtype="float32")
        state = init_state(30, cfg, np.random.default_rng(0))
        path = export_artifact(tmp_path / "f32.npz", state, cfg)
        art = load_artifact(path)
        assert art.pi.dtype == np.float32
        assert art.config.dtype == "float32"

    def test_export_from_sampler(self, planted, config, tmp_path):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        s.run(3)
        path = export_from_sampler(tmp_path / "s.npz", s)
        art = load_artifact(path)
        assert art.iteration == 3
        assert art.n_nodes == graph.n_vertices

    def test_atomic_overwrite_no_temp_files(self, small_state, config, tmp_path):
        export_artifact(tmp_path / "x.npz", small_state, config)
        export_artifact(tmp_path / "x.npz", small_state, config)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.npz"]


class TestArtifactErrors:
    @pytest.fixture()
    def saved(self, small_state, config, tmp_path):
        return export_artifact(tmp_path / "e.npz", small_state, config)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist") as ei:
            load_artifact(tmp_path / "nope.npz")
        assert ei.value.path == tmp_path / "nope.npz"

    def test_garbage_file(self, tmp_path):
        bad = tmp_path / "junk.npz"
        bad.write_bytes(b"not a container")
        with pytest.raises(ArtifactError, match="regular file.*repro convert") as ei:
            load_artifact(bad)
        assert not isinstance(ei.value, ArtifactCorrupt)  # nothing to quarantine

    def test_wrong_schema(self, saved):
        reseal_container(saved, kind="bogus/9")
        with pytest.raises(ArtifactError, match="expected container kind"):
            load_artifact(saved)

    def test_wrong_format_version(self, saved):
        reseal_container(saved, meta=lambda m: m.update(format_version=999))
        with pytest.raises(ArtifactError, match="unsupported artifact version"):
            load_artifact(saved)

    def test_missing_array(self, saved):
        reseal_container(saved, drop=("beta",))
        with pytest.raises(ArtifactError, match="no array 'beta'"):
            load_artifact(saved)

    def test_tampered_config(self, saved):
        def strip_field(m):
            cfg = json.loads(m["config"])
            cfg.pop("delta")
            m["config"] = json.dumps(cfg)

        reseal_container(saved, meta=strip_field)
        with pytest.raises(ArtifactError, match="missing config field"):
            load_artifact(saved)

    def test_invalid_snapshot_rejected(self, saved):
        def poison(arrays):
            arrays["pi"][0] = -1.0

        reseal_container(saved, arrays=poison)
        with pytest.raises(ArtifactCorrupt, match="invalid snapshot"):
            load_artifact(saved, verify="full")

    def test_error_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            load_artifact(tmp_path / "x.npz")


class TestV2Format:
    """The artifact is a store-container directory, whatever its name."""

    @pytest.fixture()
    def art(self, small_state, config):
        return build_artifact(small_state, config, iteration=5)

    def test_suffix_is_ignored(self, art, tmp_path):
        from repro.store import is_container

        for name in ("m.npz", "m_v2", "m.store"):
            path = save_artifact(tmp_path / name, art)
            assert path == tmp_path / name and is_container(path)
            assert load_artifact(path, verify="full").version == art.version

    def test_v2_round_trip(self, art, tmp_path):
        v2 = load_artifact(save_artifact(tmp_path / "m_v2", art))
        assert v2.version == art.version
        assert v2.iteration == 5 and v2.config == art.config
        for name in ("pi", "theta", "beta", "node_ids", "top_communities",
                     "top_weights"):
            np.testing.assert_array_equal(
                np.asarray(getattr(v2, name)), getattr(art, name)
            )

    def test_v2_arrays_are_mapped_readonly(self, art, tmp_path):
        v2 = load_artifact(save_artifact(tmp_path / "m", art))
        base = v2.pi if isinstance(v2.pi, np.memmap) else v2.pi.base
        assert isinstance(base, np.memmap)
        with pytest.raises((ValueError, RuntimeError)):
            v2.pi[0, 0] = 9.9

    def test_v2_resident_provider(self, art, tmp_path):
        v2 = load_artifact(
            save_artifact(tmp_path / "m", art), provider="resident"
        )
        assert not isinstance(v2.pi, np.memmap)
        assert not isinstance(v2.pi.base, np.memmap)
        np.testing.assert_array_equal(np.asarray(v2.pi), art.pi)

    def test_verify_levels(self, art, tmp_path):
        path = save_artifact(tmp_path / "m", art)
        for verify in (False, True, "full"):
            got = load_artifact(path, verify=verify)
            assert got.version == art.version
        load_artifact(path, verify="full").verify_deep()

    def test_v2_corruption_caught_at_full_verify(self, art, tmp_path):
        path = save_artifact(tmp_path / "m", art)
        f = path / "pi.npy"
        raw = bytearray(f.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        f.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorrupt):
            load_artifact(path, verify="full")

    def test_v2_wrong_kind_rejected(self, tmp_path):
        from repro.store import write_container

        write_container(tmp_path / "x", {"pi": np.ones((2, 2))}, kind="other/1")
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "x")

    def test_missing_dir(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            load_artifact(tmp_path / "absent_dir")

    def test_nbytes_reported(self, art, tmp_path):
        v2 = load_artifact(save_artifact(tmp_path / "m", art))
        assert v2.nbytes() >= art.pi.nbytes


class TestProviderBitEquivalence:
    """Acceptance: float64 query results are bit-identical whether the
    artifact is served from heap arrays or a read-only memory map."""

    @given(
        n=st.integers(min_value=5, max_value=60),
        k=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=12, deadline=None)
    def test_link_probability_bits_match(self, n, k, seed):
        import tempfile
        from pathlib import Path

        from repro.serve.engine import QueryEngine

        cfg = AMMSBConfig(n_communities=k, seed=seed % 1000)
        art = build_artifact(
            init_state(n, cfg, np.random.default_rng(seed)), cfg
        )
        rng = np.random.default_rng(seed + 1)
        pairs = rng.integers(0, n, size=(32, 2)).astype(np.int64)
        with tempfile.TemporaryDirectory() as tmp:
            path = save_artifact(Path(tmp) / "m", art)
            results = {}
            for provider in ("resident", "mmap"):
                loaded = load_artifact(path, provider=provider)
                eng = QueryEngine(loaded)
                results[provider] = (
                    eng.link_probability(pairs),
                    eng.recommend_edges(0, min(5, n - 1)),
                )
        probs_r, rec_r = results["resident"]
        probs_m, rec_m = results["mmap"]
        assert probs_r.dtype == np.float64
        # bit-identical, not merely close
        np.testing.assert_array_equal(probs_r, probs_m)
        assert [(int(a), float(s)) for a, s in rec_r] == [
            (int(a), float(s)) for a, s in rec_m
        ]


class TestValidate:
    def test_validate_passes_on_built(self, small_state, config):
        build_artifact(small_state, config).validate()

    def test_duplicate_node_ids_rejected(self, small_state, config, tmp_path):
        art = build_artifact(small_state, config)
        bad_ids = art.node_ids.copy()
        bad_ids[1] = bad_ids[0]
        path = save_artifact(
            tmp_path / "d.npz",
            type(art)(
                config=art.config, pi=art.pi, theta=art.theta, beta=art.beta,
                node_ids=bad_ids, top_communities=art.top_communities,
                top_weights=art.top_weights, version=art.version,
            ),
        )
        with pytest.raises(ArtifactError, match="unique"):
            load_artifact(path, verify="full")


def _version_by_copy(config_json, pi, theta):
    """The content version as it was first written: through ``tobytes()``."""
    h = hashlib.sha256(config_json.encode())
    for arr in (pi, theta):
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


class TestContentVersionHashesTheBuffer:
    """Same digest as the ``tobytes()`` spelling, without the N*K copy."""

    @pytest.fixture()
    def posterior(self):
        rng = np.random.default_rng(7)
        pi = rng.random((300, 6))
        pi /= pi.sum(axis=1, keepdims=True)
        return pi, rng.random((6, 2)) + 0.1

    def test_pinned_f64_and_f32(self, posterior):
        pi, theta = posterior
        assert _content_version("cfg", pi, theta) == "938180cc9ba48b44"
        assert _content_version("cfg", pi.astype(np.float32), theta) == "63f38dae849df8f1"

    def test_non_contiguous_view_and_memmap(self, posterior, tmp_path):
        pi, theta = posterior
        table = np.concatenate([pi, np.ones((300, 1))], axis=1)  # the mp (N, K+1) layout
        view = table[:, :-1]
        assert not view.flags.c_contiguous
        np.save(tmp_path / "pi.npy", pi)
        mapped = np.load(tmp_path / "pi.npy", mmap_mode="r")
        for arr in (view, mapped, pi[::-1][::-1]):
            assert _content_version("cfg", arr, theta) == "938180cc9ba48b44"

    def test_more_rows_than_one_block(self, monkeypatch):
        rng = np.random.default_rng(1)
        pi, theta = rng.random((1000, 8)), rng.random((8, 2))
        monkeypatch.setattr(artifact_module, "_BLOCK_BYTES", 4096)  # 64 rows a block
        seen = []
        version = _content_version(
            "c", pi, theta, on_pi_block=lambda lo, hi, rows: seen.append((lo, hi, rows.shape))
        )
        assert version == _version_by_copy("c", pi, theta)
        assert seen[0] == (0, 64, (64, 8)) and seen[-1] == (960, 1000, (40, 8))
        assert [lo for lo, _, _ in seen[1:]] == [hi for _, hi, _ in seen[:-1]]

    def test_no_array_sized_copy_is_made(self):
        rng = np.random.default_rng(2)
        pi, theta = rng.random((65536, 8)), rng.random((8, 2))  # 4 MiB of rows
        tracemalloc.start()
        try:
            _content_version("cfg", pi, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pi.nbytes // 4  # tobytes() alone would be pi.nbytes


class TestStateArtifact:
    """One sealed container: checkpoint and serving artifact at once."""

    def test_serves_the_states_own_rows(self, small_state, config, tmp_path):
        path = export_state_artifact(tmp_path / "m", small_state, config, iteration=9)
        art = load_artifact(path, verify="full")
        assert np.array_equal(art.pi, small_state.pi)  # not renormalized
        assert np.array_equal(art.theta, small_state.theta)
        assert np.array_equal(art.beta, small_state.beta)
        assert art.iteration == 9 and art.config == config
        tops, weights = _top_communities(small_state.pi, 8)
        assert np.array_equal(art.top_communities, tops)
        assert np.array_equal(art.top_weights, weights)
        assert art.version == _version_by_copy(
            _config_to_json(config), small_state.pi, small_state.theta
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m"]

    def test_build_artifact_is_unchanged(self, small_state, config):
        art = build_artifact(small_state, config)
        renormalized = small_state.pi / small_state.pi.sum(axis=1, keepdims=True)
        assert np.array_equal(art.pi, renormalized)
        assert not np.array_equal(art.pi, small_state.pi)  # why a file cannot hold both
        tops, weights = _top_communities(renormalized, 8)
        assert np.array_equal(art.top_communities, tops)
        assert np.array_equal(art.top_weights, weights)
        assert art.version == _version_by_copy(
            _config_to_json(config), renormalized, small_state.theta
        )

    def test_resumes_bit_for_bit(self, small_state, config, tmp_path):
        path = export_state_artifact(tmp_path / "m", small_state, config, iteration=9)
        state, iteration, loaded_config = load_state_checkpoint(path)
        assert iteration == 9 and loaded_config == config
        for name in ("pi", "phi_sum", "theta"):
            got = getattr(state, name)
            assert np.array_equal(got, getattr(small_state, name)) and got.flags.writeable
        assert isinstance(state.pi, np.ndarray) and not isinstance(state.pi, np.memmap)

    def test_float32_and_many_blocks(self, tmp_path, monkeypatch):
        cfg = AMMSBConfig(n_communities=5, dtype="float32", seed=2)
        state = init_state(700, cfg, np.random.default_rng(2))
        monkeypatch.setattr(artifact_module, "_BLOCK_BYTES", 2048)
        path = export_state_artifact(tmp_path / "m", state, cfg, top_k=3)
        art = load_artifact(path, verify="full")
        assert art.pi.dtype == np.float32 and np.array_equal(art.pi, state.pi)
        tops, weights = _top_communities(state.pi, 3)
        assert np.array_equal(art.top_communities, tops)
        assert np.array_equal(art.top_weights, weights)

    def test_damage_is_a_typed_checkpoint_error(self, small_state, config, tmp_path):
        path = export_state_artifact(tmp_path / "m", small_state, config)
        raw = bytearray((path / "phi_sum.npy").read_bytes())
        raw[-5] ^= 0x10
        (path / "phi_sum.npy").write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="sha256 mismatch"):
            load_state_checkpoint(path)
        with pytest.raises(CheckpointError, match="invalid metadata"):  # not a state at all
            load_state_checkpoint(
                write_container(tmp_path / "g", {"edges": np.zeros((2, 2))}, kind="x")
            )

    def test_unnormalized_rows_are_not_servable(self, small_state, config, tmp_path):
        small_state.pi[7] *= 1.5
        with pytest.raises(ArtifactError, match="normalized.*checkpoint only"):
            export_state_artifact(tmp_path / "m", small_state, config)
        assert Container(tmp_path / "m").kind == STATE_KIND
        with pytest.raises(ArtifactError, match="expected container kind"):
            load_artifact(tmp_path / "m")

    def test_unservable_state_is_still_a_checkpoint(self, small_state, config, tmp_path):
        # theta so lopsided that beta rounds to 1.0: a valid state, no artifact
        small_state.theta[0] = (1e-30, 1.0)
        small_state.validate()
        with pytest.raises(ArtifactError, match="beta"):
            export_state_artifact(tmp_path / "m", small_state, config, iteration=3)
        assert Container(tmp_path / "m").names() == ["phi_sum", "pi", "theta"]
        state, iteration, _ = load_state_checkpoint(tmp_path / "m")
        assert iteration == 3 and np.array_equal(state.theta, small_state.theta)
