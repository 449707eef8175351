"""Checkpoint/resume: bit-exact continuation."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_state_checkpoint,
    save_checkpoint,
    save_state_checkpoint,
)
from repro.core.sampler import AMMSBSampler
from repro.graph.split import split_heldout
from repro.store import Container, member_extent
from tests.conftest import edit_manifest
from tests.conftest import reseal_container as _rewrite


class TestCheckpoint:
    def test_resume_is_bit_identical(self, planted, config, tmp_path):
        """run 20 == (run 10, checkpoint, restore, run 10)."""
        graph, _ = planted
        reference = AMMSBSampler(graph, config)
        reference.run(20)

        half = AMMSBSampler(graph, config)
        half.run(10)
        ckpt = tmp_path / "half.npz"
        save_checkpoint(ckpt, half)
        resumed = load_checkpoint(ckpt, graph)
        resumed.run(10)

        np.testing.assert_array_equal(resumed.state.pi, reference.state.pi)
        np.testing.assert_array_equal(resumed.state.theta, reference.state.theta)
        assert resumed.iteration == reference.iteration == 20

    def test_perplexity_state_restored(self, planted, config, tmp_path):
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        s = AMMSBSampler(split.train, config, heldout=split)
        s.run(30, perplexity_every=10)
        before = s.perplexity_estimator.value()
        ckpt = tmp_path / "p.npz"
        save_checkpoint(ckpt, s)
        restored = load_checkpoint(ckpt, split.train, heldout=split)
        assert restored.perplexity_estimator.value() == pytest.approx(before)
        assert restored.perplexity_estimator.n_samples == s.perplexity_estimator.n_samples

    def test_config_round_trip(self, planted, config, tmp_path):
        graph, _ = planted
        cfg = config.with_updates(delta=3e-5, alpha=0.07)
        s = AMMSBSampler(graph, cfg)
        s.run(2)
        ckpt = tmp_path / "c.npz"
        save_checkpoint(ckpt, s)
        restored = load_checkpoint(ckpt, graph)
        assert restored.config == cfg

    def test_the_window_lives_in_the_sealed_meta(self, planted, config, tmp_path):
        """No RNG state: every random number an iteration draws is keyed
        by the iteration. The perplexity window is the one extra."""
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        s = AMMSBSampler(split.train, config, heldout=split)
        s.run(12, perplexity_every=4)
        ckpt = Container(save_checkpoint(tmp_path / "ck", s), verify="eager")
        assert ckpt.names() == ["perp_prob_sum", "phi_sum", "pi", "theta"]
        assert set(ckpt.meta) == {"iteration", "config", "perp_count"}
        assert ckpt.meta["perp_count"] == s.perplexity_estimator.n_samples == 3
        assert ckpt.meta["iteration"] == 12

    def test_an_old_rng_state_key_is_ignored(self, planted, config, tmp_path):
        """Containers written before the draw was keyed carry the master
        stream's state in the meta; the resume does not need it."""
        graph, _ = planted
        reference = AMMSBSampler(graph, config)
        reference.run(10)
        half = AMMSBSampler(graph, config)
        half.run(5)
        ckpt = save_checkpoint(tmp_path / "old", half)
        old_stream = np.random.default_rng(config.seed).bit_generator.state
        _rewrite(ckpt, meta=lambda m: m.update(rng_state=old_stream))
        assert Container(ckpt).meta["rng_state"] == old_stream
        resumed = load_checkpoint(ckpt, graph)
        resumed.run(5)
        for name in ("pi", "phi_sum", "theta"):
            np.testing.assert_array_equal(getattr(resumed.state, name), getattr(reference.state, name))

    def test_bad_version_rejected(self, planted, config, tmp_path):
        """The version a checkpoint carries is the store schema's."""
        graph, _ = planted
        ckpt = save_checkpoint(tmp_path / "v.npz", AMMSBSampler(graph, config))
        edit_manifest(ckpt, lambda m: m.update(schema="repro-store/999"))
        with pytest.raises(CheckpointError, match="unsupported store schema"):
            load_checkpoint(ckpt, graph)

    def test_state_validated_on_load(self, planted, config, tmp_path):
        graph, _ = planted
        ckpt = save_checkpoint(tmp_path / "bad.npz", AMMSBSampler(graph, config))

        def poison(members):
            members["theta"][0, 0] = -1.0

        _rewrite(ckpt, arrays=poison)  # digests agree: only validate() can object
        with pytest.raises(CheckpointError, match="invalid state"):
            load_checkpoint(ckpt, graph)


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, planted, config, tmp_path):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        save_checkpoint(tmp_path / "a.npz", s)
        save_checkpoint(tmp_path / "a.npz", s)  # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz"]

    def test_overwrite_is_all_or_nothing(self, planted, config, tmp_path):
        """An interrupted save must leave the previous checkpoint intact.

        Simulated by making every rename fail: the target file is
        unchanged and still loads.
        """
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        ckpt = tmp_path / "b.npz"
        save_checkpoint(ckpt, s)
        good = ckpt.read_bytes()

        import repro.store.atomic as cp  # where the rename is spelled out

        orig_replace = cp.os.replace

        def boom(src, dst):
            raise OSError("injected crash during rename")

        cp.os.replace = boom
        try:
            s.run(1)
            with pytest.raises(OSError):
                save_checkpoint(ckpt, s)
        finally:
            cp.os.replace = orig_replace
        assert ckpt.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.npz"]
        load_checkpoint(ckpt, graph)

    def test_path_is_used_as_given(self, planted, config, tmp_path):
        """No suffix is appended or read: the path names the container file."""
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        for name in ("bare", "dotted.npz"):
            written = save_checkpoint(tmp_path / name, s)
            assert written == tmp_path / name and written.is_file()
            load_checkpoint(written, graph)


class TestCheckpointErrors:
    def test_missing_file(self, planted, tmp_path):
        graph, _ = planted
        path = tmp_path / "missing.npz"
        with pytest.raises(CheckpointError, match="does not exist") as ei:
            load_checkpoint(path, graph)
        assert ei.value.path == path

    def test_truncated_archive(self, planted, config, tmp_path):
        graph, _ = planted
        ckpt = save_checkpoint(tmp_path / "t.npz", AMMSBSampler(graph, config))
        _fpath, offset, length = member_extent(ckpt, "pi")
        os.truncate(ckpt, offset + length // 2)
        with pytest.raises(CheckpointError, match=str(ckpt)):
            load_checkpoint(ckpt, graph)

    def test_garbage_file(self, planted, tmp_path):
        graph, _ = planted
        ckpt = tmp_path / "g.npz"
        ckpt.write_bytes(b"this is not a container")
        with pytest.raises(CheckpointError, match="regular file.*not read"):
            load_checkpoint(ckpt, graph)

    def test_missing_array_key(self, planted, config, tmp_path):
        graph, _ = planted
        ckpt = save_checkpoint(tmp_path / "k.npz", AMMSBSampler(graph, config))
        _rewrite(ckpt, drop=("pi",))
        with pytest.raises(CheckpointError, match="'pi'"):
            load_checkpoint(ckpt, graph)

    def test_missing_meta(self, planted, config, tmp_path):
        graph, _ = planted
        ckpt = save_checkpoint(tmp_path / "m.npz", AMMSBSampler(graph, config))
        _rewrite(ckpt, meta=lambda m: m.pop("iteration"))
        with pytest.raises(CheckpointError, match="invalid metadata"):
            load_checkpoint(ckpt, graph)

    def test_state_checkpoint_has_no_rng_streams(self, planted, config, tmp_path):
        """Nor needs one: a bare state container resumes a sampler bit for
        bit, as the one with a perplexity window does."""
        graph, _ = planted
        reference = AMMSBSampler(graph, config)
        reference.run(9)
        s = AMMSBSampler(graph, config)
        s.run(4)
        path = save_state_checkpoint(tmp_path / "st", s.state, s.iteration, config)
        assert set(Container(path).meta) == {"iteration", "config"}
        resumed = load_checkpoint(path, graph)
        assert resumed.iteration == 4
        resumed.run(5)
        for name in ("pi", "phi_sum", "theta"):
            np.testing.assert_array_equal(getattr(resumed.state, name), getattr(reference.state, name))

    def test_error_is_a_value_error(self, planted, tmp_path):
        graph, _ = planted
        with pytest.raises(ValueError):  # backward-compatible supertype
            load_checkpoint(tmp_path / "x.npz", graph)


class TestStateCheckpoint:
    def test_round_trip(self, planted, config, tmp_path):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        s.run(3)
        path = save_state_checkpoint(tmp_path / "st.npz", s.state, 3, config)
        state, iteration, cfg = load_state_checkpoint(path)
        assert iteration == 3 and cfg == config
        np.testing.assert_array_equal(state.pi, s.state.pi)
        np.testing.assert_array_equal(state.phi_sum, s.state.phi_sum)
        np.testing.assert_array_equal(state.theta, s.state.theta)

    def test_typed_errors(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_state_checkpoint(tmp_path / "nope.npz")
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"junk")
        with pytest.raises(CheckpointError, match="regular file.*not read"):
            load_state_checkpoint(bad)

    def test_reads_a_sampler_checkpoint_too(self, planted, config, tmp_path):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        s.run(3)
        state, iteration, cfg = load_state_checkpoint(save_checkpoint(tmp_path / "full", s))
        assert iteration == 3 and cfg == config
        np.testing.assert_array_equal(state.pi, s.state.pi)


def _rewrite_config(path, mutate):
    """Mutate the config dict of the checkpoint at ``path`` and re-seal it."""

    def edit(meta):
        cfg = json.loads(meta["config"])
        mutate(cfg)
        meta["config"] = json.dumps(cfg)

    _rewrite(path, meta=edit)


class TestConfigRoundTripHardening:
    """The config JSON must round-trip exactly — no silent defaulting.

    A missing field silently picking up its dataclass default is a
    correctness hazard: ``kernel_backend``'s default reads the
    ``REPRO_KERNEL_BACKEND`` env var, so a resume on a different machine
    could silently change numerics. Mismatches must be typed errors.
    """

    def test_every_field_round_trips(self, planted, tmp_path):
        import dataclasses

        graph, _ = planted
        cfg = AMMSBConfig(
            n_communities=4,
            alpha=0.07,
            eta=(0.8, 1.3),
            delta=3e-5,
            mini_batch_vertices=16,
            neighbor_sample_size=8,
            strategy="random-pair",
            step_phi=StepSizeConfig(a=0.03, b=512.0, c=0.6),
            step_theta=StepSizeConfig(a=0.02),
            phi_clip=1e5,
            phi_floor=1e-11,
            seed=7,
            dtype="float32",
            kernel_backend="reference",
        )
        s = AMMSBSampler(graph, cfg)
        ckpt = tmp_path / "full.npz"
        save_checkpoint(ckpt, s)
        restored = load_checkpoint(ckpt, graph)
        for f in dataclasses.fields(AMMSBConfig):
            assert getattr(restored.config, f.name) == getattr(cfg, f.name), f.name
        assert restored.config == cfg

    def test_kernel_backend_survives_env_override(
        self, planted, tmp_path, monkeypatch
    ):
        """A saved backend choice beats the env-var default on load."""
        graph, _ = planted
        cfg = AMMSBConfig(n_communities=4, kernel_backend="reference")
        s = AMMSBSampler(graph, cfg)
        ckpt = tmp_path / "kb.npz"
        save_checkpoint(ckpt, s)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fused")
        restored = load_checkpoint(ckpt, graph)
        assert restored.config.kernel_backend == "reference"

    def test_missing_field_is_typed_error(self, planted, config, tmp_path):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        ckpt = tmp_path / "miss.npz"
        save_checkpoint(ckpt, s)
        _rewrite_config(ckpt, lambda c: c.pop("kernel_backend"))
        with pytest.raises(CheckpointError, match="missing config field"):
            load_checkpoint(ckpt, graph)

    def test_unknown_field_is_typed_error(self, planted, config, tmp_path):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        ckpt = tmp_path / "unk.npz"
        save_checkpoint(ckpt, s)
        _rewrite_config(ckpt, lambda c: c.update(bogus_knob=1))
        with pytest.raises(CheckpointError, match="unknown config field"):
            load_checkpoint(ckpt, graph)

    def test_retired_sample_window_still_loads(self, planted, config, tmp_path):
        """Older writers saved ``sample_window``, a field nothing read:
        such a container loads, and only that retired key is forgiven."""
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        ckpt = tmp_path / "old.npz"
        save_checkpoint(ckpt, s)
        _rewrite_config(ckpt, lambda c: c.update(sample_window=32))
        assert load_checkpoint(ckpt, graph).config == config
        _rewrite_config(ckpt, lambda c: c.update(sample_window=32, window=32))
        with pytest.raises(CheckpointError, match=r"unknown config field\(s\) \['window'\]"):
            load_checkpoint(ckpt, graph)

    def test_invalid_value_is_typed_error(self, planted, config, tmp_path):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        ckpt = tmp_path / "inv.npz"
        save_checkpoint(ckpt, s)
        _rewrite_config(ckpt, lambda c: c.update(dtype="float16"))
        with pytest.raises(CheckpointError, match="invalid config value"):
            load_checkpoint(ckpt, graph)

    def test_state_checkpoint_also_hardened(self, planted, config, tmp_path):
        graph, _ = planted
        s = AMMSBSampler(graph, config)
        path = save_state_checkpoint(tmp_path / "sh.npz", s.state, 0, config)
        _rewrite_config(path, lambda c: c.pop("dtype"))
        with pytest.raises(CheckpointError, match="missing config field"):
            load_state_checkpoint(path)


#: a backend registered where a file was written, never here
ELSEWHERE = "jit-of-another-host"


def _detect_resume(tmp_path, _graph, config):
    """``detect --checkpoint``, the config re-sealed to name ``ELSEWHERE``,
    then ``detect --resume``; returns the resumed run's checkpoint config."""
    from repro.cli import main

    edges = tmp_path / "g.txt"
    main(["generate", "--vertices", "120", "--communities", "3", "--output", str(edges)])
    detect = ["detect", "--edges", str(edges), "-k", "3", "--mini-batch", "32",
              "--iterations", "10", "--output", str(tmp_path / "c.txt")]
    ckpt = tmp_path / "ck"
    assert main(detect + ["--checkpoint", str(ckpt)]) == 0
    _rewrite_config(ckpt, lambda c: c.update(kernel_backend=ELSEWHERE))
    assert main([*detect, "--iterations", "20", "--resume", str(ckpt),
                 "--checkpoint", str(tmp_path / "ck2")]) == 0
    return load_state_checkpoint(tmp_path / "ck2")[2].kernel_backend


def _stream_from_checkpoint(tmp_path, graph, config):
    from repro.core.state import init_state
    from repro.stream import StreamTrainer

    state = init_state(graph.n_vertices, config, np.random.default_rng(0))
    warm = save_state_checkpoint(
        tmp_path / "warm", state, 3, config.with_updates(kernel_backend=ELSEWHERE)
    )
    with StreamTrainer.from_checkpoint(
        warm, graph, tmp_path / "work", iterations_per_generation=2, heldout_fraction=0.05
    ) as trainer:
        trainer.run_generation(n_iterations=2)
        return trainer.config.kernel_backend


def _artifact_query_engine(tmp_path, graph, config):
    from repro.core.state import init_state
    from repro.serve.artifact import build_artifact, load_artifact, save_artifact
    from repro.serve.engine import QueryEngine

    state = init_state(graph.n_vertices, config, np.random.default_rng(0))
    path = save_artifact(
        tmp_path / "model",
        build_artifact(state, config.with_updates(kernel_backend=ELSEWHERE)),
    )
    artifact = load_artifact(path, verify="full")
    engine = QueryEngine(artifact)
    assert engine.link_probability(np.array([[0, 1], [2, 3]])).shape == (2,)
    assert engine.kernels.name == "fused"
    with pytest.raises(ValueError, match="unknown kernel backend"):
        QueryEngine(artifact, backend=ELSEWHERE)  # an explicit selection stays strict
    return artifact.config.kernel_backend


@pytest.mark.parametrize(
    "reader", [_detect_resume, _stream_from_checkpoint, _artifact_query_engine],
    ids=["detect-resume", "stream-from-checkpoint", "artifact-query-engine"],
)
def test_a_file_naming_a_backend_this_host_lacks_runs_on_fused(
    reader, planted, config, tmp_path, caplog
):
    """A backend name read from a file that this host has not registered
    becomes ``fused`` where the config is parsed, with the warning."""
    import logging

    graph, _ = planted
    with caplog.at_level(logging.WARNING, logger="repro.core.kernels"):
        assert reader(tmp_path, graph, config) == "fused"
    assert any(ELSEWHERE in r.getMessage() and "falling back" in r.getMessage()
               for r in caplog.records)
