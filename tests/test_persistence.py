"""One on-disk format: every persisted kind rejects every kind of damage
with its own typed error, and the four legacy ``.npz`` kinds come back
through ``repro convert`` equal to native containers."""

from __future__ import annotations

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.checkpoint import (
    CheckpointError,
    _config_to_json,
    load_checkpoint,
    load_state_checkpoint,
    save_checkpoint,
    save_state_checkpoint,
)
from repro.core.sampler import AMMSBSampler
from repro.core.state import init_state
from repro.graph.split import split_heldout
from repro.legacy import ConvertError, convert
from repro.serve.artifact import (
    ArtifactError,
    build_artifact,
    load_artifact,
    save_artifact,
)
from repro.serve.engine import QueryEngine
from repro.serve.server import ModelServer
from repro.store import read_manifest
from repro.stream import ResumeError, StreamError, StreamTrainer, SyntheticArrivalSource
from repro.stream.tracking import MembershipHistory


def _history(config, n_generations=3):
    hist = MembershipHistory(window=4, top_k=2)
    for g in range(n_generations):
        state = init_state(40, config, np.random.default_rng(g))
        hist.record(build_artifact(state, config, iteration=g), g)
    return hist


@pytest.fixture(scope="module")
def stream_workdir(planted, tmp_path_factory):
    """A stream workdir after one generation: ``model_g0000.store`` is the
    container its manifest names."""
    graph, _ = planted
    config = AMMSBConfig(
        n_communities=4, mini_batch_vertices=32, neighbor_sample_size=16, seed=11,
        step_phi=StepSizeConfig(a=0.05), step_theta=StepSizeConfig(a=0.05),
    )
    source = SyntheticArrivalSource(graph, base_fraction=0.85, seed=3)
    work = tmp_path_factory.mktemp("stream") / "work"
    trainer = StreamTrainer(
        source.base_graph(), config, work, iterations_per_generation=4, heldout_fraction=0.05
    )
    trainer.run_generation(next(iter(source.batches(4))))
    trainer.journal.close()
    return work


# -- the durability matrix ----------------------------------------------------
#
# kind -> (write a container under tmp_path and return it, load it, typed error,
#          the member to damage, a sealed meta field to edit)


def _sampler_checkpoint(tmp_path, planted, config, _workdir):
    graph, _ = planted
    sampler = AMMSBSampler(graph, config)
    sampler.run(2)
    path = save_checkpoint(tmp_path / "ck", sampler)
    return path, lambda: load_checkpoint(path, graph)


def _state_checkpoint(tmp_path, _planted, config, _workdir):
    state = init_state(50, config, np.random.default_rng(3))
    path = save_state_checkpoint(tmp_path / "state", state, 7, config)
    return path, lambda: load_state_checkpoint(path)


def _generation(tmp_path, _planted, _config, workdir):
    work = tmp_path / "work"
    shutil.copytree(workdir, work)
    return work / "model_g0000.store", lambda: StreamTrainer.resume(work)


def _artifact(tmp_path, _planted, config, _workdir):
    state = init_state(50, config, np.random.default_rng(3))
    path = save_artifact(tmp_path / "model", build_artifact(state, config))
    return path, lambda: load_artifact(path, verify="full")


def _history_container(tmp_path, _planted, config, _workdir):
    path = _history(config).save(tmp_path / "history")
    return path, lambda: MembershipHistory.load(path)


KINDS = {
    "sampler-checkpoint": (_sampler_checkpoint, CheckpointError, "pi.npy", "iteration"),
    "state-checkpoint": (_state_checkpoint, CheckpointError, "phi_sum.npy", "iteration"),
    "stream-generation": (_generation, ResumeError, "pi.npy", "artifact_version"),
    "artifact": (_artifact, ArtifactError, "pi.npy", "iteration"),
    "history": (_history_container, StreamError, "ref_pi.npy", "window"),
}


def _truncate(path, member, _field):
    blob = (path / member).read_bytes()
    (path / member).write_bytes(blob[: len(blob) * 3 // 5])


def _flip(path, member, _field):
    blob = bytearray((path / member).read_bytes())
    blob[len(blob) // 2] ^= 0x20  # mid-payload: the header still parses
    (path / member).write_bytes(bytes(blob))


def _edit_manifest(path, _member, field):
    manifest = json.loads((path / "manifest.json").read_text())
    assert field in manifest["meta"]
    manifest["meta"][field] = 12345
    (path / "manifest.json").write_text(json.dumps(manifest))


def _remove_member(path, member, _field):
    (path / member).unlink()


def _regular_file(path, _member, _field):
    shutil.rmtree(path)
    path.write_bytes(b"PK\x03\x04 what a writer older than the container left")


DAMAGE = {
    "truncated-member": (_truncate, "pi|phi_sum|ref_pi"),
    "flipped-member-byte": (_flip, "sha256 mismatch"),
    "edited-manifest-field": (_edit_manifest, "content_version mismatch"),
    "missing-member": (_remove_member, "is missing"),
    "regular-file": (_regular_file, "regular file.*repro convert"),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("kind", KINDS)
def test_damage_is_the_kinds_typed_error(kind, damage, tmp_path, planted, config, stream_workdir):
    make, error, member, field = KINDS[kind]
    hurt, reason = DAMAGE[damage]
    path, load = make(tmp_path, planted, config, stream_workdir)
    loaded = load()  # intact: loads
    if kind == "stream-generation":
        loaded.journal.close()
    hurt(path, member, field)
    with pytest.raises(error, match=reason) as caught:  # and never another exception
        load()
    assert path.name in str(caught.value)


# -- ``repro convert``: the four legacy kinds, built by hand in the v1 layout --


def _same_container(a, b):
    """Equal kind, sealed meta and members — array for array, by digest."""
    ma, mb = read_manifest(a), read_manifest(b)
    assert ma["kind"] == mb["kind"] and ma["meta"] == mb["meta"]
    assert ma["arrays"] == mb["arrays"]
    assert ma["content_version"] == mb["content_version"]


class TestConvert:
    def test_sampler_checkpoint_resumes_bit_for_bit(self, planted, config, tmp_path):
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        whole = AMMSBSampler(split.train, config, heldout=split)
        whole.run(20, perplexity_every=5)
        half = AMMSBSampler(split.train, config, heldout=split)
        half.run(10, perplexity_every=5)
        np.savez_compressed(  # deflated, as the oldest writers left them
            tmp_path / "half.npz",
            _meta=json.dumps({
                "version": 1,
                "iteration": half.iteration,
                "config": _config_to_json(config),
                # what the old writers recorded, a PCG64 master stream and
                # a noise stream; convert drops both
                "rng_state": json.dumps(
                    np.random.default_rng(config.seed).bit_generator.state
                ),
                "noise_rng_state": json.dumps(
                    np.random.default_rng(config.seed + 1).bit_generator.state
                ),
                "perp_count": half.perplexity_estimator.n_samples,
            }),
            pi=half.state.pi, phi_sum=half.state.phi_sum, theta=half.state.theta,
            perp_prob_sum=half.perplexity_estimator._prob_sum,
        )
        kind, dst = convert(tmp_path / "half.npz", tmp_path / "half")
        assert kind == "sampler checkpoint"
        _same_container(dst, save_checkpoint(tmp_path / "native", half))
        resumed = load_checkpoint(dst, split.train, heldout=split)
        resumed.run(10, perplexity_every=5)
        np.testing.assert_array_equal(resumed.state.pi, whole.state.pi)
        np.testing.assert_array_equal(resumed.state.theta, whole.state.theta)
        assert resumed.perplexity_estimator.value() == whole.perplexity_estimator.value()
        assert resumed.perplexity_estimator.n_samples == whole.perplexity_estimator.n_samples == 4

    def test_state_checkpoint_seeds_the_mp_engine(self, split, config, tmp_path):
        from repro.dist.mp import MultiprocessAMMSBSampler

        state = init_state(split.train.n_vertices, config, np.random.default_rng(1))
        np.savez(
            tmp_path / "auto.npz",
            _meta=json.dumps({"version": 1, "kind": "state", "iteration": 6,
                              "config": _config_to_json(config)}),
            pi=state.pi, phi_sum=state.phi_sum, theta=state.theta,
        )
        assert main(["convert", str(tmp_path / "auto.npz"), str(tmp_path / "auto")]) == 0
        _same_container(
            tmp_path / "auto", save_state_checkpoint(tmp_path / "native", state, 6, config)
        )
        loaded, iteration, cfg = load_state_checkpoint(tmp_path / "auto")
        with MultiprocessAMMSBSampler(split.train, cfg, n_workers=2, state=loaded) as resumed:
            resumed.iteration = iteration
            assert resumed.iteration == 6
            np.testing.assert_array_equal(resumed.state_snapshot().pi, state.pi)
            resumed.run(1)

    def test_v1_artifact_serves_like_a_native_one(self, config, tmp_path):
        art = build_artifact(init_state(60, config, np.random.default_rng(2)), config, iteration=9)
        np.savez_compressed(
            tmp_path / "model.npz",
            _meta=json.dumps({
                "schema": "repro-serve-artifact/1", "version": 1,
                "artifact_version": art.version, "iteration": 9,
                "config": _config_to_json(config),
            }),
            **{key: getattr(art, key) for key in (
                "pi", "theta", "beta", "node_ids", "top_communities", "top_weights")},
        )
        kind, dst = convert(tmp_path / "model.npz", tmp_path / "model")
        assert kind == "serving artifact"
        _same_container(dst, save_artifact(tmp_path / "native", art))
        pairs = np.array([[0, 1], [5, 17], [59, 3]])
        with ModelServer(art, n_workers=0) as server:
            assert server.publish_path(dst) == 1  # full verify, content version included
            fut = server.link_probability(pairs)
            server.process_once()
            np.testing.assert_array_equal(
                fut.result(timeout=5), QueryEngine(art).link_probability(pairs)
            )

    def test_history_keeps_its_label_space(self, config, tmp_path):
        hist = _history(config)
        meta = {
            "version": 1, "window": hist.window, "top_k": hist.top_k,
            "event_threshold": hist.event_threshold,
            "max_events_per_generation": hist.max_events_per_generation,
            "generations": [s.generation for s in hist._ring],
            "events": [[dataclasses.asdict(e) for e in evs] for evs in hist._events],
            "last_version": hist.last_version,
        }
        arrays = {"ref_pi": hist._ref_pi, "ref_ids": hist._ref_ids,
                  "first_seen": np.array(sorted(hist._first_seen.items()), dtype=np.int64)}
        for i, s in enumerate(hist._ring):
            arrays.update({
                f"s{i}_node_ids": s.node_ids, f"s{i}_tops": s.top_communities,
                f"s{i}_weights": s.top_weights, f"s{i}_drift": s.community_drift,
                f"s{i}_perm": s.permutation,
            })
        np.savez_compressed(tmp_path / "history.npz", _meta=json.dumps(meta), **arrays)
        kind, dst = convert(tmp_path / "history.npz", tmp_path / "history")
        assert kind == "membership history"
        _same_container(dst, hist.save(tmp_path / "native"))
        back = MembershipHistory.load(dst)
        nxt = build_artifact(init_state(40, config, np.random.default_rng(9)), config)
        assert back.record_next(nxt) == hist.record_next(nxt)  # same aligned reference
        for node in (0, 17, 39):
            assert back.drift(node) == hist.drift(node)

    def test_refusals_are_one_line_exit_3(self, config, tmp_path, capsys):
        state = init_state(20, config, np.random.default_rng(0))
        np.savez(tmp_path / "ok.npz", _meta=json.dumps(
            {"version": 1, "kind": "state", "iteration": 1, "config": _config_to_json(config)}
        ), pi=state.pi, phi_sum=state.phi_sum, theta=state.theta)
        (tmp_path / "junk.npz").write_bytes(b"not an archive")
        np.savez(tmp_path / "graph.npz", n_vertices=3, edges=np.zeros((1, 2)))  # no _meta
        np.savez(tmp_path / "invalid.npz", _meta=json.dumps(
            {"version": 1, "kind": "state", "iteration": 1, "config": _config_to_json(config)}
        ), pi=-state.pi, phi_sum=state.phi_sum, theta=state.theta)
        container = save_state_checkpoint(tmp_path / "container", state, 1, config)
        for src, dst, needle in (
            (tmp_path / "ok.npz", container, "destination exists"),
            (tmp_path / "nope.npz", tmp_path / "a", "is not a file"),
            (container, tmp_path / "b", "is not a file"),
            (tmp_path / "junk.npz", tmp_path / "c", "not a readable .npz"),
            (tmp_path / "graph.npz", tmp_path / "d", "no _meta record"),
            (tmp_path / "invalid.npz", tmp_path / "e", "does not load"),
        ):
            capsys.readouterr()
            assert main(["convert", str(src), str(dst)]) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("cannot convert: ") and needle in err[0]
            assert dst == container or not dst.exists()
        with pytest.raises(ConvertError):
            convert(tmp_path / "ok.npz", container)
        load_state_checkpoint(container)  # untouched
