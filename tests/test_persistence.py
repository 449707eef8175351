"""One on-disk format: every persisted kind rejects every kind of damage
with its own typed error, and the four legacy ``.npz`` kinds come back
through ``repro convert`` equal to native containers."""

from __future__ import annotations

import dataclasses
import json
import os
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
    DEFAULT_TOP_K,
    ArtifactError,
    build_artifact,
    load_artifact,
    save_artifact,
)
from repro.serve.engine import QueryEngine
from repro.serve.server import ModelServer
from repro.store import Container, member_extent, read_manifest, write_container
from repro.store.container import _MAGIC, _TRAILER
from repro.stream import ResumeError, StreamError, StreamTrainer, SyntheticArrivalSource
from repro.stream.tracking import MembershipHistory
from tests.conftest import as_directory, edit_manifest, flip_member_byte
from tests.oracles import stored_top_k_table


def _history(config, n_generations=3):
    hist = MembershipHistory(window=4, top_k=2)
    for g in range(n_generations):
        state = init_state(40, config, np.random.default_rng(g))
        hist.record(build_artifact(state, config, iteration=g), g)
    return hist


@pytest.fixture(scope="module")
def stream_workdir(planted, tmp_path_factory):
    """A stream workdir after one generation: its manifest names the model
    container ``model_g0000.store`` and the graph as the snapshot
    ``base.csr`` plus the delta ``graph_g0000.delta``."""
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


def _stream_file(name):
    def make(tmp_path, _planted, _config, workdir):
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        return work / name, lambda: StreamTrainer.resume(work)

    return make


def _artifact(tmp_path, _planted, config, _workdir):
    state = init_state(50, config, np.random.default_rng(3))
    path = save_artifact(tmp_path / "model", build_artifact(state, config))
    return path, lambda: load_artifact(path, verify="full")


def _history_container(tmp_path, _planted, config, _workdir):
    path = _history(config).save(tmp_path / "history")
    return path, lambda: MembershipHistory.load(path)


KINDS = {
    "sampler-checkpoint": (_sampler_checkpoint, CheckpointError, "pi", "iteration"),
    "state-checkpoint": (_state_checkpoint, CheckpointError, "phi_sum", "iteration"),
    "stream-generation": (
        _stream_file("model_g0000.store"), ResumeError, "pi", "format_version"
    ),
    "stream-graph-snapshot": (_stream_file("base.csr"), ResumeError, "indices", "n_vertices"),
    "stream-graph-delta": (
        _stream_file("graph_g0000.delta"), ResumeError, "pairs", "snapshot_version"
    ),
    "artifact": (_artifact, ArtifactError, "pi", "iteration"),
    "history": (_history_container, StreamError, "ref_pi", "window"),
}

# -- the damage, to a container file ------------------------------------------


def _truncate(path, member, _field):
    # the cut lands in the member: the trailer and the manifest go with it
    _fpath, offset, length = member_extent(path, member)
    os.truncate(path, offset + length * 3 // 5)


def _flip(path, member, _field):
    flip_member_byte(path, member, mask=0x20)  # mid-payload: the header still parses


def _edit_manifest(path, _member, field):
    def edit(manifest):
        assert field in manifest["meta"]
        manifest["meta"][field] = 12345

    edit_manifest(path, edit)


def _remove_member(path, member, _field):
    # the member's bytes and all after them are gone; the manifest, moved
    # up to where they began, still names them
    manifest = read_manifest(path)
    _fpath, offset, _length = member_extent(path, member)
    os.truncate(path, offset)
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "ab") as fh:
        fh.write(blob + _TRAILER.pack(offset, len(blob), _MAGIC))


def _regular_file(path, _member, _field):
    path.unlink()
    path.write_bytes(b"PK\x03\x04 what a writer older than the container left")


#: reasons a kind's typed error must match; ``{member}`` is the damaged one
DAMAGE = {
    "truncated-member": (_truncate, "truncated"),
    "flipped-member-byte": (_flip, "sha256 mismatch"),
    "edited-manifest-field": (_edit_manifest, "content_version mismatch"),
    "missing-member": (_remove_member, "{member}"),
    "regular-file": (_regular_file, "regular file.*repro convert"),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("kind", KINDS)
def test_damage_is_the_kinds_typed_error(kind, damage, tmp_path, planted, config, stream_workdir):
    make, error, member, field = KINDS[kind]
    hurt, reason = DAMAGE[damage]
    path, load = make(tmp_path, planted, config, stream_workdir)
    assert path.is_file()
    loaded = load()  # intact: loads
    if kind.startswith("stream-"):
        loaded.journal.close()
    hurt(path, member, field)
    with pytest.raises(error, match=reason.format(member=member)) as caught:
        load()  # and never another exception
    assert path.name in str(caught.value)


# -- the same damage, to a directory container an earlier writer left --------


def _dir_truncate(path, member, _field):
    blob = (path / f"{member}.npy").read_bytes()
    (path / f"{member}.npy").write_bytes(blob[: len(blob) * 3 // 5])


def _dir_remove_member(path, member, _field):
    (path / f"{member}.npy").unlink()


def _dir_regular_file(path, _member, _field):
    shutil.rmtree(path)
    path.write_bytes(b"PK\x03\x04 what a writer older than the container left")


DIRECTORY_DAMAGE = {
    "truncated-member": (_dir_truncate, "{member}"),
    "flipped-member-byte": (_flip, "sha256 mismatch"),
    "edited-manifest-field": (_edit_manifest, "content_version mismatch"),
    "missing-member": (_dir_remove_member, "is missing"),
    "regular-file": (_dir_regular_file, "regular file.*repro convert"),
}


@pytest.mark.parametrize("damage", DIRECTORY_DAMAGE)
@pytest.mark.parametrize("kind", KINDS)
def test_a_directory_containers_damage_is_the_kinds_typed_error(
    kind, damage, tmp_path, planted, config, stream_workdir
):
    """Each kind in the ``repro-store/1`` layout (``np.save`` of each
    member + a sealed ``manifest.json``) loads — a checkpoint, an
    artifact, a history, and a stream workdir whose manifest names a
    model, snapshot or delta directory — and refuses each damage."""
    make, error, member, field = KINDS[kind]
    hurt, reason = DIRECTORY_DAMAGE[damage]
    path, load = make(tmp_path, planted, config, stream_workdir)
    as_directory(path)
    loaded = load()
    if kind.startswith("stream-"):
        loaded.journal.close()
    hurt(path, member, field)
    with pytest.raises(error, match=reason.format(member=member)) as caught:
        load()
    assert path.name in str(caught.value)


def test_a_workdir_of_directory_containers_resumes_and_moves_on(tmp_path, stream_workdir):
    """A workdir whose manifest names directory containers resumes to the
    same state, and its next generations write container files and
    remove the model and delta directories once no manifest names them."""
    work = tmp_path / "work"
    shutil.copytree(stream_workdir, work)
    reference = StreamTrainer.resume(work)
    reference.journal.close()
    for name in ("model_g0000.store", "base.csr", "graph_g0000.delta"):
        as_directory(work / name)
    resumed = StreamTrainer.resume(work)
    np.testing.assert_array_equal(resumed.state.pi, reference.state.pi)
    np.testing.assert_array_equal(resumed.overlay.base.edges, reference.overlay.base.edges)
    for _ in range(3):
        resumed.run_generation(n_iterations=2)
    resumed.close()
    # the snapshot stays a directory while the manifest still names it
    assert {p.name for p in work.iterdir() if p.is_dir()} == {"journal", "base.csr"}
    assert StreamTrainer.read_manifest(work)["graph_path"] == "base.csr"


@pytest.mark.parametrize(
    "pairs, n_vertices",
    [
        ("duplicate", None),  # a pair the snapshot already holds
        ([[0, 0]], None),  # a self-loop
        ([[0, 10_000]], None),  # an endpoint past the delta's vertex count
        ([[0, 1, 2]], None),  # not (m, 2)
        ([[0, 1]], 1),  # fewer vertices than the snapshot
    ],
    ids=["duplicate", "self-loop", "out-of-range", "bad-shape", "shrinks"],
)
def test_a_sealed_delta_that_does_not_merge_is_a_resume_error(
    pairs, n_vertices, tmp_path, stream_workdir
):
    """Sealed bytes a writer of this package never leaves: still a
    :class:`ResumeError` naming the delta, not a raw ``ValueError``."""
    from repro.graph.io import load_csr
    from repro.store import write_container
    from repro.stream.delta import GRAPH_DELTA_KIND

    work = tmp_path / "work"
    shutil.copytree(stream_workdir, work)
    delta = work / "graph_g0000.delta"
    meta = read_manifest(delta)["meta"]
    if isinstance(pairs, str):
        pairs = load_csr(work / "base.csr").edges[:1]
    if n_vertices is not None:
        meta["n_vertices"] = n_vertices
    write_container(delta, {"pairs": np.asarray(pairs, dtype=np.int64)},
                    kind=GRAPH_DELTA_KIND, meta=meta)
    with pytest.raises(ResumeError, match="graph_g0000.delta.*does not merge") as caught:
        StreamTrainer.resume(work)
    assert "cannot load digested graph" in str(caught.value)


def _as_format_2(path):
    """Rewrite the format-3 model container at ``path`` as a format-2
    writer left it: the top-K table as two more members and the content
    version in the meta as ``artifact_version``."""
    old = Container(path, provider="resident")
    arrays = {name: np.array(old[name]) for name in old.names()}
    tops, weights = stored_top_k_table(arrays["pi"], DEFAULT_TOP_K)
    arrays.update(top_communities=tops, top_weights=weights)
    meta = {**old.meta, "format_version": 2, "artifact_version": "0123456789abcdef"}
    write_container(path, arrays, kind=old.kind, meta=meta)


def _serves_like_format_3(format2, format3):
    old, new = (load_artifact(p, verify="full") for p in (format2, format3))
    assert read_manifest(format2)["meta"]["format_version"] == 2
    assert "top_weights" in old._container and "top_weights" not in new._container
    engines = QueryEngine(old), QueryEngine(new)
    tops = old._container["top_communities"]
    for node in range(old.n_nodes):
        for k in (None, *range(1, old.n_communities + 2)):
            assert engines[0].membership(node, k) == engines[1].membership(node, k)
        # and the stored table's own rows, which are never read
        assert [c for c, _ in engines[0].membership(node)] == tops[node].tolist()
    pairs = np.array([[0, 1], [5, 17], [old.n_nodes - 1, 3]])
    np.testing.assert_array_equal(
        engines[0].link_probability(pairs), engines[1].link_probability(pairs)
    )
    return new


def test_a_format_2_container_loads_serves_and_resumes(tmp_path, stream_workdir):
    wide = AMMSBConfig(n_communities=16, seed=3)  # K past the table's width
    saved = save_artifact(tmp_path / "wide3", build_artifact(
        init_state(60, wide, np.random.default_rng(4)), wide))
    shutil.copyfile(saved, tmp_path / "wide2")
    _as_format_2(tmp_path / "wide2")
    _serves_like_format_3(tmp_path / "wide2", saved)

    work = tmp_path / "work"
    shutil.copytree(stream_workdir, work)
    model = work / "model_g0000.store"
    shutil.copyfile(model, tmp_path / "format3")
    _as_format_2(model)
    new = _serves_like_format_3(model, tmp_path / "format3")
    resumed = StreamTrainer.resume(work)
    np.testing.assert_array_equal(resumed.state.pi, new.pi)
    report = resumed.run_generation(n_iterations=2)
    assert report.generation == 1 and np.isfinite(report.perplexity)
    resumed.journal.close()


def test_a_delta_on_another_snapshot_is_a_resume_error(tmp_path, stream_workdir):
    from repro.graph.io import save_csr

    work = tmp_path / "work"
    shutil.copytree(stream_workdir, work)
    save_csr(StreamTrainer.digested_graph(work), work / "base.csr")  # another graph
    with pytest.raises(ResumeError, match="graph_g0000.delta.*another snapshot"):
        StreamTrainer.resume(work)


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
                "artifact_version": "0123456789abcdef", "iteration": 9,
                "config": _config_to_json(config),
            }),
            **{key: getattr(art, key) for key in ("pi", "theta", "beta", "node_ids")},
            # the v1 top-K table and version: convert drops both
            **dict(zip(("top_communities", "top_weights"), stored_top_k_table(art.pi, 8))),
        )
        kind, dst = convert(tmp_path / "model.npz", tmp_path / "model")
        assert kind == "serving artifact"
        _same_container(dst, save_artifact(tmp_path / "native", art))
        pairs = np.array([[0, 1], [5, 17], [59, 3]])
        with ModelServer(art, n_workers=0) as server:
            assert server.publish_path(dst) == 1  # full verify
            assert server.artifact.version == art.version
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
            (container, tmp_path / "b", "needs no conversion"),
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
