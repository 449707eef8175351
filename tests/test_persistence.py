"""One on-disk format: every persisted kind rejects every kind of damage
with its own typed error, and every shape this repository no longer
reads — a directory container, an ``.npz`` model file, a format-2
artifact, a version-1 stream manifest — is one typed error naming it."""

from __future__ import annotations

import json
import os
import shutil

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
from repro.core.state import init_state
from repro.serve.artifact import ArtifactError, build_artifact, load_artifact, save_artifact
from repro.store import StoreError, link_container, member_extent, read_manifest
from repro.store.container import _MAGIC, _TRAILER
from repro.stream import ResumeError, StreamError, StreamTrainer, SyntheticArrivalSource
from repro.stream.tracking import MembershipHistory
from tests.conftest import edit_manifest, flip_member_byte, reseal_container


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
    "regular-file": (_regular_file, "regular file, not a store container"),
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


def test_a_delta_on_another_snapshot_is_a_resume_error(tmp_path, stream_workdir):
    from repro.graph.io import save_csr

    work = tmp_path / "work"
    shutil.copytree(stream_workdir, work)
    save_csr(StreamTrainer.digested_graph(work), work / "base.csr")  # another graph
    with pytest.raises(ResumeError, match="graph_g0000.delta.*another snapshot"):
        StreamTrainer.resume(work)


# -- the retired shapes: one typed error each, naming the path ---------------
#
# shape -> (make it under tmp_path, returning the path, the read or write
#           that meets it, its typed error, the reason that error matches)

_DIRECTORY = "directory, not a store container"


def _retired_directory(kind):
    """The kind's file replaced by what the retired directory layout left:
    a directory of ``.npy`` members and a ``manifest.json``."""

    def make(tmp_path, planted, config, workdir):
        build, error, member, _field = KINDS[kind]
        path, load = build(tmp_path, planted, config, workdir)
        path.unlink()
        path.mkdir()
        (path / "manifest.json").write_text("{}")
        (path / f"{member}.npy").write_bytes(b"\x93NUMPY")
        return path, load, error, _DIRECTORY

    return make


def _npz_model_file(tmp_path, planted, config, _workdir):
    graph, _ = planted
    path = tmp_path / "checkpoint.npz"
    state = init_state(graph.n_vertices, config, np.random.default_rng(3))
    np.savez_compressed(
        path, _meta=json.dumps({"version": 1, "iteration": 7}),
        pi=state.pi, phi_sum=state.phi_sum, theta=state.theta,
    )
    return path, lambda: load_checkpoint(path, graph), CheckpointError, "regular file.*not read"


def _format_2_artifact(tmp_path, planted, config, workdir):
    path, load = _artifact(tmp_path, planted, config, workdir)
    reseal_container(path, meta=lambda meta: meta.update(format_version=2))
    return path, load, ArtifactError, "unsupported artifact version 2"


def _version_1_stream_manifest(tmp_path, _planted, _config, workdir):
    work = tmp_path / "work"
    shutil.copytree(workdir, work)
    manifest = StreamTrainer.read_manifest(work)
    (work / "manifest.json").write_text(json.dumps({**manifest, "version": 1}))
    return work, lambda: StreamTrainer.resume(work), ResumeError, "unsupported manifest version 1"


def _write_onto_a_directory(tmp_path, _planted, config, _workdir):
    path = tmp_path / "state"
    path.mkdir()
    state = init_state(50, config, np.random.default_rng(3))
    return path, lambda: save_state_checkpoint(path, state, 7, config), StoreError, _DIRECTORY


def _link_onto_a_directory(tmp_path, _planted, config, _workdir):
    state = init_state(50, config, np.random.default_rng(3))
    source = save_state_checkpoint(tmp_path / "state", state, 7, config)
    path = tmp_path / "published"
    path.mkdir()
    return path, lambda: link_container(source, path), StoreError, _DIRECTORY


RETIRED = {
    **{f"{kind}-directory": _retired_directory(kind) for kind in KINDS},
    "npz-model-file": _npz_model_file,
    "artifact-format-2": _format_2_artifact,
    "stream-manifest-version-1": _version_1_stream_manifest,
    "write-onto-a-directory": _write_onto_a_directory,
    "link-onto-a-directory": _link_onto_a_directory,
}


@pytest.mark.parametrize("shape", RETIRED)
def test_a_retired_shape_is_one_typed_error(shape, tmp_path, planted, config, stream_workdir):
    path, meet, error, reason = RETIRED[shape](tmp_path, planted, config, stream_workdir)
    with pytest.raises(error, match=reason) as caught:
        meet()
    assert path.name in str(caught.value)
    assert path.exists()  # refused, not removed
