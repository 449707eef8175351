"""Shared fixtures: small deterministic graphs, configs, splits."""

from __future__ import annotations

import errno
import json
import os
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.graph.generators import generate_ammsb_graph, planted_overlapping_graph
from repro.graph.graph import Graph
from repro.graph.split import split_heldout
from repro.store import Container, member_extent, write_container
from repro.store.container import _TRAILER


@pytest.fixture(scope="session")
def planted():
    """A 200-vertex graph with 4 planted disjoint-ish communities."""
    rng = np.random.default_rng(1234)
    graph, truth = planted_overlapping_graph(
        200, 4, memberships_per_vertex=1, p_in=0.25, p_out=0.004, rng=rng
    )
    return graph, truth


@pytest.fixture(scope="session")
def overlapping():
    """A 150-vertex graph where every vertex joins 2 of 5 communities."""
    rng = np.random.default_rng(99)
    graph, truth = planted_overlapping_graph(
        150, 5, memberships_per_vertex=2, p_in=0.3, p_out=0.005, rng=rng
    )
    return graph, truth


@pytest.fixture(scope="session")
def ammsb_graph():
    """A graph sampled from the a-MMSB generative model itself."""
    rng = np.random.default_rng(7)
    graph, truth = generate_ammsb_graph(300, 6, rng=rng, target_edges=2400)
    return graph, truth


@pytest.fixture(scope="session")
def split(planted):
    graph, _ = planted
    return split_heldout(graph, heldout_fraction=0.03, rng=np.random.default_rng(5))


@pytest.fixture()
def config():
    return AMMSBConfig(
        n_communities=4,
        mini_batch_vertices=32,
        neighbor_sample_size=16,
        seed=42,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
    )


@pytest.fixture()
def tiny_graph():
    """Hand-built 6-vertex graph: two triangles joined by one edge."""
    edges = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
    return Graph(6, edges)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


def reseal_container(path, meta=None, arrays=None, drop=(), kind=None):
    """Rewrite the container at ``path`` with its meta and/or members
    mutated and a fresh seal: what only a writer (never bit rot, which is
    tests/test_persistence.py's matrix) can produce."""
    old = Container(path, provider="resident")
    new_meta = json.loads(json.dumps(old.meta))
    members = {name: old[name].copy() for name in old if name not in drop}
    if meta:
        meta(new_meta)
    if arrays:
        arrays(members)
    write_container(path, members, kind=kind or old.kind, meta=new_meta)


# -- a container's bytes, damaged in place (store / persistence / serve tests) --


def member_bytes(path, name: str) -> bytes:
    """The byte range (``.npy`` header + payload) of member ``name``."""
    fpath, offset, length = member_extent(path, name)
    with open(fpath, "rb") as fh:
        fh.seek(offset)
        return fh.read(length)


def overwrite_member(path, name: str, data: bytes, at: int = 0) -> None:
    """Write ``data`` over member ``name``'s bytes from ``at``, in place:
    bit rot, which no seal is recomputed for."""
    fpath, offset, length = member_extent(path, name)
    assert 0 <= at and at + len(data) <= length
    with open(fpath, "r+b") as fh:
        fh.seek(offset + at)
        fh.write(data)


def flip_member_byte(path, name: str, at=None, mask: int = 0xFF) -> None:
    """XOR one byte of member ``name`` (mid-payload by default: past the
    ``.npy`` header)."""
    blob = member_bytes(path, name)
    at = len(blob) // 2 if at is None else at % len(blob)
    overwrite_member(path, name, bytes([blob[at] ^ mask]), at)


def edit_manifest(path, edit) -> None:
    """Apply ``edit`` to the parsed manifest of the container at ``path``
    and write it back, unsealed: the trailer is rewritten to locate it,
    the ``content_version`` is not recomputed."""
    with open(path, "r+b") as fh:
        fh.seek(-_TRAILER.size, os.SEEK_END)
        offset, length, magic = _TRAILER.unpack(fh.read(_TRAILER.size))
        fh.seek(offset)
        manifest = json.loads(fh.read(length))
        edit(manifest)
        blob = json.dumps(manifest).encode("utf-8")
        fh.seek(offset)
        fh.truncate()
        fh.write(blob + _TRAILER.pack(offset, len(blob), magic))


# -- simulated process death and filesystem refusals (store / stream tests) ---


def die_like_kill_9(patch, where: str):
    """Raise :class:`InjectedCrash` the way ``kill -9`` would land: a dead
    process cleans nothing up, so the writers' own error-path ``rmtree``
    and ``unlink`` are disarmed first. ``patch`` is a
    ``monkeypatch.context()``; leaving it is the restart."""
    from repro.faults import InjectedCrash

    patch.setattr(shutil, "rmtree", lambda *a, **k: None)
    patch.setattr(os, "unlink", lambda *a, **k: None)
    raise InjectedCrash(where)


def kill_in_os(patch, attr: str, when) -> None:
    """Make ``os.<attr>`` die (see :func:`die_like_kill_9`) the first time
    ``when(*args)`` holds."""
    real = getattr(os, attr)

    def call(*args, **kwargs):
        if when(*args):
            die_like_kill_9(patch, f"os.{attr}")
        return real(*args, **kwargs)

    patch.setattr(os, attr, call)


@pytest.fixture()
def no_hard_links(monkeypatch):
    """Every ``os.link`` fails with ``EXDEV``, as across two mounts."""

    def exdev(*_a, **_k):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(os, "link", exdev)


# -- what a run removes and frees on disk (stream / tracking tests) ------------


def _held() -> set[tuple[int, int]]:
    """``(st_dev, st_ino)`` of every file this process maps or holds
    open: an unlink of its last name frees nothing until it lets go."""
    held = set()
    for line in Path("/proc/self/maps").read_text().splitlines():
        fields = line.split()
        if len(fields) >= 6 and fields[4] != "0":
            major, minor = (int(x, 16) for x in fields[3].split(":"))
            held.add((os.makedev(major, minor), int(fields[4])))
    for fd in os.listdir("/proc/self/fd"):
        try:
            st = os.stat(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        held.add((st.st_dev, st.st_ino))
    return held


class InodeLedger:
    """Every name under ``root`` that ``os.unlink``, ``os.rmdir``,
    ``os.rename`` or ``os.replace`` (onto an existing name) removes in
    this process, and of those, each whose removal frees its inode: a
    directory, or a file whose last link it is and that no map or
    descriptor of this process holds. A name relative to a directory
    descriptor (``shutil.rmtree``'s) counts wherever it is. On a disk
    that discards freed blocks, each freed inode waits tens of
    milliseconds (EXPERIMENTS.md, "A generation frees what it must")."""

    def __init__(self, monkeypatch, root: Path) -> None:
        if not Path("/proc/self/maps").exists():
            pytest.skip("counting freed inodes needs /proc/self/maps")
        self.removed: list[str] = []
        self.freed: list[str] = []
        self.root = root
        self._shim(monkeypatch, "unlink", lambda path, *a, **k: path)
        self._shim(monkeypatch, "rmdir", lambda path, *a, **k: path)
        for attr in ("rename", "replace"):
            self._shim(
                monkeypatch, attr,
                lambda src, dst, *a, **k: dst if os.path.lexists(dst) else None,
            )

    def _shim(self, monkeypatch, attr, removes) -> None:
        real = getattr(os, attr)

        def call(*args, **kwargs):
            name = removes(*args, **kwargs)
            dir_fd = kwargs.get("dir_fd")
            if name is not None and (dir_fd is not None or Path(name).is_relative_to(self.root)):
                self.removed.append(Path(name).name)
                if self._frees(name, dir_fd):
                    self.freed.append(Path(name).name)
            return real(*args, **kwargs)

        monkeypatch.setattr(os, attr, call)

    @staticmethod
    def _frees(name, dir_fd) -> bool:
        try:
            st = os.stat(name, dir_fd=dir_fd, follow_symlinks=False)
        except OSError:
            return False
        if stat.S_ISDIR(st.st_mode):
            return True
        return st.st_nlink == 1 and (st.st_dev, st.st_ino) not in _held()
