"""Shared fixtures: small deterministic graphs, configs, splits."""

from __future__ import annotations

import errno
import json
import os
import shutil

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.graph.generators import generate_ammsb_graph, planted_overlapping_graph
from repro.graph.graph import Graph
from repro.graph.split import split_heldout
from repro.store import Container, write_container


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


# -- simulated process death and filesystem refusals (store / stream tests) ---


def die_like_kill_9(patch, where: str):
    """Raise :class:`InjectedCrash` the way ``kill -9`` would land: a dead
    process cleans nothing up, so the writers' own error-path ``rmtree`` is
    disarmed first. ``patch`` is a ``monkeypatch.context()``; leaving it is
    the restart."""
    from repro.faults import InjectedCrash

    patch.setattr(shutil, "rmtree", lambda *a, **k: None)
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
