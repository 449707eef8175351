"""A budget for the names a stream generation removes.

On a disk that discards freed blocks, each unlink, rmdir or rename-over
that frees a file holding data waits tens of milliseconds with no CPU
(EXPERIMENTS.md, "A generation frees what it must"), so the count of
names a generation removes is a cost of its own. A steady generation
removes four: the published artifact link it replaces, the stream
manifest it replaces, model g-2 and delta g-2.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.config import AMMSBConfig, StepSizeConfig
from repro.serve.artifact import load_artifact
from repro.serve.server import ModelServer
from repro.stream import StreamTrainer, SyntheticArrivalSource

#: names one steady generation may remove
BUDGET = 4


def _removals(monkeypatch, root: Path) -> list[str]:
    """Record every name under ``root`` that ``os.unlink``, ``os.rmdir``
    or ``os.replace`` (onto an existing name) removes in this process. A
    name relative to a directory descriptor (``shutil.rmtree``'s) counts
    wherever it is."""
    removed: list[str] = []

    def shim(attr, removes):
        real = getattr(os, attr)

        def call(*args, **kwargs):
            name = removes(*args, **kwargs)
            if name is not None and (
                kwargs.get("dir_fd") is not None or Path(name).is_relative_to(root)
            ):
                removed.append(Path(name).name)
            return real(*args, **kwargs)

        monkeypatch.setattr(os, attr, call)

    shim("unlink", lambda path, *a, **k: path)
    shim("rmdir", lambda path, *a, **k: path)
    shim("replace", lambda src, dst, *a, **k: dst if os.path.lexists(dst) else None)
    return removed


def test_a_steady_generation_removes_at_most_four_names(planted, tmp_path, monkeypatch):
    graph, _ = planted
    config = AMMSBConfig(
        n_communities=4, mini_batch_vertices=32, neighbor_sample_size=16, seed=11,
        step_phi=StepSizeConfig(a=0.05), step_theta=StepSizeConfig(a=0.05),
    )
    source = SyntheticArrivalSource(graph, base_fraction=0.95, seed=3)
    publish = tmp_path / "artifact"
    trainer = StreamTrainer(
        source.base_graph(), config, tmp_path / "work", iterations_per_generation=4,
        heldout_fraction=0.05, publish_path=publish,
    )
    batches = list(source.batches(5))
    with trainer:
        trainer.run_generation()
        with ModelServer(load_artifact(publish), n_workers=0) as server:
            trainer.publish_callback = lambda path, _gen: server.publish_path(path)
            removed = _removals(monkeypatch, tmp_path)
            per_generation = []
            for batch in batches:
                before = len(removed)
                report = trainer.run_generation(batch)
                assert report.published and server.generation == report.generation
                assert trainer.overlay.delta_path is not None  # no snapshot bought
                per_generation.append(removed[before:])
    steady = per_generation[1:]  # from generation 2 on, two manifests' files exist
    assert all(len(names) <= BUDGET for names in steady), steady
    assert sorted(steady[-1]) == sorted([
        "artifact", "manifest.json", "model_g0003.store", "graph_g0003.delta",
    ])
    assert np.isfinite(report.perplexity)
