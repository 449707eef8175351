"""A budget for the inodes a stream generation frees, and the names it removes.

On a disk that discards freed blocks, dropping a file's last link waits
tens of milliseconds with no CPU, while a write, an fsync or a rename
onto a new name costs well under a millisecond (EXPERIMENTS.md, "A
generation frees what it must" and "A steady generation frees no
file"). So the count that costs is the inodes a generation frees. A
steady generation frees none: the stream manifest and delta g-2 go to
their spares (``store.atomic``), model g-2 is still mapped by the
server that rolls back to it, and the artifact name it replaces is a
second link of model g-1. It still removes at most four names: the
published artifact link, the stream manifest, model g-2 and the delta
spare's previous occupant.
"""

from __future__ import annotations

import numpy as np

from repro.config import AMMSBConfig, StepSizeConfig
from repro.serve.artifact import load_artifact
from repro.serve.server import ModelServer
from repro.stream import StreamTrainer, SyntheticArrivalSource
from repro.stream.delta import DELTA_SPARE
from tests.conftest import InodeLedger

#: names one steady generation may remove
BUDGET = 4
#: the spares a stream workdir may hold, one per role
SPARES = {".manifest.json.spare", DELTA_SPARE}


def _config() -> AMMSBConfig:
    return AMMSBConfig(
        n_communities=4, mini_batch_vertices=32, neighbor_sample_size=16, seed=11,
        step_phi=StepSizeConfig(a=0.05), step_theta=StepSizeConfig(a=0.05),
    )


def test_a_steady_generation_frees_no_inode(planted, tmp_path, monkeypatch):
    graph, _ = planted
    source = SyntheticArrivalSource(graph, base_fraction=0.95, seed=3)
    publish = tmp_path / "artifact"
    trainer = StreamTrainer(
        source.base_graph(), _config(), tmp_path / "work", iterations_per_generation=4,
        heldout_fraction=0.05, publish_path=publish,
    )
    batches = list(source.batches(5))
    with trainer:
        trainer.run_generation()
        with ModelServer(load_artifact(publish), n_workers=0) as server:
            trainer.publish_callback = lambda path, _gen: server.publish_path(path)
            ledger = InodeLedger(monkeypatch, tmp_path)
            removed, freed = [], []
            for batch in batches:
                names, frees = len(ledger.removed), len(ledger.freed)
                report = trainer.run_generation(batch)
                assert report.published and server.generation == report.generation
                assert trainer.overlay.delta_path is not None  # no snapshot bought
                removed.append(ledger.removed[names:])
                freed.append(ledger.freed[frees:])
    steady = slice(1, None)  # from generation 2 on, two manifests' files exist
    assert freed[steady] == [[]] * len(freed[steady]), freed
    assert all(len(names) <= BUDGET for names in removed[steady]), removed
    # the delta spare was taken by graph_g0005.delta, so g0003 moved onto a free name
    assert sorted(removed[-1]) == ["artifact", "manifest.json", "model_g0003.store"]
    assert {p.name for p in (tmp_path / "work").iterdir() if p.name.startswith(".")} == SPARES
    assert np.isfinite(report.perplexity)


def test_spares_stay_one_per_role_across_a_snapshot(planted, tmp_path):
    """Twenty generations, some of which buy a snapshot by the rent-then-buy
    rule, each followed by deltas on it: the workdir never holds more than
    its two spares, and the delta spare is never larger than the snapshot
    it could have been."""
    graph, _ = planted
    source = SyntheticArrivalSource(graph, base_fraction=0.6, seed=3)
    work = tmp_path / "work"
    trainer = StreamTrainer(
        source.base_graph(), _config(), work, iterations_per_generation=2,
        heldout_fraction=0.05,
    )
    snapshots = []
    with trainer:
        for batch in source.batches(20):
            trainer.run_generation(batch)
            if trainer.overlay.delta_path is None:
                snapshots.append(trainer.generation - 1)
            hidden = {p.name for p in work.iterdir() if p.name.startswith(".")}
            assert hidden <= SPARES, hidden
            if DELTA_SPARE in hidden:
                spare = (work / DELTA_SPARE).stat()
                assert spare.st_nlink == 1
                assert spare.st_size <= trainer.overlay.snapshot_path.stat().st_size
    assert snapshots and max(snapshots) < 19, snapshots
    assert {p.name for p in work.iterdir() if p.name.startswith(".")} == SPARES
