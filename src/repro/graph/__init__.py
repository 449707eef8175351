"""Graph substrate: compact graphs, IO, splits, generators, metrics.

The paper evaluates on six SNAP graphs (Table II). This environment has no
network access, so :mod:`repro.graph.datasets` provides deterministic
synthetic stand-ins generated from the a-MMSB generative model itself, with
the full-scale shapes (N, \\|E\\|, #ground-truth communities) kept in a
registry for the analytic scaling experiments.
"""

from repro.graph.graph import Graph, edge_keys
from repro.graph.split import HeldoutSplit, split_heldout
from repro.graph.generators import (
    GroundTruth,
    generate_ammsb_graph,
    planted_overlapping_graph,
)
from repro.graph.datasets import DATASETS, DatasetSpec, load_dataset

__all__ = [
    "Graph",
    "edge_keys",
    "HeldoutSplit",
    "split_heldout",
    "GroundTruth",
    "generate_ammsb_graph",
    "planted_overlapping_graph",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
]
