"""Cluster substrate: machine specs, cost model, DKV store.

This package models the paper's testbed (DAS5 + FDR InfiniBand + MVAPICH2
+ a custom RDMA DKV store) in two complementary ways:

- **functional** — :class:`repro.cluster.dkv.DKVStore` really moves NumPy
  rows between simulated ranks inside one process, with per-batch
  traffic accounting, so the distributed algorithm executes for real;
  the MPI collectives are the in-process transport's calls
  (:mod:`repro.dist.sampler`), which hand values over directly;
- **timed** — :class:`repro.cluster.costmodel.CostModel` charges simulated
  wall-clock for every stage (compute per op, DKV traffic, collectives),
  calibrated against the paper's own Table III stage breakdown; the
  distributed engine's clock applies it to the records of each call.
"""

from repro.cluster.spec import MachineSpec, ClusterSpec, DAS5_NODE, HPC_CLOUD_NODE, das5
from repro.cluster.costmodel import CostModel, StageTimes
from repro.cluster.dkv import DKVStore

__all__ = [
    "MachineSpec",
    "ClusterSpec",
    "DAS5_NODE",
    "HPC_CLOUD_NODE",
    "das5",
    "CostModel",
    "StageTimes",
    "DKVStore",
]
