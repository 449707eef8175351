"""Closed-form iteration timing at full paper scale.

The functional distributed engine executes every kernel, which is
impossible at com-Friendster scale in this environment (pi alone would be
3 TB at K = 12288). The scaling figures, however, depend only on the
workload *shape* — N, |E|, K, M, n, C, |E_h| — so this module evaluates
the calibrated :class:`~repro.cluster.costmodel.CostModel` directly on
Table II's full-scale numbers. The functional engine and this analytic
mode share the same cost model; tests cross-validate them on shapes small
enough to run both.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.costmodel import CostModel, SingleNodeModel, StageTimes, WorkloadShape
from repro.cluster.spec import ClusterSpec, MachineSpec, das5
from repro.graph.datasets import DATASETS


def dataset_shape(
    name: str,
    n_communities: int,
    mini_batch_vertices: int = 16384,
    neighbor_sample_size: int = 32,
    heldout_fraction: float = 0.01,
    perplexity_interval: int = 144,
) -> WorkloadShape:
    """Build a full-scale WorkloadShape from a Table II dataset.

    ``heldout_fraction`` follows the convention of the split module: that
    fraction of links, plus the same number of non-links.
    """
    spec = DATASETS[name]
    return WorkloadShape(
        n_vertices=spec.n_vertices,
        n_edges=spec.n_edges,
        n_communities=n_communities,
        mini_batch_vertices=mini_batch_vertices,
        neighbor_sample_size=neighbor_sample_size,
        heldout_pairs=int(2 * heldout_fraction * spec.n_edges),
        perplexity_interval=perplexity_interval,
    )


def analytic_iteration(
    shape: WorkloadShape,
    cluster: Optional[ClusterSpec] = None,
    n_workers: int = 64,
    pipelined: bool = True,
) -> StageTimes:
    """Stage breakdown of one iteration at the given scale."""
    cluster = cluster or das5(n_workers)
    if not cluster.fits_in_memory(shape.n_vertices, shape.n_communities):
        raise MemoryError(
            f"pi ({cluster.pi_storage_bytes(shape.n_vertices, shape.n_communities) / 2**30:.0f} GiB)"
            f" does not fit in {cluster.n_workers} workers' collective memory;"
            f" need >= {cluster.min_workers(shape.n_vertices, shape.n_communities)} workers"
        )
    return CostModel(cluster).iteration(shape, pipelined=pipelined)


def analytic_single_node(
    shape: WorkloadShape,
    machine: MachineSpec,
    threads: Optional[int] = None,
) -> StageTimes:
    """Vertical-scaling comparator: one shared-memory machine (Fig 4)."""
    needed = shape.n_vertices * (shape.n_communities + 1) * 4
    if needed > machine.memory_bytes * 0.9:
        raise MemoryError(
            f"pi needs {needed / 2**30:.0f} GiB but {machine.name}"
            f" has {machine.memory_bytes / 2**30:.0f} GiB"
        )
    return SingleNodeModel(machine, threads or machine.cores).iteration(shape)
