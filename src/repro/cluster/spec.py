"""Hardware specifications of the paper's testbeds.

Two machines appear in the evaluation:

- **DAS5 node** (Sections IV, used for every distributed experiment):
  dual 8-core Intel Xeon E5-2630v3 @ 2.40 GHz, 64 GB RAM, FDR InfiniBand;
- **SURFsara HPC Cloud VM** (Section IV-D, vertical-scaling comparison):
  40 Intel Xeon E7-4850 cores @ 2.00 GHz, 1 TB RAM, no fast interconnect.

The specs feed the cost model (flop rates, memory capacity feasibility
checks — e.g. why Figure 1's x-axis starts at 8 workers) and the network
simulator (NIC parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.network import NetworkParams


@dataclass(frozen=True)
class MachineSpec:
    """A compute node.

    Attributes:
        name: label for reports.
        cores: usable cores.
        clock_ghz: nominal clock.
        memory_bytes: RAM available to the application.
        kernel_ops_per_sec_per_core: calibrated throughput of the a-MMSB
            update kernels (inner-loop "K-operations" per second per core;
            memory-bound, so well below peak flops).
        memory_bandwidth: node DRAM bandwidth (bytes/s), the vertical-
            scaling ceiling for the memory-bound kernels.
    """

    name: str
    cores: int
    clock_ghz: float
    memory_bytes: int
    kernel_ops_per_sec_per_core: float = 9.0e7
    memory_bandwidth: float = 50e9

    def kernel_ops_per_sec(self, threads: int | None = None) -> float:
        """Aggregate kernel throughput with ``threads`` (default all cores).

        Thread scaling saturates against the node memory-bandwidth ceiling:
        the kernels stream pi rows, so beyond the bandwidth-bound thread
        count extra cores add little (this is what makes the 40-core VM
        less than 2.5x a 16-core DAS5 node in Figure 4-a).
        """
        t = self.cores if threads is None else min(threads, self.cores)
        linear = t * self.kernel_ops_per_sec_per_core * (self.clock_ghz / 2.4)
        # Bandwidth roofline: each kernel op touches ~24 bytes of state.
        roof = self.memory_bandwidth / 24.0
        return min(linear, roof)


#: DAS5 compute node (paper Section IV).
DAS5_NODE = MachineSpec(
    name="das5",
    cores=16,
    clock_ghz=2.40,
    memory_bytes=64 * 2**30,
)

#: SURFsara HPC Cloud VM (paper Section IV-D).
HPC_CLOUD_NODE = MachineSpec(
    name="hpc-cloud",
    cores=40,
    clock_ghz=2.00,
    memory_bytes=1024 * 2**30,
    # 4-socket E7 SMP: good aggregate DRAM bandwidth on paper, but the
    # random pi-row accesses of this workload cross NUMA domains, so the
    # effective bandwidth binds the 40-core kernel rate (this roofline is
    # why Figure 4-a's vertical scaling is sublinear).
    memory_bandwidth=60e9,
)


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster: ``n_nodes`` identical machines behind one fabric.

    ``n_nodes`` counts *workers*; the master occupies one extra node (the
    paper reports "65 compute nodes" = 1 master + 64 workers).
    """

    n_workers: int
    machine: MachineSpec = DAS5_NODE
    network: NetworkParams = field(default_factory=NetworkParams.fdr_infiniband)
    memory_fraction: float = 0.85  # usable for pi storage

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("need at least one worker")

    @property
    def n_nodes(self) -> int:
        return self.n_workers + 1

    def pi_storage_bytes(self, n_vertices: int, n_communities: int) -> int:
        """Collective bytes needed for the DKV store of pi (+ phi_sum)."""
        return n_vertices * (n_communities + 1) * 4

    def fits_in_memory(self, n_vertices: int, n_communities: int) -> bool:
        """Feasibility check behind Figure 1's x-axis starting at 8 nodes."""
        per_worker = self.pi_storage_bytes(n_vertices, n_communities) / self.n_workers
        return per_worker <= self.machine.memory_bytes * self.memory_fraction

    def min_workers(self, n_vertices: int, n_communities: int) -> int:
        """Smallest worker count whose collective memory holds pi."""
        usable = self.machine.memory_bytes * self.memory_fraction
        import math

        return max(1, math.ceil(self.pi_storage_bytes(n_vertices, n_communities) / usable))


def das5(n_workers: int) -> ClusterSpec:
    """Convenience constructor for the paper's standard testbed."""
    return ClusterSpec(n_workers=n_workers, machine=DAS5_NODE)
