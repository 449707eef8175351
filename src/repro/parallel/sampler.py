"""Multi-threaded single-node sampler (the paper's vertical-scaling rival).

:class:`ThreadedAMMSBSampler` is the sequential reference with a
different executor: update_phi (the dominant stage) and the
theta-gradient partials run over a thread pool, on runs of whole row /
pair blocks. It overrides only how block runs are mapped; the stages
themselves are the sequential sampler's. A block's noise and neighbor
set are keyed by the block and its theta partial is its own term of the
block-order reduce, so the threaded run is the sequential one bit for
bit, for every thread count.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.config import AMMSBConfig
from repro.core.kernels import KernelWorkspace
from repro.core.sampler import AMMSBSampler
from repro.graph.graph import Graph
from repro.graph.split import HeldoutSplit
from repro.parallel.threadpool import chunked_thread_map

#: Workspaces are not thread-safe, so each pool thread keeps its own;
#: capacity-grown buffers persist across iterations (and samplers).
_TLS = threading.local()


def thread_workspace() -> KernelWorkspace:
    """This thread's reusable kernel workspace (created on first use)."""
    ws = getattr(_TLS, "workspace", None)
    if ws is None:
        ws = KernelWorkspace()
        _TLS.workspace = ws
    return ws


class ThreadedAMMSBSampler(AMMSBSampler):
    """Data-parallel sampler for one shared-memory machine.

    Args:
        graph / config / heldout / state: as the sequential sampler.
        n_threads: worker threads (default: half the logical CPUs, a
            reasonable stand-in for physical cores).
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        heldout: Optional[HeldoutSplit] = None,
        state=None,
        n_threads: Optional[int] = None,
    ) -> None:
        super().__init__(graph, config, heldout=heldout, state=state)
        if n_threads is None:
            import os

            n_threads = max(1, (os.cpu_count() or 2) // 2)
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = n_threads

    def _map_blocks(self, fn, n: int) -> list:
        """The thread-pool executor: ``n_threads`` contiguous runs of
        blocks, each on its pool thread's own workspace, results in block
        order."""
        return chunked_thread_map(
            lambda a, b: fn(a, b, thread_workspace()), n, self.n_threads
        )
