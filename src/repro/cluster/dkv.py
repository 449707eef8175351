"""Distributed key-value store for pi (paper Section III-B).

The paper builds its own DKV store directly on ib-verbs because its use
case is unusually simple: a static key layout (keys = vertex ids, fixed
after initial population), fixed-size values (K+1 floats: pi row +
phi_sum), and barrier-separated read-only / write-only stages with no
read/write hazards — so every get/put is exactly one RDMA read or write.

This module provides that store in two coupled layers:

- **functional**: values actually live in per-server NumPy arrays inside
  this process; ``read_batch`` / ``write_batch`` really move the data, so
  the distributed sampler computes real results;
- **accounting**: every batch records per-server request counts and bytes,
  which the cost model (closed form) or the discrete-event simulator
  (:meth:`timed_read_batch`) converts into simulated time. The Figure 5
  benchmark drives the simulator path so DKV and qperf share one fabric
  model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.faults import DKVTimeout, FaultPlan, armed
from repro.sim.core import ProcessGen, Simulator, Timeout
from repro.sim.network import Network, NetworkParams
from repro.sim.rdma import RdmaEngine, RdmaOp

#: Server-side bytes of DKV metadata fetched along with a value (header).
VALUE_HEADER_BYTES = 16

#: Simulated seconds charged per timed-out attempt against a stalled server.
REQUEST_TIMEOUT = 2e-3
#: Retry budget per batch after the first attempt.
MAX_RETRIES = 3
#: Exponential backoff between attempts: ``min(BACKOFF_BASE * 2**attempt,
#: BACKOFF_CAP)`` simulated seconds.
BACKOFF_BASE = 1e-3
BACKOFF_CAP = 50e-3


@dataclass
class DKVTraffic:
    """Accounting for one batched operation."""

    n_requests: int = 0
    n_remote_requests: int = 0
    bytes_total: int = 0
    bytes_remote: int = 0
    per_server_requests: dict[int, int] = field(default_factory=dict)

    def merge(self, other: "DKVTraffic") -> None:
        self.n_requests += other.n_requests
        self.n_remote_requests += other.n_remote_requests
        self.bytes_total += other.bytes_total
        self.bytes_remote += other.bytes_remote
        for k, v in other.per_server_requests.items():
            self.per_server_requests[k] = self.per_server_requests.get(k, 0) + v


@dataclass
class DKVFaultStats:
    """Degradation accounting of a fault-tolerant store.

    ``simulated_delay`` accumulates the simulated seconds lost to
    timeouts and backoff; the distributed sampler drains it into the
    stage clocks, so fault windows show up as throughput loss — never
    as a hang or a crash.
    """

    timeouts: int = 0
    retries: int = 0
    stale_batches: int = 0
    stale_requests: int = 0
    dropped_writes: int = 0
    breaker_opens: int = 0
    max_staleness: int = 0
    simulated_delay: float = 0.0
    per_server_stale: dict[int, int] = field(default_factory=dict)

    def record_stale(self, server: int, n_requests: int, staleness: int) -> None:
        self.stale_batches += 1
        self.stale_requests += n_requests
        self.max_staleness = max(self.max_staleness, staleness)
        self.per_server_stale[server] = (
            self.per_server_stale.get(server, 0) + n_requests
        )

    def drain_delay(self) -> float:
        """Return and reset the accumulated simulated delay."""
        out, self.simulated_delay = self.simulated_delay, 0.0
        return out


class _CircuitBreaker:
    """Per-server breaker: after ``threshold`` consecutive batch failures
    the server is fenced for ``cooldown`` iterations — ops skip the retry
    ladder and go straight to the stale snapshot, so one dead server stops
    taxing every batch with full timeout ladders."""

    __slots__ = ("threshold", "cooldown", "failures", "open_until")

    def __init__(self, threshold: int, cooldown: int) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.open_until = -1

    def allows(self, iteration: int) -> bool:
        return iteration >= self.open_until

    @property
    def is_open(self) -> bool:
        return self.open_until >= 0 and self.failures >= self.threshold

    def record_success(self) -> None:
        self.failures = 0
        self.open_until = -1

    def record_failure(self, iteration: int) -> bool:
        """Record a failed batch; returns True if this trip opened the
        breaker."""
        self.failures += 1
        if self.failures >= self.threshold:
            newly = self.open_until < 0
            self.open_until = iteration + self.cooldown
            return newly
        return False


class DKVStore:
    """Static-partition fixed-value-size distributed KV store.

    Keys ``0 .. n_keys-1`` are block-partitioned across ``n_servers``
    (vertex ``i`` lives on server ``i * n_servers // n_keys``), matching
    the paper's static equal partition of pi rows.

    Args:
        n_keys: number of keys (vertices).
        value_dim: floats per value (K + 1).
        n_servers: worker count.
        dtype: storage dtype (float32 in the paper; float64 default here
            for numerical parity with the sequential reference).
        faults: optional :class:`~repro.faults.FaultPlan`. When a server
            is stalled, batches against it time out and retry with bounded
            exponential backoff; exhausted retries trip a per-server
            circuit breaker and fall back to the last-known snapshot
            (stale reads — the degradation Li/Ahn/Welling's sampler
            provably tolerates). ``None`` or an empty plan bypasses every
            fault path (bit-identical behavior). The ladder's timeout,
            retry budget and backoff are :data:`REQUEST_TIMEOUT`,
            :data:`MAX_RETRIES`, :data:`BACKOFF_BASE` / :data:`BACKOFF_CAP`.
        breaker_threshold / breaker_cooldown: consecutive failed batches
            that open a server's breaker / iterations it stays open.
        stale_fallback: if False, exhausted retries raise
            :class:`~repro.faults.DKVTimeout` instead of degrading.
    """

    def __init__(
        self,
        n_keys: int,
        value_dim: int,
        n_servers: int,
        dtype=np.float64,
        faults: Optional[FaultPlan] = None,
        breaker_threshold: int = 2,
        breaker_cooldown: int = 2,
        stale_fallback: bool = True,
    ) -> None:
        if n_keys < 1 or value_dim < 1 or n_servers < 1:
            raise ValueError("n_keys, value_dim, n_servers must be positive")
        self.n_keys = int(n_keys)
        self.value_dim = int(value_dim)
        self.n_servers = int(n_servers)
        self.dtype = dtype
        # Block partition boundaries.
        self._bounds = np.array(
            [i * self.n_keys // self.n_servers for i in range(self.n_servers + 1)],
            dtype=np.int64,
        )
        self._shards = [
            np.zeros((self._bounds[i + 1] - self._bounds[i], value_dim), dtype=dtype)
            for i in range(self.n_servers)
        ]
        self.value_bytes = int(value_dim * np.dtype(dtype).itemsize)
        # -- fault tolerance (inert unless a non-empty plan is given) -----
        self.faults = armed(faults)
        self.stale_fallback = bool(stale_fallback)
        self.fault_stats = DKVFaultStats()
        self._iteration = 0
        self._breakers = [
            _CircuitBreaker(breaker_threshold, breaker_cooldown)
            for _ in range(self.n_servers)
        ]
        # Last-known-good snapshots, maintained only under a fault plan.
        self._snapshots: list[Optional[np.ndarray]] = [None] * self.n_servers
        self._snapshot_iter = [0] * self.n_servers

    # -- placement ----------------------------------------------------------

    def owner(self, key: int) -> int:
        """Server owning ``key``."""
        if not 0 <= key < self.n_keys:
            raise KeyError(f"key {key} out of range")
        return int(np.searchsorted(self._bounds, key, side="right") - 1)

    def owners(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= self.n_keys):
            raise KeyError("key out of range")
        return np.searchsorted(self._bounds, keys, side="right") - 1

    def shard_slice(self, server: int) -> tuple[int, int]:
        """(start, stop) key range owned by ``server``."""
        return int(self._bounds[server]), int(self._bounds[server + 1])

    # -- population -----------------------------------------------------------

    def populate(self, values: np.ndarray) -> None:
        """Initial bulk load of all values (no traffic accounting; the
        paper populates the store once before sampling starts)."""
        if values.shape != (self.n_keys, self.value_dim):
            raise ValueError(f"expected {(self.n_keys, self.value_dim)}, got {values.shape}")
        for s in range(self.n_servers):
            lo, hi = self.shard_slice(s)
            self._shards[s][:] = values[lo:hi]
            if self.faults is not None:
                self._snapshots[s] = self._shards[s].copy()
                self._snapshot_iter[s] = self._iteration

    def snapshot(self) -> np.ndarray:
        """Gather every value (for checkpointing / validation)."""
        return np.concatenate(self._shards, axis=0)

    # -- fault handling ---------------------------------------------------------

    def set_iteration(self, iteration: int) -> None:
        """Advance the store's notion of algorithm time. Stall windows and
        breaker cooldowns are expressed in iterations, so the driver calls
        this once per BSP step."""
        self._iteration = int(iteration)

    def _snapshot(self, server: int) -> np.ndarray:
        snap = self._snapshots[server]
        if snap is None:  # store used before populate(); snapshot lazily
            snap = self._shards[server].copy()
            self._snapshots[server] = snap
        return snap

    def _refresh_snapshot(self, server: int) -> None:
        if self._snapshot_iter[server] != self._iteration or self._snapshots[server] is None:
            self._snapshots[server] = self._shards[server].copy()
            self._snapshot_iter[server] = self._iteration

    def _serve_stale(self, server: int, n_requests: int) -> np.ndarray:
        staleness = self._iteration - self._snapshot_iter[server]
        self.fault_stats.record_stale(server, n_requests, staleness)
        return self._snapshot(server)

    def _acquire_server(self, server: int, n_requests: int) -> Optional[np.ndarray]:
        """Run the timeout/retry/breaker ladder against ``server``.

        Returns ``None`` when the server answered (caller uses the live
        shard), or the stale snapshot array to read from instead. Raises
        :class:`DKVTimeout` when degradation is disabled.
        """
        assert self.faults is not None
        stats = self.fault_stats
        breaker = self._breakers[server]
        it = self._iteration
        if breaker.is_open and not breaker.allows(it):
            # Fenced server: skip the ladder entirely (that is the point
            # of the breaker — one dead server must not tax every batch).
            return self._serve_stale(server, n_requests)
        attempt = 0
        while True:
            if not self.faults.server_stalled(server, it, attempt):
                breaker.record_success()
                self._refresh_snapshot(server)
                return None
            stats.timeouts += 1
            stats.simulated_delay += REQUEST_TIMEOUT
            if attempt >= MAX_RETRIES:
                if breaker.record_failure(it):
                    stats.breaker_opens += 1
                if not self.stale_fallback:
                    raise DKVTimeout(server, attempt + 1)
                return self._serve_stale(server, n_requests)
            stats.retries += 1
            stats.simulated_delay += min(BACKOFF_BASE * (2.0 ** attempt), BACKOFF_CAP)
            attempt += 1

    # -- batched ops ------------------------------------------------------------

    def read_batch(self, client: int, keys: np.ndarray) -> tuple[np.ndarray, DKVTraffic]:
        """Read values for ``keys`` on behalf of ``client``.

        Duplicate keys are fetched once (the paper's workers dedupe their
        mini-batch + neighbor key sets the same way).
        """
        keys = np.asarray(keys, dtype=np.int64)
        out = np.empty((keys.size, self.value_dim), dtype=self.dtype)
        traffic = DKVTraffic()
        if keys.size == 0:
            return out, traffic
        unique, inverse = np.unique(keys, return_inverse=True)
        owners = self.owners(unique)
        uvals = np.empty((unique.size, self.value_dim), dtype=self.dtype)
        for s in np.unique(owners):
            sel = owners == s
            lo, _ = self.shard_slice(int(s))
            n_req = int(sel.sum())
            source = self._shards[int(s)]
            if self.faults is not None:
                stale = self._acquire_server(int(s), n_req)
                if stale is not None:
                    source = stale
            uvals[sel] = source[unique[sel] - lo]
            traffic.n_requests += n_req
            traffic.bytes_total += n_req * self.value_bytes
            traffic.per_server_requests[int(s)] = n_req
            if int(s) != client:
                traffic.n_remote_requests += n_req
                traffic.bytes_remote += n_req * self.value_bytes
        out[:] = uvals[inverse]
        return out, traffic

    def write_batch(
        self, client: int, keys: np.ndarray, values: np.ndarray
    ) -> DKVTraffic:
        """Write values for ``keys``; keys must be unique (the algorithm
        guarantees mini-batch updates target unique vertices)."""
        keys = np.asarray(keys, dtype=np.int64)
        if values.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        if np.unique(keys).size != keys.size:
            raise ValueError("duplicate keys in write batch (write/write hazard)")
        traffic = DKVTraffic()
        owners = self.owners(keys)
        for s in np.unique(owners):
            sel = owners == s
            lo, _ = self.shard_slice(int(s))
            n_req = int(sel.sum())
            if self.faults is not None:
                stale = self._acquire_server(int(s), n_req)
                if stale is not None:
                    # Server unreachable: the update is dropped — the old
                    # pi rows simply persist one more round (stale-write
                    # degradation; the sampler's next read sees old values,
                    # which SG-MCMC tolerates). Traffic is still charged:
                    # the bytes went out before the op timed out.
                    self.fault_stats.dropped_writes += n_req
                else:
                    self._shards[int(s)][keys[sel] - lo] = values[sel]
                    # Acked writes belong to the last-known-good snapshot.
                    self._snapshots[int(s)] = self._shards[int(s)].copy()
                    self._snapshot_iter[int(s)] = self._iteration
            else:
                self._shards[int(s)][keys[sel] - lo] = values[sel]
            traffic.n_requests += n_req
            traffic.bytes_total += n_req * self.value_bytes
            traffic.per_server_requests[int(s)] = n_req
            if int(s) != client:
                traffic.n_remote_requests += n_req
                traffic.bytes_remote += n_req * self.value_bytes
        return traffic


# -- discrete-event timed batch (Figure 5 benchmark path) -------------------


#: Client-side CPU work per DKV request (key->address lookup, WQE build,
#: doorbell, CQE handling). This is the "additional per-request overhead
#: for the DKV store" behind Figure 5's small-payload gap vs qperf.
CLIENT_CPU_PER_REQUEST = 1.0e-6
#: Server DRAM fetch penalty for payloads too large for the LLC: qperf
#: re-reads the same buffer (cache hot), while DKV values are spread over
#: a large memory area (paper Section IV-E, largest packet size).
SERVER_DRAM_BANDWIDTH = 40e9
CACHE_RESIDENT_BYTES = 256 * 1024


def timed_read_batch(
    n_requests: int,
    value_bytes: int,
    depth: int = 16,
    params: NetworkParams | None = None,
    faults: FaultPlan | None = None,
) -> float:
    """Simulate one client reading ``n_requests`` values from one server.

    Mirrors :func:`repro.sim.qperf.run_qperf` on the same simulated fabric
    plus the DKV-specific costs: a value header on the wire, client CPU
    per request (serializing the posting loop), and a server DRAM-fetch
    penalty for payloads that cannot stay cache-resident. Under a
    :class:`~repro.faults.FaultPlan`, injected RDMA op failures are
    reposted until they succeed and link degradation stretches the wire
    times — the batch always completes, just slower. Returns elapsed
    seconds.
    """
    if n_requests < 1:
        raise ValueError("need at least one request")
    sim = Simulator()
    net = Network(
        sim, n_nodes=2, params=params or NetworkParams.fdr_infiniband(), faults=faults
    )
    engine = RdmaEngine(sim, net, faults=faults)
    payload = value_bytes + VALUE_HEADER_BYTES
    dram_penalty = (
        value_bytes / SERVER_DRAM_BANDWIDTH if value_bytes > CACHE_RESIDENT_BYTES else 0.0
    )

    def stream() -> ProcessGen:
        qp = engine.queue_pair(0, 1)
        inflight: list[RdmaOp] = []
        posted = completed = 0
        while completed < n_requests:
            if posted < n_requests and len(inflight) < depth:
                # Client CPU serializes request preparation.
                yield Timeout(CLIENT_CPU_PER_REQUEST)
                inflight.append(qp.post_read(payload))
                posted += 1
                continue
            op = inflight.pop(0)
            yield op.completion
            if op.failed:
                # Error CQE: free the window slot and repost the read.
                posted -= 1
                continue
            completed += 1
            if dram_penalty:
                yield Timeout(dram_penalty)
        return completed

    sim.run_process(stream(), name="dkv-batch")
    return sim.now


def dkv_bandwidth(value_bytes: int, n_requests: int = 256, depth: int = 16,
                  params: NetworkParams | None = None) -> float:
    """Payload bandwidth (bytes/s) of the simulated DKV read stream."""
    elapsed = timed_read_batch(n_requests, value_bytes, depth=depth, params=params)
    return n_requests * value_bytes / elapsed
