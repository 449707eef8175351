"""Real multi-process distributed execution with failure recovery.

The in-process :class:`~repro.dist.sampler.DistributedAMMSBSampler`
executes ranks sequentially (with a simulated clock). This module runs
the same master-worker protocol across **operating-system processes**:

- the global ``[pi | phi_sum]`` table lives in POSIX shared memory (the
  shared-memory analogue of the RDMA DKV store — every worker maps the
  same pages);
- the master (the parent process) draws mini-batches and ships each
  worker its shard (vertices, adjacency slice, strata) over a pipe —
  exactly the scatter of Section III-A;
- each worker process hosts the in-process engine's
  :class:`~repro.dist.worker.WorkerContext` (same stages, same
  per-worker RNG streams) over the shared table instead of the DKV
  store, so the two backends produce bit-identical states (tested in
  ``tests/test_mp_backend.py``);
- the stage protocol preserves the paper's hazard discipline: phi is
  computed from a consistent snapshot, then written back only after a
  barrier (compute-ack round trip), then theta partials are reduced.

This is genuine parallelism (one process per worker, no GIL sharing);
on a multi-core host the phi stage scales with worker count.

Failure model (see DESIGN.md "Failure model & degradation"): every
result collection carries a poll deadline, so a dead or wedged worker
can never hang the master. A worker whose process exits (detected via
``Process.exitcode``) — or that stays silent past ``heartbeat_timeout``
and is fenced by termination — is removed from the active set, its
shard is re-partitioned across the survivors, and the interrupted
iteration is retried. A mid-iteration loss is safe for SG-MCMC: phi
writes target disjoint rows, so a partially applied iteration is just
one extra stochastic step; correctness degrades to staleness, never to
corruption. Opt-in auto-checkpointing (``checkpoint_path`` +
``checkpoint_every``) reuses :mod:`repro.core.checkpoint`'s atomic
writer so a master crash can resume from the last durable state.
Every command/result carries a sequence number; results from an aborted
round are recognized and dropped, so recovery never mis-attributes a
straggler's answer.

:class:`~repro.faults.FaultPlan` injection (worker crashes via
``os._exit``, stalls via ``time.sleep``) exercises exactly these paths
in the chaos tests.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import select
import struct
import time
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.config import AMMSBConfig
from repro.core import stages
from repro.core.kernels import KernelWorkspace
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import ModelState, init_state
from repro.dist.master import MasterContext
from repro.dist.partition import WorkerShard, partition_heldout
from repro.dist.worker import PhiStageResult, WorkerContext
from repro.faults import FaultPlan, WorkerCrashed
from repro.graph.graph import Graph, edge_keys
from repro.graph.split import HeldoutSplit


@dataclass(frozen=True)
class RecoveryEvent:
    """One healed failure: which workers were lost and when."""

    iteration: int
    workers: tuple[int, ...]
    stalled: bool


def _worker_loop(
    worker_id: int,
    shm_name: str,
    table_shape: tuple[int, int],
    dtype_str: str,
    config: AMMSBConfig,
    n_vertices: int,
    heldout_keys: Optional[np.ndarray],
    faults: Optional[FaultPlan],
    pipes: list,
    graph_path: Optional[str] = None,
) -> None:
    """Worker process: command loop over the shared pi table.

    Every result message is ``(tag, worker_id, seq, key, payload)`` where
    ``seq`` echoes the command's sequence number — the master uses it to
    drop stragglers from rounds aborted by a failure. ``res_send`` is
    this worker's PRIVATE result pipe: a worker that dies mid-send can
    corrupt only its own channel, never wedge a peer (a shared queue's
    write lock would be abandoned by an abrupt ``os._exit`` and block
    every survivor — exactly the failure the chaos tests inject).

    ``pipes`` is the full pipe table, one ``(cmd_recv, cmd_send,
    res_recv, res_send)`` tuple per worker. Forked children inherit
    EVERY end, so the first thing a worker does is close everything
    that is not its own ``cmd_recv``/``res_send``. Without this
    hygiene, pipe EOF semantics are fiction: a worker killed mid-send
    (SIGKILL, OOM) leaves its result pipe held open by siblings and by
    the master's own inherited write end, so the partial message never
    terminates in EOF and the master blocks forever in ``recv()``; the
    master closing its pipe ends at shutdown likewise never surfaces as
    ``BrokenPipeError``/``EOFError`` here.

    ``graph_path`` (a CSR container from ``repro convert-graph``) turns
    on shared-graph mode: the worker memory-maps the full graph
    read-only — every worker process shares ONE physical copy through
    the page cache — and answers ``y_ab`` from it directly, so shards
    arrive without adjacency slices.
    """
    cmd_recv, _, _, res_send = pipes[worker_id]
    for i, (cr, cs, rr, rs) in enumerate(pipes):
        cs.close()
        rr.close()
        if i != worker_id:
            cr.close()
            rs.close()
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        mapped_graph: Optional[Graph] = None
        if graph_path is not None:
            from repro.graph.io import load_csr

            mapped_graph = load_csr(graph_path, provider="mmap")
        def send_result(msg) -> None:
            try:
                res_send.send(msg)
            except (BrokenPipeError, OSError):
                # Master closed its end (shutdown) or died: no reader
                # left, nothing useful to do in this process.
                os._exit(0)

        table = np.ndarray(table_shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
        # The in-process engine's worker over the shared table instead of
        # the DKV store: same streams, same stages, bit-identical states.
        ctx = WorkerContext(
            worker_id, config, n_vertices, stages.TableRows(table), heldout_keys
        )
        pending: Optional[PhiStageResult] = None
        shard: Optional[WorkerShard] = None

        while True:
            try:
                cmd = cmd_recv.recv()
            except (EOFError, OSError):
                # Master closed its end (prompt shutdown) or died —
                # possibly mid-frame, which surfaces as OSError rather
                # than EOFError; either way there is no more work.
                break
            op = cmd[0]
            if op == "stop":
                break
            seq = cmd[1]
            if op == "phi_compute":
                _, _, shard, beta, eps_t, iteration = cmd
                if faults is not None:
                    # Injected process faults for the chaos tests: a crash
                    # is an abrupt death (no cleanup, like a real SIGKILL
                    # or OOM); a stall is a wedged worker.
                    stall = faults.worker_stall_seconds(worker_id, iteration)
                    if stall > 0:
                        time.sleep(stall)
                    if faults.crash_due(worker_id, iteration):
                        os._exit(23)
                # Shared-graph mode ships no adjacency: the rows come
                # from the mapped CSR (same lookup, same answers).
                links_against = (
                    partial(mapped_graph.links_from, shard.vertices)
                    if shard.adjacency is None
                    else None
                )
                pending = ctx.update_phi_pi(
                    shard, ctx.sample_neighbors(shard, links_against), beta, eps_t
                )
                send_result(("phi_done", worker_id, seq, worker_id, None))
            elif op == "pi_write":
                assert pending is not None
                ctx.write_pi(pending)
                send_result(("write_done", worker_id, seq, worker_id, None))
            elif op == "theta_partial":
                _, _, theta = cmd
                assert shard is not None
                grad, _, _ = ctx.theta_partial(shard, theta)
                send_result(("theta", worker_id, seq, worker_id, grad))
            elif op == "perplexity":
                _, _, part, pairs, labels, beta = cmd
                probs, _ = ctx.perplexity_partial(pairs, labels, beta)
                send_result(("perp", worker_id, seq, part, probs))
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown command {op!r}")
    finally:
        shm.close()


class MultiprocessAMMSBSampler:
    """Master-worker SG-MCMC across OS processes with shared-memory pi.

    Use as a context manager (or call :meth:`close`) so the worker
    processes and the shared-memory segment are released::

        with MultiprocessAMMSBSampler(graph, config, n_workers=4) as s:
            s.run(1000)
            state = s.state_snapshot()

    Args:
        graph: training graph.
        config: shared configuration.
        n_workers: worker process count.
        heldout: optional held-out split (enables perplexity).
        state: optional initial state.
        faults: optional :class:`~repro.faults.FaultPlan`; worker crashes
            and stalls in the plan are injected inside the worker
            processes, exercising the recovery machinery below. An empty
            plan is bit-identical to ``faults=None``.
        heartbeat_timeout: real seconds the master waits for a stage
            result before fencing silent-but-alive workers as dead (a
            worker whose *process* exited is detected within
            ``poll_interval`` regardless).
        poll_interval: granularity, in real seconds, of the per-worker
            result-pipe polling (``connection.wait`` timeouts while
            collecting, and writability waits while a command send
            finds a full pipe).
        shutdown_timeout: grace period :meth:`close` allows workers to
            exit before escalating to ``terminate()``.
        checkpoint_path: opt-in auto-checkpoint target (atomic writes via
            :mod:`repro.core.checkpoint`).
        checkpoint_every: iterations between auto-checkpoints (0 = only
            explicit :meth:`save_checkpoint` calls).
        publish_path: opt-in serving-artifact target; the training loop
            periodically exports an immutable
            :class:`~repro.serve.artifact.ModelArtifact` here (atomic
            replace, so a :class:`~repro.serve.server.ModelServer`
            watching the path can hot-swap mid-run).
        publish_every: iterations between artifact publishes (0 = only
            explicit :meth:`publish_artifact` calls).
        graph_path: opt-in shared-graph mode. Path to a CSR container
            (built once with ``repro convert-graph``) matching ``graph``;
            each worker memory-maps it read-only, so all workers share
            one physical copy of the graph through the page cache and
            the master stops shipping per-iteration adjacency slices
            entirely (smaller scatter payloads, flat worker RSS).
            Bit-identical results to the default ship-adjacency mode.
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        n_workers: int = 2,
        heldout: Optional[HeldoutSplit] = None,
        state: Optional[ModelState] = None,
        faults: Optional[FaultPlan] = None,
        heartbeat_timeout: float = 30.0,
        poll_interval: float = 0.05,
        shutdown_timeout: float = 5.0,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        publish_path: Optional[Union[str, Path]] = None,
        publish_every: int = 0,
        graph_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if heartbeat_timeout <= 0 or poll_interval <= 0 or shutdown_timeout < 0:
            raise ValueError("timeouts must be positive")
        self.graph = graph
        self.kernels, config = stages.pinned_backend(config)
        self.config = config
        self.workspace = KernelWorkspace()
        self.n_workers = n_workers
        self.faults = None if faults is None or faults.empty else faults
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.poll_interval = float(poll_interval)
        self.shutdown_timeout = float(shutdown_timeout)
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_every = int(checkpoint_every)
        self.publish_path = Path(publish_path) if publish_path else None
        self.publish_every = int(publish_every)
        self.recoveries: list[RecoveryEvent] = []

        self.graph_path = Path(graph_path) if graph_path else None
        if self.graph_path is not None:
            from repro.store import read_manifest

            meta = read_manifest(self.graph_path).get("meta", {})
            if int(meta.get("n_vertices", -1)) != graph.n_vertices:
                raise ValueError(
                    f"graph_path container has n_vertices={meta.get('n_vertices')}, "
                    f"training graph has {graph.n_vertices}"
                )

        heldout_keys = None
        if heldout is not None:
            heldout_keys = np.sort(edge_keys(heldout.heldout_pairs, graph.n_vertices))
        self.master = MasterContext(
            graph, config, n_workers, heldout_keys,
            ship_adjacency=self.graph_path is None,
        )

        k = config.n_communities
        init = state if state is not None else init_state(
            graph.n_vertices, config, self.master.rng
        )
        dtype = np.dtype(config.dtype)
        table = np.concatenate([init.pi, init.phi_sum[:, None]], axis=1).astype(dtype)
        self._shm = shared_memory.SharedMemory(create=True, size=table.nbytes)
        self._table = np.ndarray(table.shape, dtype=dtype, buffer=self._shm.buf)
        self._table[:] = table
        self.theta = init.theta.copy()

        self._heldout = heldout
        # Static E_h partition, each part with its own running average.
        self._heldout_parts: list[PerplexityEstimator] = []
        if heldout is not None:
            parts = partition_heldout(
                heldout.heldout_pairs, heldout.heldout_labels, n_workers
            )
            self._heldout_parts = [PerplexityEstimator(*p, config.delta) for p in parts]

        ctx = mp.get_context("fork")
        # One PRIVATE command pipe and one PRIVATE result pipe per
        # worker; results are polled with a timeout via
        # connection.wait() — the heartbeat that makes hangs impossible.
        # A single shared queue would couple the workers through its
        # write lock: a worker dying abruptly (os._exit, SIGKILL, OOM)
        # mid-send would abandon the lock and wedge every survivor, so
        # a crash of one worker became a stall of all of them.
        #
        # All pipes are created BEFORE any fork and the full table is
        # handed to every worker, so each side can close the ends that
        # are not its own (see _worker_loop). Command write ends are
        # non-blocking: _send interleaves result draining while a pipe
        # is full instead of deadlocking against a worker that is
        # itself blocked writing a large result.
        pipes = []
        for _ in range(n_workers):
            cmd_recv, cmd_send = ctx.Pipe(duplex=False)
            res_recv, res_send = ctx.Pipe(duplex=False)
            pipes.append((cmd_recv, cmd_send, res_recv, res_send))
        self._cmd_pipes = [p[1] for p in pipes]
        self._res_pipes = [p[2] for p in pipes]
        for send in self._cmd_pipes:
            os.set_blocking(send.fileno(), False)
        #: Results drained opportunistically during _send, consumed by
        #: the next _collect.
        self._stash: list = []
        #: Workers whose result pipe has hit EOF (dead senders) — kept
        #: out of every subsequent wait/poll set.
        self._res_eof: set[int] = set()
        self._procs = []
        for w in range(n_workers):
            proc = ctx.Process(
                target=_worker_loop,
                args=(
                    w,
                    self._shm.name,
                    table.shape,
                    str(dtype),
                    config,
                    graph.n_vertices,
                    heldout_keys,
                    self.faults,
                    pipes,
                    str(self.graph_path) if self.graph_path is not None else None,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        # The master never touches the worker-side ends again: close
        # them so EOF/BrokenPipeError semantics actually hold (a dead
        # worker's result pipe must reach EOF; a worker writing after
        # close() must get BrokenPipeError, not block).
        for cmd_recv, _, _, res_send in pipes:
            cmd_recv.close()
            res_send.close()
        #: Worker ids still alive and holding shards (shrinks on recovery).
        self._active: list[int] = list(range(n_workers))
        self._seq = 0
        self.iteration = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def active_workers(self) -> tuple[int, ...]:
        """Ids of the workers currently carrying shards."""
        return tuple(self._active)

    def close(self) -> None:
        """Stop workers and release the shared-memory segment.

        Prompt even when a worker is wedged mid-command: the stop message
        and the pipe close wake any worker blocked in ``recv()``
        immediately; whoever is still alive after ``shutdown_timeout``
        (e.g. wedged inside a computation) is terminated and reaped.
        """
        if self._closed:
            return
        self._closed = True
        for w in self._active:
            try:
                self._cmd_pipes[w].send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for pipe in self._cmd_pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - already closed
                pass
        deadline = time.monotonic() + self.shutdown_timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - terminate ignored
                proc.kill()
                proc.join()
        for conn in self._res_pipes:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    def __enter__(self) -> "MultiprocessAMMSBSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- protocol helpers ------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send(self, worker: int, payload: tuple) -> None:
        """Scatter one command without ever deadlocking on a full pipe.

        A plain blocking ``Connection.send`` can wedge the whole run:
        when the target worker is itself blocked writing a large result
        (> the ~64KB pipe buffer) that the master has not yet started
        collecting — e.g. several held-out parts shipped back-to-back
        to one survivor after recovery shrank the active set — the
        command pipe never drains and both sides block forever, outside
        the reach of the heartbeat. The command fds are non-blocking:
        while a pipe is full this loop drains every worker's result
        pipe into :attr:`_stash` (consumed by the next :meth:`_collect`)
        so the worker's pending send can complete and it returns to
        ``recv``. A worker whose command pipe stays full past
        ``heartbeat_timeout`` is fenced by termination, exactly like a
        silent worker in :meth:`_collect`.
        """
        conn = self._cmd_pipes[worker]
        if conn.closed:
            return
        data = bytes(ForkingPickler.dumps(payload))
        n = len(data)
        # Frame exactly like Connection.send so the worker-side recv()
        # stays untouched: "!i" length header (the >2GB form is the
        # -1 marker + "!Q" length).
        if n <= 0x7FFFFFFF:
            buf = memoryview(struct.pack("!i", n) + data)
        else:  # pragma: no cover - >2GB command
            buf = memoryview(struct.pack("!i", -1) + struct.pack("!Q", n) + data)
        fd = conn.fileno()
        pos = 0
        deadline = time.monotonic() + self.heartbeat_timeout
        while pos < len(buf):
            try:
                pos += os.write(fd, buf[pos:])
                continue
            except BlockingIOError:
                pass
            except OSError:
                # The worker died with its pipe (EPIPE); the collect
                # deadline turns this into a WorkerCrashed with context.
                return
            # Pipe full: the worker is busy, possibly blocked writing a
            # result. Drain results so it can make progress, then wait
            # (bounded) for writability or for more results to drain.
            self._drain_results()
            if self._procs[worker].exitcode is not None:
                return
            if time.monotonic() > deadline:
                # Wedged with a full command pipe past the heartbeat:
                # fence it so the failure set is stable; the next
                # _collect reports it dead and recovery heals the loss.
                self._procs[worker].terminate()
                self._procs[worker].join(timeout=2.0)
                return
            readable = [
                self._res_pipes[w]
                for w in self._active
                if w not in self._res_eof and not self._res_pipes[w].closed
            ]
            try:
                select.select(readable, [fd], [], self.poll_interval)
            except OSError:  # pragma: no cover - fd closed under us
                return

    def _drain_results(self) -> None:
        """Stash every already-available result message, without waiting.

        Called while a command send is blocked on a full pipe: the
        target worker may be mid-write of a large result, and consuming
        it is what lets the worker finish and drain its command pipe.
        Messages go to :attr:`_stash`; :meth:`_collect` consumes them
        first, and its sequence-number check drops stale rounds.
        """
        for w in list(self._active):
            if w in self._res_eof:
                continue
            conn = self._res_pipes[w]
            try:
                while not conn.closed and conn.poll(0):
                    self._stash.append(conn.recv())
            except (EOFError, OSError):
                # Sender died with its pipe; exitcode checks name it.
                self._res_eof.add(w)

    def _collect(self, expected_tag: str, keys: Sequence[int], seq: int) -> dict:
        """Gather one result per key, with heartbeat-based failure detection.

        Returns ``{key: payload}``. Raises :class:`WorkerCrashed` listing
        every worker found dead (process exited) or fenced (silent past
        ``heartbeat_timeout`` — those are terminated first, so the failure
        set is stable by the time the caller recovers).
        """
        remaining = set(keys)
        out: dict = {}
        deadline = time.monotonic() + self.heartbeat_timeout
        while remaining:
            # Results drained while _send waited on a full pipe come
            # first; only then poll the live pipes.
            msgs, self._stash = self._stash, []
            if not msgs:
                by_conn = {
                    self._res_pipes[w]: w
                    for w in self._active
                    if w not in self._res_eof and not self._res_pipes[w].closed
                }
                if by_conn:
                    ready = mp_connection.wait(
                        list(by_conn), timeout=self.poll_interval
                    )
                else:
                    # Every channel is gone; fall through to the
                    # exitcode check at poll granularity.
                    ready = []
                    time.sleep(self.poll_interval)
                for conn in ready:
                    try:
                        msgs.append(conn.recv())
                    except (EOFError, OSError):
                        # The sender died with its pipe; only ITS channel
                        # is gone — the exitcode check below names it.
                        # Never wait on it again (EOF stays readable).
                        self._res_eof.add(by_conn[conn])
            progressed = False
            for msg in msgs:
                tag, worker, mseq, key, payload = msg
                if mseq != seq:
                    progressed = True  # alive, just a straggler
                    continue  # from an aborted round; drop
                if tag != expected_tag or key not in remaining:
                    raise RuntimeError(
                        f"protocol error: expected {expected_tag} for {sorted(remaining)}, "
                        f"got {tag} key={key} from worker {worker}"
                    )
                remaining.discard(key)
                out[key] = payload
                progressed = True
            if not remaining or progressed:
                continue
            dead = [
                w for w in self._active if self._procs[w].exitcode is not None
            ]
            if dead:
                raise WorkerCrashed(dead)
            if time.monotonic() > deadline:
                # Alive but silent past the heartbeat: fence by
                # termination so the recovery set cannot race.
                silent = sorted(
                    {w for w in self._active if self._expects(w, remaining, expected_tag)}
                )
                if not silent:  # pragma: no cover - defensive
                    silent = sorted(self._active)
                for w in silent:
                    self._procs[w].terminate()
                for w in silent:
                    self._procs[w].join(timeout=2.0)
                raise WorkerCrashed(silent, stalled=True)
        return out

    def _expects(self, worker: int, remaining: set, tag: str) -> bool:
        """Is ``worker`` responsible for any still-missing key?"""
        if tag == "perp":
            n = len(self._active)
            return any(
                self._active[key % n] == worker for key in remaining
            )
        return worker in remaining

    def _recover(self, crash: WorkerCrashed) -> None:
        """Heal a failure: drop the dead workers, re-partition their load.

        The master's partitioner is simply told the new worker count;
        from the retried iteration on, every mini-batch (and the held-out
        evaluation parts) is spread across the survivors only — the dead
        worker's shard re-partitioned mid-run, as the paper's static
        layout never could.
        """
        lost = [w for w in crash.workers if w in self._active]
        for w in lost:
            self._active.remove(w)
            proc = self._procs[w]
            if proc.exitcode is None:
                proc.terminate()
            proc.join(timeout=2.0)
            try:
                self._cmd_pipes[w].close()
            except OSError:  # pragma: no cover
                pass
            try:
                self._res_pipes[w].close()
            except OSError:  # pragma: no cover
                pass
        if lost:
            self.recoveries.append(
                RecoveryEvent(self.iteration, tuple(lost), crash.stalled)
            )
        if not self._active:
            self.close()
            raise RuntimeError(
                f"all workers lost at iteration {self.iteration}"
            ) from crash
        self.master.n_workers = len(self._active)

    # -- derived views ------------------------------------------------------------

    @property
    def beta(self) -> np.ndarray:
        return self.theta[:, 1] / self.theta.sum(axis=1)

    def state_snapshot(self) -> ModelState:
        return ModelState(
            pi=self._table[:, :-1].copy(),
            phi_sum=self._table[:, -1].copy(),
            theta=self.theta.copy(),
        )

    # -- checkpointing --------------------------------------------------------------

    def save_checkpoint(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Atomically write the current model state (see
        :func:`repro.core.checkpoint.save_state_checkpoint`)."""
        from repro.core.checkpoint import save_state_checkpoint

        target = Path(path) if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        return save_state_checkpoint(
            target, self.state_snapshot(), self.iteration, self.config
        )

    @classmethod
    def from_checkpoint(
        cls,
        path: Union[str, Path],
        graph: Graph,
        heldout: Optional[HeldoutSplit] = None,
        **kwargs,
    ) -> "MultiprocessAMMSBSampler":
        """Resume a run from an auto-checkpoint.

        Restores model state and the iteration counter (and therefore the
        step-size schedule). RNG streams restart from their seeds — this
        is coarse-grained disaster recovery for a crashed *master*, not
        the bit-exact single-process resume of
        :func:`repro.core.checkpoint.load_checkpoint`.
        """
        from repro.core.checkpoint import load_state_checkpoint

        state, iteration, config = load_state_checkpoint(path)
        sampler = cls(graph, config, heldout=heldout, state=state, **kwargs)
        sampler.iteration = iteration
        return sampler

    def _maybe_autocheckpoint(self) -> None:
        if (
            self.checkpoint_path is not None
            and self.checkpoint_every > 0
            and self.iteration % self.checkpoint_every == 0
        ):
            self.save_checkpoint()

    # -- serving-artifact publication -------------------------------------------------

    def publish_artifact(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Atomically export the current posterior as a serving artifact.

        The write goes through the same tmp+fsync+replace machinery as
        checkpoints, so a serving process re-loading the path sees either
        the previous artifact or the new one, never a torn file.
        """
        from repro.serve.artifact import export_artifact

        target = Path(path) if path is not None else self.publish_path
        if target is None:
            raise ValueError("no publish path configured")
        return export_artifact(
            target, self.state_snapshot(), self.config, iteration=self.iteration
        )

    def _maybe_publish(self) -> None:
        if (
            self.publish_path is not None
            and self.publish_every > 0
            and self.iteration % self.publish_every == 0
        ):
            self.publish_artifact()

    # -- iteration -------------------------------------------------------------------

    def step(self) -> None:
        """One BSP iteration across the worker processes.

        Retries transparently when workers are lost mid-iteration: the
        failure is healed (:meth:`_recover`) and the iteration re-runs on
        the survivors. Worker losses are visible in :attr:`recoveries`.
        """
        if self._closed:
            raise RuntimeError("sampler is closed")
        while True:
            try:
                self._step_once()
                break
            except WorkerCrashed as crash:
                self._recover(crash)
        self.iteration += 1
        self._maybe_autocheckpoint()
        self._maybe_publish()

    def _step_once(self) -> None:
        cfg = self.config
        active = list(self._active)
        draw = self.master.next_draw()
        eps_phi = cfg.step_phi.at(self.iteration)
        beta = self.beta
        # Stage: scatter + phi compute (reads only) ... barrier.
        seq = self._next_seq()
        for idx, w in enumerate(active):
            self._send(
                w, ("phi_compute", seq, draw.shards[idx], beta, eps_phi, self.iteration)
            )
        self._collect("phi_done", active, seq)
        # Stage: pi write-back (disjoint rows) ... barrier.
        seq = self._next_seq()
        for w in active:
            self._send(w, ("pi_write", seq))
        self._collect("write_done", active, seq)
        # Stage: theta partials -> reduce at master -> update.
        seq = self._next_seq()
        for w in active:
            self._send(w, ("theta_partial", seq, self.theta))
        partials = self._collect("theta", active, seq)
        grad_total = np.zeros_like(self.theta)
        for w in active:
            grad_total += partials[w]
        self.theta = stages.apply_theta(
            self.kernels, self.workspace, cfg, self.theta, grad_total,
            self.iteration, self.master.theta_noise(self.theta.shape),
        )

    def run(self, n_iterations: int, perplexity_every: int = 0) -> None:
        for _ in range(n_iterations):
            self.step()
            if (
                perplexity_every
                and self._heldout_parts
                and self.iteration % perplexity_every == 0
            ):
                self.evaluate_perplexity()

    def evaluate_perplexity(self) -> float:
        """Distributed perplexity over the statically partitioned E_h.

        The static parts outlive worker losses: part ``j`` is evaluated
        by survivor ``active[j % len(active)]``, so a shrunken worker set
        still covers every held-out pair.
        """
        if not self._heldout_parts:
            raise RuntimeError("no held-out split was provided")
        while True:
            try:
                probs = self._perplexity_once()
                break
            except WorkerCrashed as crash:
                self._recover(crash)
        for j, part in enumerate(self._heldout_parts):
            part.add(probs[j])
        return stages.pooled_perplexity(self._heldout_parts)

    def _perplexity_once(self) -> dict[int, np.ndarray]:
        beta = self.beta
        seq = self._next_seq()
        n = len(self._active)
        for j, part in enumerate(self._heldout_parts):
            self._send(
                self._active[j % n], ("perplexity", seq, j, part.pairs, part.labels, beta)
            )
        return self._collect("perp", range(len(self._heldout_parts)), seq)
