"""The distributed engine across forked worker processes.

:class:`MultiprocessAMMSBSampler` runs :mod:`repro.dist.protocol`'s
iteration over :class:`PipeTransport`, with real parallelism (one
process per worker, no GIL sharing):

- the global ``pi`` (one C-contiguous ``(N, K)`` array) and ``phi_sum``
  live in one POSIX shared-memory segment (the shared-memory analogue of
  the RDMA DKV store — every worker maps the same pages);
- the master (the parent process) ships each worker its shard
  (vertices, strata) over a pipe — the scatter of Section III-A without
  the adjacency slice: a forked worker inherits the training graph
  (copy-on-write, one physical copy) and answers ``y_ab`` from it;
- each worker process hosts the in-process engine's
  :class:`~repro.dist.worker.WorkerContext` (same stages, randomness
  keyed by block, not by worker) over the shared rows instead of the
  DKV store, so this backend ends on the sequential engine's state bit
  for bit, for every worker count (``tests/test_dist_equivalence.py``);
- each stage is one command to every live worker and one reply from
  each, received in one place (:meth:`PipeTransport._collect`): the
  collect is the barrier, so phi is computed from a consistent snapshot
  and written back only after it. Perplexity keeps that shape too: a
  rank gets all of its held-out parts in one command.

Failure model (see DESIGN.md "Failure model & degradation"): every
result collection carries a poll deadline, so a dead or wedged worker
can never hang the master. A worker whose process exits (detected via
``Process.exitcode``) — or that stays silent past ``heartbeat_timeout``
and is fenced by termination — is removed from the ranks, the
mini-batch rows are restored from an undo log taken before the
iteration wrote any, and the iteration's draw is re-dealt to the
survivors and retried. The look-ahead holds ``t+1`` undealt, so it is
dealt to whichever workers are left when ``t+1`` starts. Blocks, not
workers, key every random number and order the theta reduce, so a
recovered run ends on the fault-free run's state bit for bit.
Every command/result carries a sequence number; a reply from an
aborted round is recognized and dropped, so recovery never
mis-attributes a straggler's answer. A command write is bounded by
``heartbeat_timeout`` too, so a worker that stops reading is fenced
instead of hanging the master.

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
from multiprocessing import shared_memory
from typing import Callable, Optional, Sequence

import numpy as np

from repro.config import AMMSBConfig
from repro.core.perplexity import PerplexityEstimator
from repro.core.state import ModelState
from repro.dist.master import MasterDraw
from repro.dist.partition import WorkerShard
from repro.dist.protocol import MasterLoop
from repro.dist.worker import PhiStageResult, WorkerContext
from repro.faults import FaultPlan, WorkerCrashed, armed
from repro.graph.graph import Graph
from repro.graph.split import HeldoutSplit

#: Real seconds between polls of the result pipes (``connection.wait``
#: while collecting; writability waits while a command send finds a
#: full pipe).
POLL_INTERVAL = 0.05
#: Real seconds :meth:`PipeTransport.close` lets the workers exit before
#: terminating them.
SHUTDOWN_TIMEOUT = 5.0


def shared_rows(buf, n_vertices: int, config: AMMSBConfig) -> ModelState:
    """The shared segment as the split-array row store: ``pi`` as one
    C-contiguous ``(N, K)`` array, then ``phi_sum`` ``(N,)``, in
    ``config.dtype``. ``theta`` is not in the segment (the master keeps
    it), so the store's own is empty."""
    dtype = np.dtype(config.dtype)
    pi = np.ndarray((n_vertices, config.n_communities), dtype, buffer=buf)
    phi_sum = np.ndarray((n_vertices,), dtype, buffer=buf, offset=pi.nbytes)
    return ModelState(pi=pi, phi_sum=phi_sum, theta=np.zeros((0, 2)))


def _worker_loop(
    worker_id: int,
    shm_name: str,
    config: AMMSBConfig,
    graph: Graph,
    heldout_keys: Optional[np.ndarray],
    faults: Optional[FaultPlan],
    pipes: list,
) -> None:
    """Worker process: command loop over the shared pi rows.

    Every result message is ``(tag, worker_id, seq, payload)`` where
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

    ``graph`` is the master's training graph, inherited through ``fork``
    (never pickled; copy-on-write leaves one physical copy for every
    process): the worker's :class:`WorkerContext` answers ``y_ab`` from it.
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
        def send_result(msg) -> None:
            try:
                res_send.send(msg)
            except (BrokenPipeError, OSError):
                # Master closed its end (shutdown) or died: no reader
                # left, nothing useful to do in this process.
                os._exit(0)

        # The in-process engine's worker over the shared rows instead of
        # the DKV store: same stages, bit-identical states.
        rows = shared_rows(shm.buf, graph.n_vertices, config)
        ctx = WorkerContext(config, graph, rows, heldout_keys)
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
                _, _, shard, beta, iteration = cmd
                if faults is not None:
                    # Injected process faults for the chaos tests: a crash
                    # is an abrupt death (no cleanup, like a real SIGKILL
                    # or OOM); a stall is a wedged worker.
                    stall = faults.stall_seconds(worker_id, iteration)
                    if stall > 0:
                        time.sleep(stall)
                    if faults.crash_due(worker_id, iteration):
                        os._exit(23)
                pending = ctx.update_phi_pi(shard, ctx.sample_neighbors(shard), beta, iteration)
                send_result(("phi_done", worker_id, seq, None))
            elif op == "pi_write":
                assert pending is not None
                ctx.write_pi(pending)
                send_result(("write_done", worker_id, seq, None))
            elif op == "theta_partial":
                _, _, theta = cmd
                assert shard is not None
                grad, _, _ = ctx.theta_partial(shard, theta)
                send_result(("theta", worker_id, seq, grad))
            elif op == "perplexity":
                _, _, parts, beta = cmd
                probs = [ctx.perplexity_partial(*part, beta)[0] for part in parts]
                send_result(("perp", worker_id, seq, probs))
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown command {op!r}")
    finally:
        shm.close()


class PipeTransport:
    """The protocol's four calls as commands to forked worker processes.

    Each call sends every live worker one command and collects one reply
    from each, so between calls every live worker is idle in ``recv``.
    ``ranks`` are the ids of the workers still alive and holding shards
    (it shrinks on :meth:`fence`); ``rows`` is the shared segment's row
    store. While the workers compute phi, the master copies the rows the
    iteration will write (its undo log): no worker writes before
    ``pi_write``. :meth:`fence` restores them while an iteration is in
    flight, so its retry starts from the rows it started from.
    """

    def __init__(
        self,
        graph: Graph,
        config: AMMSBConfig,
        n_workers: int,
        init: ModelState,
        heldout_keys: Optional[np.ndarray],
        faults: Optional[FaultPlan],
        heartbeat_timeout: float,
    ) -> None:
        self.heartbeat_timeout = heartbeat_timeout
        n_values = graph.n_vertices * (config.n_communities + 1)
        self._shm = shared_memory.SharedMemory(
            create=True, size=n_values * np.dtype(config.dtype).itemsize
        )
        self.rows = shared_rows(self._shm.buf, graph.n_vertices, config)
        self.rows.pi[:] = init.pi
        self.rows.phi_sum[:] = init.phi_sum
        #: ``(vertices, pi rows, phi_sum)`` of the iteration in flight.
        self._undo: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

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
        # non-blocking, so _send can bound a write by the heartbeat.
        pipes = []
        for _ in range(n_workers):
            cmd_recv, cmd_send = ctx.Pipe(duplex=False)
            res_recv, res_send = ctx.Pipe(duplex=False)
            pipes.append((cmd_recv, cmd_send, res_recv, res_send))
        self._cmd_pipes = [p[1] for p in pipes]
        self._res_pipes = [p[2] for p in pipes]
        for send in self._cmd_pipes:
            os.set_blocking(send.fileno(), False)
        #: Workers whose result pipe has hit EOF (dead senders) — kept
        #: out of every subsequent wait/poll set.
        self._res_eof: set[int] = set()
        self._procs = []
        for w in range(n_workers):
            proc = ctx.Process(
                target=_worker_loop,
                args=(w, self._shm.name, config, graph, heldout_keys, faults, pipes),
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
        self.ranks: list[int] = list(range(n_workers))
        self._seq = 0

    # -- the protocol's calls ----------------------------------------------------

    def phi_compute(
        self, draw: MasterDraw, beta: np.ndarray, iteration: int, overlap: Callable[[], None]
    ) -> None:
        active = list(self.ranks)
        seq = self._next_seq()
        for idx, w in enumerate(active):
            self._send(w, ("phi_compute", seq, draw.shards[idx], beta, iteration))
        overlap()
        vertices = draw.minibatch.vertices
        self._undo = (vertices, self.rows.pi[vertices], self.rows.phi_sum[vertices])
        self._collect("phi_done", active, seq)

    def pi_write(self) -> None:
        active = list(self.ranks)
        seq = self._next_seq()
        for w in active:
            self._send(w, ("pi_write", seq))
        self._collect("write_done", active, seq)

    def theta_partial(self, theta: np.ndarray) -> dict[int, np.ndarray]:
        active = list(self.ranks)
        seq = self._next_seq()
        for w in active:
            self._send(w, ("theta_partial", seq, theta))
        partials = self._collect("theta", active, seq)
        self._undo = None  # every row written, every partial in: committed
        return {b: part for w in active for b, part in partials[w].items()}

    def perplexity(
        self, parts: list[PerplexityEstimator], beta: np.ndarray
    ) -> list[np.ndarray]:
        """Rank ``i`` of ``n`` evaluates ``parts[i::n]`` (part ``j`` on
        ``ranks[j % n]``), all in one command."""
        active = list(self.ranks)
        n = len(active)
        seq = self._next_seq()
        for i, w in enumerate(active):
            mine = [(part.pairs, part.labels) for part in parts[i::n]]
            self._send(w, ("perplexity", seq, mine, beta))
        replies = self._collect("perp", active, seq)
        probs: list = [None] * len(parts)
        for i, w in enumerate(active):
            probs[i::n] = replies[w]
        return probs

    # -- failures and shutdown ------------------------------------------------------

    def fence(self, workers: Sequence[int]) -> tuple[int, ...]:
        """Terminate and disconnect ``workers``; returns those that were
        still ranks. An iteration in flight is rolled back to its undo log."""
        lost = tuple(w for w in workers if w in self.ranks)
        for w in lost:
            self.ranks.remove(w)
            proc = self._procs[w]
            if proc.exitcode is None:
                proc.terminate()
            proc.join(timeout=2.0)
            for conn in (self._cmd_pipes[w], self._res_pipes[w]):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        if self._undo is not None:
            self.rows.write_rows(*self._undo)
        return lost

    def close(self) -> None:
        """Stop workers and release the shared-memory segment.

        Prompt even when a worker is wedged mid-command: the stop message
        and the pipe close wake any worker blocked in ``recv()``
        immediately; whoever is still alive after :data:`SHUTDOWN_TIMEOUT`
        (e.g. wedged inside a computation) is terminated and reaped.
        """
        for w in self.ranks:
            try:
                self._cmd_pipes[w].send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for pipe in self._cmd_pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - already closed
                pass
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT
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

    # -- pipes ------------------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send(self, worker: int, payload: tuple) -> None:
        """Write one command, bounded by ``heartbeat_timeout``.

        A stage is sent only once the previous one was collected or its
        silent workers fenced, so ``worker`` is idle in ``recv`` and has
        no reply pending: the write completes as the worker reads it,
        with nothing for the master to receive first. It stays
        non-blocking and bounded all the same, so a worker that stops
        reading (wedged, stopped) is fenced by termination once its pipe
        stays full past ``heartbeat_timeout``, like a silent worker in
        :meth:`_collect`, instead of hanging the master in ``write``.
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
            if self._procs[worker].exitcode is not None:
                return
            if time.monotonic() > deadline:
                # Not reading past the heartbeat: fence it so the failure
                # set is stable; the next _collect reports it dead and
                # recovery heals the loss.
                self._procs[worker].terminate()
                self._procs[worker].join(timeout=2.0)
                return
            select.select([], [fd], [], POLL_INTERVAL)

    def _collect(self, expected_tag: str, workers: Sequence[int], seq: int) -> dict:
        """Gather one reply per worker, with heartbeat-based failure detection.

        Returns ``{worker: payload}``. Raises :class:`WorkerCrashed` listing
        every worker found dead (process exited) once every live worker
        has answered — so no survivor is mid-command, mid-write, when the
        caller recovers — or fenced (silent past ``heartbeat_timeout``:
        terminated first, so the failure set is stable).
        """
        remaining = set(workers)
        out: dict = {}
        deadline = time.monotonic() + self.heartbeat_timeout
        while remaining:
            by_conn = {
                self._res_pipes[w]: w
                for w in self.ranks
                if w not in self._res_eof and not self._res_pipes[w].closed
            }
            if by_conn:
                ready = mp_connection.wait(list(by_conn), timeout=POLL_INTERVAL)
            else:
                # Every channel is gone; fall through to the exitcode
                # check at poll granularity.
                ready = []
                time.sleep(POLL_INTERVAL)
            progressed = False
            for conn in ready:
                try:
                    tag, worker, mseq, payload = conn.recv()
                except (EOFError, OSError):
                    # The sender died with its pipe; only ITS channel is
                    # gone — the exitcode check below names it. Never
                    # wait on it again (EOF stays readable).
                    self._res_eof.add(by_conn[conn])
                    continue
                progressed = True
                if mseq != seq:
                    continue  # a straggler from an aborted round; drop
                if tag != expected_tag or worker not in remaining:
                    raise RuntimeError(
                        f"protocol error: expected {expected_tag} from {sorted(remaining)}, "
                        f"got {tag} from worker {worker}"
                    )
                remaining.discard(worker)
                out[worker] = payload
            if not remaining or progressed:
                continue
            dead = [w for w in self.ranks if self._procs[w].exitcode is not None]
            if dead and remaining.issubset(dead):
                raise WorkerCrashed(dead)
            if time.monotonic() > deadline:
                # Alive but silent past the heartbeat: fence by
                # termination so the recovery set cannot race.
                silent = sorted(remaining)
                for w in silent:
                    self._procs[w].terminate()
                for w in silent:
                    self._procs[w].join(timeout=2.0)
                raise WorkerCrashed(silent, stalled=True)
        return out


class MultiprocessAMMSBSampler(MasterLoop):
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
            processes, exercising the recovery machinery. An empty plan
            is bit-identical to ``faults=None``.
        heartbeat_timeout: real seconds the master waits for a stage
            result before fencing silent-but-alive workers as dead (a
            worker whose *process* exited is detected within
            :data:`POLL_INTERVAL` regardless).

    The engine does not persist itself: a caller writes
    ``save_state_checkpoint(path, s.state_snapshot(), s.iteration,
    s.config)`` or ``export_artifact(path, s.state_snapshot(), s.config,
    iteration=s.iteration)``, and resumes with ``load_state_checkpoint``,
    the constructor's ``state=`` and ``s.iteration = iteration`` (an
    iteration is a function of (seed, t, state), so the resumed run is
    the uninterrupted one bit for bit).
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
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.n_workers = n_workers
        self.faults = armed(faults)
        self.heartbeat_timeout = float(heartbeat_timeout)
        super().__init__(graph, config, n_workers, heldout, state)

    def _connect(self, init: ModelState, heldout_keys: Optional[np.ndarray]) -> PipeTransport:
        return PipeTransport(
            self.graph, self.config, self.n_workers, init, heldout_keys,
            self.faults, self.heartbeat_timeout,
        )

    @property
    def active_workers(self) -> tuple[int, ...]:
        """Ids of the workers currently carrying shards."""
        return tuple(self.transport.ranks)

    def state_snapshot(self) -> ModelState:
        rows = self.transport.rows
        return ModelState(pi=rows.pi.copy(), phi_sum=rows.phi_sum.copy(), theta=self.theta.copy())
