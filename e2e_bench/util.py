"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    #: natively defined end-to-end metrics (run.py adds setup_s, peak_rss_mb
    #: and fills the cells the workload does not define from ``ops_per_s``)
    native: dict[str, float]
    #: the workload's headline rate: iterations, generations or requests per second
    ops_per_s: float
    attempted: int
    failed: int
    checks: dict[str, bool]
    #: per-layer metrics, traced run only
    layers: dict[str, float] = field(default_factory=dict)
    #: digests, counts and distributions for result.json
    detail: dict = field(default_factory=dict)


def process_age_s() -> float:
    """Seconds since this process was started.

    The kernel records the start in clock ticks (10 ms) since boot;
    ``setup_s`` is this value at the first timed operation, so it covers
    interpreter start and imports as well as input generation.
    """
    with open("/proc/self/stat", "rb") as fh:
        # the command name is parenthesised and may hold spaces
        fields = fh.read().rsplit(b")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5)
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


class HostProbe:
    """How fast the host is right now, as a factor on every measured time.

    The reference box is a few cores of a shared host whose memory system
    is contended in spells of seconds to minutes: the same 60 ms iteration
    reads 42..100 ms, and ten-second means differ by +-15% between runs.
    Steal time is zero throughout and CPU time moves with wall time, so
    neither more samples nor CPU clocks remove it. What does is timing a
    fixed piece of work next to every timed block: streaming 8 MB through
    two numpy passes slows down by the same share as the engines do. Over
    twenty consecutive 10 s windows the quartile spread of the median
    block time was 9.7% (train_kernel) and 8.7% (train_sampling) raw, and
    4.3% and 3.0% divided by the probe read beside each block (a random
    gather from a 25 MB table and an in-cache loop were tried as probes
    and did worse: 17% and 6%).

    ``read()`` is ``probe seconds / NOMINAL_S``: above 1 on a host that is
    slower than nominal. A time divided by it, or a rate multiplied by it,
    is what the nominal host would have shown. ``setup_s`` and the train
    and serve workloads' timed metrics are reported that way (the raw values
    stay in the run's detail record). The stream workloads' generation
    times are not: a generation has room for a reading only before and
    after its 2-3 s, part of it is fsync, and over ten seeds dividing made
    the spread wider (6.4% -> 8.8%, 10.5% -> 13.3%) where it halved the
    train workloads' (16.6% -> 7.8%, 11.0% -> 6.6%, 7.9% -> 3.1%) and
    narrowed the serve workload's (13.9% -> 11.0%, p99 19.1% -> 15.3%).
    """

    #: the probe's median on this box over the sizing runs; only a scale
    NOMINAL_S = 1.5e-3
    REPEATS = 5

    def __init__(self) -> None:
        self._src = np.random.default_rng(0).random(1 << 20)
        self._dst = np.empty_like(self._src)
        self.read()  # the first pass faults the pages in

    def read(self) -> float:
        laps = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            np.multiply(self._src, 1.0000001, out=self._dst)
            np.add(self._dst, self._src, out=self._dst)
            laps.append(time.perf_counter() - start)
        return statistics.median(laps) / self.NOMINAL_S


_probe: Optional[HostProbe] = None
#: every reading of this process, in order (run.py: the set-up's are the first)
host_readings: list[float] = []


def host_factor() -> float:
    """One reading of the process-wide :class:`HostProbe`. Call it while
    nothing else of this process runs: between blocks, never inside one."""
    global _probe
    if _probe is None:
        _probe = HostProbe()
    host_readings.append(_probe.read())
    return host_readings[-1]


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):  # gone between listdir and open
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def reap_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``train_mp`` needs it: the sampler joins its workers in ``close()``, but
    ``SharedMemory(create=True)`` also starts multiprocessing's resource
    tracker, which outlives the interpreter by a few milliseconds unless it
    is stopped and waited for here. Any other child still there (only on
    an error path: a worker ``close()`` never reached) is killed and waited
    for first, because a forked worker holds a copy of the tracker's pipe
    and the tracker ends only when every copy is closed.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in _children():
        if pid == tracker_pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # already waited for
            pass
    if tracker_pid is not None:
        tracker._stop()  # closes this process's end of the pipe, then waitpid


def peak_rss_mb() -> float:
    """``VmHWM`` of this process in MiB (its own peak, not inherited)."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the raw bytes of the given arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def state_digest(state) -> str:
    return digest(state.pi, state.phi_sum, state.theta)


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles, extremes and count of a sample."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "count": len(values),
    }


def tree_bytes(path: os.PathLike) -> int:
    """Size of a file, or of every file under a directory."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def state_ok(state) -> bool:
    """``ModelState.validate()`` passes and every entry is finite."""
    try:
        state.validate()
    except ValueError:
        return False
    return all(bool(np.isfinite(a).all()) for a in (state.pi, state.phi_sum, state.theta))
