"""Minimal deterministic discrete-event simulation engine.

The engine follows the classic event-queue + generator-coroutine design
(similar in spirit to SimPy, but dependency-free and deterministic):

- a :class:`Simulator` owns a priority queue of :class:`Event` objects and a
  simulated clock (``float`` seconds);
- a :class:`Process` wraps a generator; the generator *yields* waitables
  (:class:`Timeout`, :class:`Event`, other :class:`Process` instances, or a
  list of waitables meaning "wait for all") and is resumed when they fire;
- a :class:`Resource` provides FIFO mutual exclusion with ``capacity`` slots
  (used to model NIC serialization, DMA engines, CPU cores).

Determinism: events scheduled for the same timestamp are processed in
insertion order (a monotonically increasing sequence number breaks ties),
so repeated runs produce bit-identical clocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (double-trigger, etc.)."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; :meth:`trigger` marks it fired and schedules
    its callbacks. Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "name", "_fired", "_value", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._fired = False
        self._value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired yet")
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._fired:
            # Fire immediately but asynchronously (same timestamp) to keep
            # callback ordering deterministic.
            self.sim.schedule(0.0, lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def trigger(self, value: Any = None) -> None:
        if self._fired:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._fired = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.schedule(0.0, lambda fn=fn: fn(self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout:
    """Waitable representing a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


ProcessGen = Generator[Any, Any, Any]


class Process:
    """A simulated process driven by a generator.

    The generator may yield:

    - ``Timeout(dt)`` -- sleep for ``dt`` simulated seconds;
    - ``Event`` -- wait until the event fires; the event's value is sent
      back into the generator;
    - ``Process`` -- wait for another process to finish; its return value
      is sent back;
    - a ``list``/``tuple`` of the above -- wait for *all*; the list of
      values is sent back.

    When the generator returns, the process' completion event fires with
    the generator's return value.
    """

    __slots__ = ("sim", "name", "gen", "done", "_result")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.gen = gen
        self.done = Event(sim, name=f"{self.name}.done")
        self._result: Any = None
        sim.schedule(0.0, lambda: self._resume(None))

    @property
    def finished(self) -> bool:
        return self.done.fired

    @property
    def result(self) -> Any:
        if not self.done.fired:
            raise SimulationError(f"process {self.name!r} still running")
        return self.done.value

    def _resume(self, send_value: Any) -> None:
        try:
            target = self.gen.send(send_value)
        except StopIteration as stop:
            self.done.trigger(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Timeout):
            self.sim.schedule(target.delay, lambda: self._resume(None))
        elif isinstance(target, Event):
            target.add_callback(lambda ev: self._resume(ev.value))
        elif isinstance(target, Process):
            target.done.add_callback(lambda ev: self._resume(ev.value))
        elif isinstance(target, (list, tuple)):
            self._wait_all(list(target))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported waitable {target!r}"
            )

    def _wait_all(self, targets: list[Any]) -> None:
        events: list[Event] = []
        for t in targets:
            if isinstance(t, Timeout):
                ev = Event(self.sim, name="timeout")
                self.sim.schedule(t.delay, lambda ev=ev: ev.trigger(None))
                events.append(ev)
            elif isinstance(t, Event):
                events.append(t)
            elif isinstance(t, Process):
                events.append(t.done)
            else:
                raise SimulationError(f"unsupported waitable in all-of list: {t!r}")
        if not events:
            self.sim.schedule(0.0, lambda: self._resume([]))
            return
        remaining = {"n": sum(0 if e.fired else 1 for e in events)}
        if remaining["n"] == 0:
            self.sim.schedule(0.0, lambda: self._resume([e.value for e in events]))
            return

        def on_fire(_ev: Event) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self._resume([e.value for e in events])

        for e in events:
            if not e.fired:
                e.add_callback(on_fire)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done.fired else "running"
        return f"<Process {self.name!r} {state}>"


@dataclass(order=True)
class _QueuedEvent:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventQueue:
    """Deterministic priority queue of timestamped actions."""

    def __init__(self) -> None:
        self._heap: list[_QueuedEvent] = []
        self._seq = 0

    def push(self, time: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._heap, _QueuedEvent(time, self._seq, action))
        self._seq += 1

    def pop(self) -> _QueuedEvent:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def peek_time(self) -> float:
        return self._heap[0].time


class Simulator:
    """Owns the clock and the event queue; drives processes to completion."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action()`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._queue.push(self.now + delay, action)

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        return Process(self, gen, name=name)

    # -- running ---------------------------------------------------------

    def step(self) -> bool:
        """Process one queued action; returns False when the queue is empty."""
        if len(self._queue) == 0:
            return False
        item = self._queue.pop()
        if item.time < self.now - 1e-15:
            raise SimulationError("time went backwards")
        self.now = max(self.now, item.time)
        item.action()
        return True

    def run(self, until: Optional[float] = None, max_steps: int = 50_000_000) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final clock value.
        """
        steps = 0
        while len(self._queue) > 0:
            if until is not None and self._queue.peek_time() > until:
                self.now = until
                break
            if not self.step():
                break
            steps += 1
            if steps > max_steps:
                raise SimulationError(f"exceeded {max_steps} steps; livelock?")
        return self.now

    def run_process(self, gen: ProcessGen, name: str = "") -> Any:
        """Convenience: spawn a process, run to completion, return its result."""
        proc = self.process(gen, name=name)
        self.run()
        if not proc.finished:
            raise SimulationError(f"process {proc.name!r} deadlocked")
        return proc.result


class Resource:
    """FIFO resource with ``capacity`` concurrent holders.

    ``request()`` returns an :class:`Event` that fires when a slot is
    granted; the holder must call :meth:`release` exactly once.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: list[Event] = []

    def request(self) -> Event:
        ev = Event(self.sim, name=f"{self.name}.grant")
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim.schedule(0.0, lambda: ev.trigger(None))
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            ev = self._waiters.pop(0)
            self.sim.schedule(0.0, lambda: ev.trigger(None))
        else:
            self._in_use -= 1
