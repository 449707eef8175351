"""In-memory span recorder for the traced run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the span that was open on the same thread when this one started (-1 for
a root), ``op`` the iteration, generation or engine-call id it belongs
to. Spans are kept in a list and written out when the run ends. A
layer's *self* time is its duration minus the part its child spans
cover.

Spans are recorded from the benchmark's side only: :meth:`Tracer.wrap`
rebinds one public attribute (an instance method, a class method, or a
name imported into a module) to a recording wrapper, and
:meth:`Tracer.restore` puts every original back. The wrappers stay
installed for the whole traced run and record only while
``tracer.enabled`` is set, so one process can time traced and untraced
blocks side by side — that ratio is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Optional

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = -1  # set by the driver loop: iteration / generation id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._t0 = _clock()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, _clock() - self._t0, 0.0, parent, self.op if op is None else op]
        with self._lock:  # the serve worker and the client both record
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            record[2] = _clock() - self._t0
            stack.pop()

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] += value

    # -- wrapping public surfaces -----------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
        thread_ops: bool = False,
    ) -> None:
        """Rebind ``owner.attr`` to a wrapper that records span ``name``.

        ``after(tracer, args, kwargs, result)`` runs inside the span's
        thread once the call returned, to record counts where the work
        happens. With ``thread_ops`` the span's op id is the ordinal of
        the call on its thread (the serve worker's engine calls, which no
        driver loop numbers).
        """
        original = getattr(owner, attr)
        local = self._local

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            op = None
            if thread_ops:
                op = local.calls = getattr(local, "calls", -1) + 1
            with self.span(name, op):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Rebind ``owner.attr`` to ``value`` until :meth:`restore`."""
        had_own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, getattr(owner, attr) if had_own else None, had_own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- aggregation ---------------------------------------------------------------

    def null_span_s(self, repeats: int = 2000) -> float:
        """Measured cost of one empty span (the floor of any span time)."""
        was, self.enabled = self.enabled, True
        keep = len(self.spans)
        start = _clock()
        for _ in range(repeats):
            with self.span("trace.null"):
                pass
        cost = (_clock() - start) / repeats
        del self.spans[keep:]
        self.enabled = was
        return cost

    def totals(self) -> "SpanTotals":
        return SpanTotals(self.spans)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


class SpanTotals:
    """Per-name count, total and self seconds over a span list."""

    def __init__(self, spans: list[list]) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent, _op), child in zip(spans, covered):
            self.count[name] += 1
            self.total[name] += end - start
            self.self_time[name] += (end - start) - child

    def ms(self, name: str, per: float) -> float:
        return 1e3 * self.total[name] / per if per else 0.0

    def self_ms(self, name: str, per: float) -> float:
        return 1e3 * self.self_time[name] / per if per else 0.0
