"""Table formatting and timing helpers for the benchmark harness."""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Iterable[str] | None = None,
    title: str = "",
) -> str:
    """Render rows of dicts as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    table = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def best_of(fn, repeats: int = 5, inner: int = 5) -> float:
    """Best-of-``repeats`` mean seconds of ``inner`` calls to ``fn``.

    Taking the minimum over repeats rejects scheduler noise; averaging the
    inner loop amortizes the perf_counter overhead for fast kernels.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best
