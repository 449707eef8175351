"""The microbenchmark gate: same-run ratios held to fixed floors.

Every gated number is a ratio of two measurements taken inside ONE run on
ONE machine — fused over reference seconds, edge-list parse over mapped
CSR load, an artifact read whole and hashed over the same container
mapped, one resident set over another — so the verdict does not move
with the speed of the host and a missed floor can block a merge
(``repro bench`` exits 2). ``FLOORS`` is the only place a floor is
written down; a suite's runner (:mod:`repro.bench.kernbench`,
:mod:`repro.bench.storebench`) only measures. A floor is either an
acceptance bar an earlier issue fixed (mapped CSR > 5x the text parse
and no more resident than it) or was calibrated on the reference host as
at most 0.8x the worst of at least forty full-size runs (at least
worst/0.8 where lower is better); DESIGN.md section 12 has the runs.

A metric the report does not hold — another suite's, or a backend such
as ``numba`` that this host lacks or that has no declared floor — is
skipped, not failed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

SCHEMA = "repro-microbench/1"
SUITES = ("kernels", "store")

#: (suite, path into the report, which direction is better, floor)
FLOORS = (
    ("kernels", "kernels/phi_gradient/speedups/fused", "higher", 4.01),
    ("kernels", "kernels/phi_update/speedups/fused", "higher", 0.84),
    ("kernels", "kernels/theta_gradient/speedups/fused", "higher", 1.24),
    ("kernels", "kernels/link_probability/speedups/fused", "higher", 1.55),
    ("kernels", "sampler/end_to_end/speedups/fused", "higher", 1.36),
    ("store", "graph_load/csr_mmap/speedup", "higher", 5.0),
    ("store", "graph_load/csr_resident/speedup", "higher", 40.0),
    ("store", "graph_load/csr_mmap/rss_fraction", "lower", 1.0),
    ("store", "cold_start/mmap/speedup", "higher", 14.9),
    ("store", "cold_start/mmap/rss_fraction", "lower", 0.041),
)


def _lookup(report: dict[str, Any], path: str) -> Any:
    node: Any = report
    for key in path.split("/"):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def check(report: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per floor of the report's suite that the report measured.

    A row is ``ok`` when the value is on the right side of its floor
    (``>=`` for higher-is-better, ``<=`` for lower); callers decide what
    a missed floor costs.
    """
    rows = []
    for suite, path, better, floor in FLOORS:
        value = _lookup(report, path) if suite == report["suite"] else None
        if value is None:
            continue
        rows.append(
            {
                "metric": path,
                "value": float(value),
                "better": better,
                "floor": floor,
                "ok": value >= floor if better == "higher" else value <= floor,
            }
        )
    return rows


def save_report(report: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: str | Path) -> dict[str, Any]:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != SCHEMA or report.get("suite") not in SUITES:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r} and a suite in {SUITES}, got "
            f"{report.get('schema')!r} / {report.get('suite')!r}"
        )
    return report
