#!/usr/bin/env python3
"""Compare two ``result.json`` files against the benchmark's own bounds.

    python3 e2e_bench/agree.py A.json B.json [--symmetric]

One row per workload x natively defined end-to-end metric: A, B, how much
worse B is than A as a share of A, and the metric's bound from
``BENCHMARK.json``. Exits non-zero when B is worse than A by more than
the bound on any row — parent (A) against change (B). With
``--symmetric`` a row also fails when B is *better* by more than the
bound: two result sets of the same code must agree both ways. When both
files ran the same seed and sizes, operation counts, state digests and
``heldout_perplexity`` must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def rows(a: dict, b: dict, metrics: list[dict], symmetric: bool):
    """Yields ``(workload, metric, a, b, worse_by, bound, verdict)``."""
    same_inputs = all(a[k] == b[k] for k in ("seed", "seconds", "smoke"))
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for m in metrics:
            ca, cb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            if not ca["native"]:
                continue
            va, vb = ca["value"], cb["value"]
            worse_by = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            if same_inputs and m["name"] == "heldout_perplexity":
                bound, ok = 0.0, va == vb
            else:
                bound = m["bound"]
                ok = worse_by <= bound and (not symmetric or worse_by >= -bound)
            yield workload, m["name"], va, vb, worse_by, bound, "ok" if ok else "OUTSIDE"
        if same_inputs:
            for what, xa, xb in (
                ("ops_attempted", wa["ops_attempted"], wb["ops_attempted"]),
                ("state_digest", wa["detail"]["state_digest"], wb["detail"]["state_digest"]),
            ):
                yield workload, what, xa, xb, 0.0, 0.0, "ok" if xa == xb else "OUTSIDE"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent / first result.json")
    parser.add_argument("b", type=Path, help="change / second result.json")
    parser.add_argument("--symmetric", action="store_true", help="same code: bound both ways")
    args = parser.parse_args(argv)
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]

    outside = 0
    print(f"{'workload':<20}{'metric':<24}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>8}")
    for workload, metric, va, vb, worse_by, bound, verdict in rows(a, b, metrics, args.symmetric):
        if isinstance(va, float):
            va, vb = f"{va:.4f}", f"{vb:.4f}"
        else:
            va, vb = str(va)[:12], str(vb)[:12]
        print(f"{workload:<20}{metric:<24}{va:>14}{vb:>14}{worse_by:>+10.1%}{bound:>8.0%}  {verdict}")
        outside += verdict != "ok"
    print(f"{outside} row(s) outside bounds")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
