#!/usr/bin/env python3
"""Run one workload once, in this process, and print its metrics.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
``--detail FILE`` also writes the run's digests, counts, checks and
distributions (and ``--spans FILE`` the traced run's spans) for the
suite in ``__main__.py``. A fresh process per run keeps ``setup_s`` and
``peak_rss_mb`` clean.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread per process, fixed before numpy loads: the thread
# budget is the two cores, and train_mp already fills them with workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# Run as a script, sys.path starts with this directory, where trace.py would
# shadow the standard library's; import through the package instead.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from e2e_bench import spec  # noqa: E402
from e2e_bench.trace import Tracer  # noqa: E402
from e2e_bench.util import (  # noqa: E402
    Outcome,
    host_factor,
    host_readings,
    peak_rss_mb,
    process_age_s,
    reap_children,
)

OUT_DIR = Path(_ROOT) / "e2e_bench" / "out"

_libc = ctypes.CDLL("libc.so.6")
_libc.malloc_trim.argtypes = [ctypes.c_size_t]
_libc.malloc_trim.restype = ctypes.c_int


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool):
    """Returns ``(outcome, setup_s, tracer)`` for one run of ``name``.

    Set-up (input generation, engine construction, warm-up) runs
    ``size.setups`` times and only the last one is kept: ``setup_s`` is
    everything that happened once before the first timed operation
    (interpreter start, imports) plus the *median* set-up. On this host a
    process's first touch of fresh memory can triple one set-up; the median
    of three is what a change to the set-up work would move. Like every
    reported time it is divided by the host factor (``util.HostProbe``),
    here the median of the readings taken before, between the phases of and
    after each set-up.
    """
    size = (spec.SMOKE if smoke else spec.FULL)[name]
    if not smoke:
        size = size.scaled(seconds / spec.RUN_SECONDS)
    # train.py, stream.py or serve.py: each has a Workload(size, seed, workdir)
    module = importlib.import_module(f"e2e_bench.{name.split('_')[0]}")
    tracer = Tracer() if traced else None
    # scratch files stay inside the checkout and go when the run ends
    scratch = OUT_DIR / f"tmp-{name}-{os.getpid()}"
    try:
        laps = []
        host_factor()
        workload = None
        # a traced run reports no setup_s, so it sets up once
        for attempt in range(1 if traced else size.setups):
            if workload is not None:
                # Release the previous set-up first and hand its heap back, so
                # that the one that is kept starts where a single set-up would:
                # otherwise peak_rss_mb depends on how three set-ups happened
                # to fragment the heap (serve_mixed: 360-540 MiB).
                workload.close()
                workload = None
                gc.collect()
                _libc.malloc_trim(0)
                shutil.rmtree(scratch)
            workdir = scratch / str(attempt)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            workload = module.Workload(size, seed, workdir)
            laps.append(time.perf_counter() - start)
            host_factor()
        factors = list(host_readings)
        raw_setup_s = process_age_s() - sum(laps) + statistics.median(laps)
        setup_s = raw_setup_s / statistics.median(factors)
        outcome = workload.measure(tracer)  # closes the workload
        outcome.detail.update(
            setup_laps_s=laps, raw_setup_s=raw_setup_s, setup_host_factors=factors
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return outcome, setup_s, tracer


def end_to_end(outcome: Outcome, setup_s: float) -> dict[str, dict]:
    """Every end-to-end metric for this workload.

    A cell the workload does not define repeats its headline number in
    the cell's unit (operations per second, or seconds per operation), so
    it moves exactly when the headline moves and gates nothing new.
    """
    measured = dict(outcome.native, setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    per_op = {"1/s": outcome.ops_per_s, "s": 1.0 / outcome.ops_per_s, "ms": 1e3 / outcome.ops_per_s}
    return {
        m.name: {"value": measured[m.name] if m.name in measured else per_op[m.unit], "unit": m.unit}
        for m in spec.END_TO_END
    }


def per_layer(outcome: Outcome, tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric. A layer the workload never enters reads as
    the tracer's measured empty-span time where the unit is a duration, so
    that every reported time is a measurement, and as zero otherwise."""
    floor_s = tracer.null_span_s()
    floor = {"s": floor_s, "ms": 1e3 * floor_s, "ns": 1e9 * floor_s}
    return {
        name: {"value": float(outcome.layers.get(name, floor.get(unit, 0.0))), "unit": unit}
        for name, unit, _better, _moves in spec.PER_LAYER
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; never a baseline")
    parser.add_argument("--detail", type=Path, help="write the run's full record here")
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    outcome, setup_s, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    metrics = (
        per_layer(outcome, tracer)
        if tracer is not None
        else end_to_end(outcome, setup_s)
    )
    correct = all(outcome.checks.values()) and outcome.failed == 0
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "traced": tracer is not None,
                    "smoke": args.smoke,
                    "correct": correct,
                    "ops_attempted": outcome.attempted,
                    "ops_failed": outcome.failed,
                    "checks": outcome.checks,
                    "metrics": metrics,
                    "exercised": sorted(outcome.layers),
                    "detail": outcome.detail,
                },
                indent=1,
            )
            + "\n"
        )
    if args.spans is not None and tracer is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps(tracer.dump()) + "\n")
    for check, ok in outcome.checks.items():
        if not ok:
            print(f"check failed: {check}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        # on every path out: no process of this run outlives it
        reap_children()
    sys.exit(code)
