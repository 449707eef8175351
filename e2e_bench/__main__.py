"""The suite: every workload untraced, then traced, with cross-run checks.

    PYTHONPATH=src python -m e2e_bench --seed S [--workload NAME ...] [--smoke]

Each run is a fresh ``run.py`` process. The untraced run gives the
end-to-end metrics, the traced run the per-layer ones; the two must also
agree on every count and digest, which is the "same seed, same answer"
check. Prints every metric by name and unit, writes ``result.json``,
``trace_<workload>.json`` and the two run records per workload under
``e2e_bench/out/``, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from e2e_bench import spec

HERE = Path(__file__).resolve().parent
SCHEMA = "repro-e2e-bench/1"
#: a workload run is at most this long; the driver allows 180 s
RUN_TIMEOUT_S = 170


def run_child(workload: str, args, traced: bool, out: Path) -> dict:
    """One ``run.py`` process; returns its record plus the contract line."""
    tag = "traced" if traced else "untraced"
    detail = out / f"run_{workload}_{tag}.json"
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(traced)),
        "--detail", str(detail),
    ]  # fmt: skip
    if traced:
        command += ["--spans", str(out / f"trace_{workload}.json")]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} ({tag}) exited with code {done.returncode}")
    record = json.loads(detail.read_text())
    record["line"] = json.loads(done.stdout.strip().splitlines()[-1])
    return record


def cross_checks(untraced: dict, traced: dict) -> dict[str, bool]:
    """What two runs of one seed must agree on."""
    return {
        "untraced_correct": untraced["correct"],
        "traced_correct": traced["correct"],
        "digests_equal": untraced["detail"]["state_digest"] == traced["detail"]["state_digest"],
        "counts_equal": untraced["ops_attempted"] == traced["ops_attempted"]
        and untraced["ops_failed"] == traced["ops_failed"] == 0,
    }


def report(workload: str, entry: dict) -> None:
    print(f"\n== {workload}: {entry['ops_attempted']} operations, {entry['ops_failed']} failed")
    for name, cell in entry["end_to_end"].items():
        note = "" if cell["native"] else "   (headline repeated; not gated by agree.py)"
        print(f"  {name:<26}{cell['value']:>16.4f} {cell['unit']}{note}")
    for name, cell in entry["per_layer"].items():
        if cell["exercised"]:
            print(f"    {name:<56}{cell['value']:>18.4f} {cell['unit']}")
    for check, ok in entry["checks"].items():
        if not ok:
            print(f"  CHECK FAILED: {check}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2e_bench", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="+", choices=sorted(spec.WORKLOADS), metavar="NAME")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, under a minute")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    result = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    for workload in args.workload or list(spec.WORKLOADS):
        untraced = run_child(workload, args, False, args.out)
        traced = run_child(workload, args, True, args.out)
        layers = set(traced["exercised"])
        entry = {
            "ops_attempted": untraced["ops_attempted"],
            "ops_failed": untraced["ops_failed"],
            "end_to_end": {
                m.name: dict(untraced["metrics"][m.name], native=spec.is_native(m, workload))
                for m in spec.END_TO_END
            },
            "per_layer": {
                name: dict(cell, exercised=name in layers)
                for name, cell in traced["metrics"].items()
            },
            "checks": {
                **{f"untraced.{k}": v for k, v in untraced["checks"].items()},
                **{f"traced.{k}": v for k, v in traced["checks"].items()},
                **cross_checks(untraced, traced),
            },
            "detail": untraced["detail"],
        }
        result["workloads"][workload] = entry
        report(workload, entry)

    path = args.out / "result.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    failed = [
        f"{w}: {check}"
        for w, entry in result["workloads"].items()
        for check, ok in entry["checks"].items()
        if not ok
    ]
    print(f"\nwrote {path}" + (" (smoke sizes: not a baseline)" if args.smoke else ""))
    for line in failed:
        print(f"FAILED {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
