"""Benchmark harness: experiment definitions behind ``benchmarks/``.

Each figure/table of the paper has a function here that produces its rows
(:mod:`repro.bench.figures`); the pytest-benchmark files under
``benchmarks/`` call these and print the tables. Keeping the logic in the
package makes the experiments importable, unit-testable, and reusable from
the examples.
"""

from repro.bench.harness import format_table
from repro.bench import figures

__all__ = ["format_table", "figures"]
