"""One definition of an iteration's stage math: a fifth copy cannot come back.

The four engines (core.sampler, parallel, dist.sampler, dist.mp) execute
:mod:`repro.core.stages`; none of them may call a training kernel or
resolve a backend itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
ENGINE_MODULES = sorted(
    [SRC / "core" / "sampler.py", SRC / "core" / "stages.py"]
    + list((SRC / "parallel").glob("*.py"))
    + list((SRC / "dist").glob("*.py"))
)
ONCE = (
    "phi_gradient_sum",
    "update_phi",
    "theta_gradient_weighted",
    "update_theta",
    "resolve_backend",
)


def modules_calling(name: str) -> list[str]:
    """Engine modules containing a call ``<anything>.name(...)``."""
    found = []
    for path in ENGINE_MODULES:
        calls = (
            node.func
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
        )
        if any(isinstance(f, ast.Attribute) and f.attr == name for f in calls):
            found.append(str(path.relative_to(SRC)))
    return found


@pytest.mark.parametrize("name", ONCE)
def test_called_from_the_stage_module_only(name):
    assert modules_calling(name) == ["core/stages.py"]
