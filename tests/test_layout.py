"""Source-layout checks: what there is one of cannot quietly become two.

*One definition of an iteration's stage math.* The four engines
(core.sampler, parallel, dist.sampler, dist.mp) execute
:mod:`repro.core.stages`; none of them may call a training kernel or
resolve a backend itself.

*One on-disk format.* Model state is written by
:func:`repro.store.write_container` and by nothing else; ``.npz`` /
zip / zlib I/O lives in the graph interchange, the array provider and
the one legacy reader behind ``repro convert``.
"""

from __future__ import annotations

import ast
import inspect
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


# -- one on-disk format --------------------------------------------------------

#: graph interchange, the array provider, the legacy reader behind `repro convert`
ARCHIVE_IO = {"graph/io.py", "store/provider.py", "legacy.py"}
#: the ingest journal frames its records with ``zlib.crc32``: not a model file
FRAME_CRC = "stream/journal.py"
#: the modules that persist model state
MODEL_WRITERS = ("core/checkpoint.py", "serve/artifact.py", "stream/tracking.py")
CREATES_A_FILE = {
    "open", "atomic_file", "save", "savez", "savez_compressed", "tofile",
    "open_memmap", "write_bytes", "write_text", "mkdir",
}


def _called_names(tree: ast.AST) -> set[str]:
    calls = (node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    return {f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "") for f in calls}


def _archive_io(tree: ast.AST) -> set[str]:
    """``zipfile`` / ``zlib`` imports and ``np.savez`` / ``np.savez_compressed``
    / ``np.load(`` calls in one module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names} & {"zipfile", "zlib"}
        elif isinstance(node, ast.ImportFrom) and node.module in ("zipfile", "zlib"):
            found.add(node.module)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("savez", "savez_compressed", "load")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            found.add(f"np.{node.func.attr}")
    return found


def test_archive_io_lives_in_the_interchange_the_provider_and_the_legacy_reader():
    users = {}
    for path in sorted(SRC.rglob("*.py")):
        found = _archive_io(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            users[str(path.relative_to(SRC))] = found
    assert users.pop(FRAME_CRC) == {"zlib"}
    assert set(users) == ARCHIVE_IO


@pytest.mark.parametrize("module", MODEL_WRITERS)
def test_write_container_is_the_only_writer_of_a_model_file(module):
    called = _called_names(ast.parse((SRC / module).read_text(encoding="utf-8")))
    assert "write_container" in called
    assert called & CREATES_A_FILE == set()


def test_the_format_knobs_and_the_npz_helpers_are_gone():
    from repro.core import checkpoint
    from repro.serve import artifact
    from repro.stream.tracking import MembershipHistory

    for writer in (
        checkpoint.save_checkpoint,
        checkpoint.save_state_checkpoint,
        artifact.save_artifact,
        artifact.export_artifact,
        MembershipHistory.save,
    ):
        assert {"format", "compress"} & set(inspect.signature(writer).parameters) == set()
    for module, names in (
        (checkpoint, ("_atomic_savez", "_open_archive", "_read_meta", "_read_array")),
        (artifact, ("save_artifact_v2", "SCHEMA", "SCHEMA_V2")),
    ):
        assert [name for name in names if hasattr(module, name)] == []
