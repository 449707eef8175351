"""Source-layout checks: what there is one of cannot quietly become two.

*One definition of an iteration's stage math.* The four engines
(core.sampler, parallel, dist.sampler, dist.mp) execute
:mod:`repro.core.stages`; none of them may call a training kernel or
resolve a backend itself.

*One trajectory.* Every random number of an iteration, the mini-batch
draw included, is keyed by what is computed:
:func:`repro.core.minibatch.block_rng` (re-seated by ``seat``) is the
only generator the engine modules draw from; they build and copy none.
``AMMSBSampler.run``'s helper thread, which draws the next iteration, is
one of two thread pools in the package.

*One on-disk format.* Model state is written by
:func:`repro.store.write_container` and by nothing else; ``.npz`` /
zip / zlib I/O lives in the graph interchange, the array provider and
the one legacy reader behind ``repro convert``.

*No source file is ignored.* ``.gitignore`` hides no module, present or
new, under ``src/`` or ``tests/``.
"""

from __future__ import annotations

import ast
import inspect
import shutil
import subprocess
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent
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


# -- one trajectory ------------------------------------------------------------

GENERATORS = {
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64",
}
#: copies of a generator (``ndarray.copy()`` is not one of these)
COPIES = {"copy.copy", "copy.deepcopy", "deepcopy"}


def _calls(tree: ast.AST, match) -> list[tuple[ast.Call, ast.stmt, str]]:
    """``(call, enclosing statement, enclosing def's name)`` for every call
    whose callee expression ``match`` accepts."""
    found = []

    def visit(node, stmt, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and match(child.func):
                found.append((child, stmt, func))
            visit(
                child,
                child if isinstance(child, ast.stmt) else stmt,
                child.name if isinstance(child, ast.FunctionDef) else func,
            )

    visit(tree, None, "")
    return found


def _generator_calls(tree: ast.AST) -> list[tuple[ast.Call, ast.stmt, str]]:
    """:func:`_calls` for every generator a module builds."""
    return _calls(
        tree,
        lambda f: (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")) in GENERATORS,
    )


def test_the_engines_draw_from_block_rng_only():
    """No engine module builds a generator: every draw comes from
    ``block_rng`` (``init_state`` seeds its own from ``config.seed``)."""
    built = set()
    for path in ENGINE_MODULES:
        for _call, stmt, _func in _generator_calls(ast.parse(path.read_text(encoding="utf-8"))):
            built.add((str(path.relative_to(SRC)), ast.unparse(stmt)))
    assert built == set()


def test_block_rng_is_the_only_per_block_generator():
    makers = set()
    for path in sorted(SRC.rglob("*.py")):
        for call, _stmt, func in _generator_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if ast.unparse(call.func).split(".")[-1] in ("Generator", "Philox"):
                makers.add((str(path.relative_to(SRC)), func))
    assert makers == {("core/minibatch.py", "block_rng")}


def test_the_engines_copy_no_generator():
    copies = set()
    for path in ENGINE_MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for _call, _stmt, func in _calls(tree, lambda f: ast.unparse(f) in COPIES):
            copies.add((str(path.relative_to(SRC)), func))
    assert copies == set()


def test_no_writer_records_an_rng_state():
    """A state and its iteration resume a run; only the legacy reader
    still names the stream state old files carry."""
    named = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value == "rng_state":
                named.add(str(path.relative_to(SRC)))
    assert named == {"legacy.py"}


def test_thread_pools_are_the_look_ahead_and_the_block_map():
    pools = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for _call, _stmt, func in _calls(
            tree, lambda f: ast.unparse(f).split(".")[-1] == "ThreadPoolExecutor"
        ):
            pools.add((str(path.relative_to(SRC)), func))
    assert pools == {("core/sampler.py", "run"), ("parallel/threadpool.py", "chunked_thread_map")}


# -- no source file is ignored ---------------------------------------------------


@pytest.mark.skipif(
    shutil.which("git") is None or not (REPO / ".git").exists(),
    reason="needs git and a git checkout",
)
def test_gitignore_hides_no_source_or_test_file():
    """An unanchored ``dist/`` once matched ``src/repro/dist/``: ``git add``
    skipped new modules of that package and ripgrep skipped all of it.
    Every module, and a new one in every directory, must be visible."""
    paths = []
    for top in ("src", "tests"):
        for path in sorted((REPO / top).rglob("*.py")):
            paths.append(path)
            paths.append(path.with_name("new_module.py"))
    names = sorted({str(p.relative_to(REPO)) for p in paths})
    result = subprocess.run(
        ["git", "check-ignore", "--no-index", "--stdin"],
        input="\n".join(names), cwd=REPO, capture_output=True, text=True,
    )
    assert result.returncode in (0, 1), result.stderr  # 1: nothing ignored
    assert result.stdout.split() == []
