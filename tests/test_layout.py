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

*One fault-plan core.* :mod:`repro.faults` defines the plan's seeding,
``empty``, ``describe``, event lookup and range check once, and no other
module asks a plan whether it is empty: :func:`repro.faults.armed`
decides the bypass.

*Every public name is reached.* A public top-level function or class of
``src/repro`` is used by the program — ``src/``, ``benchmarks/``,
``examples/`` or ``e2e_bench/`` — outside its own definition and
outside a package's re-exports, or it is on :data:`UNREACHED` with its
reason; so is a public method of a public class, outside its own body,
or it is on :data:`UNREACHED_METHODS`. Names and options deleted because
nothing reached them stay deleted.
"""

from __future__ import annotations

import ast
import importlib
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


# -- one fault-plan core ------------------------------------------------------


def test_the_fault_plan_core_is_defined_once():
    tree = ast.parse((SRC / "faults.py").read_text(encoding="utf-8"))
    defs = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for name in ("empty", "describe", "scheduled", "_check_floors", "_draw", "armed"):
        assert defs.count(name) == 1, name
    seeded = {func for _call, _stmt, func in _generator_calls(tree)}
    assert seeded == {"__init__", "chaos_plan", "chaos_serve_plan"}  # streams; victims


def test_only_the_fault_module_asks_whether_a_plan_is_empty():
    askers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "empty"
                and not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
            ):
                askers.add(str(path.relative_to(SRC)))
    assert askers <= {"faults.py"}


# -- every public name is reached ------------------------------------------------

#: public names only tests reach, each with why it stays
UNREACHED = {
    "core/gradients.py:brute_force_z": "test oracle of the fused phi kernels",
    "sim/rdma.py:uncontended_read_time": "test oracle: closed-form latency of one RDMA read",
    "sim/rdma.py:uncontended_write_time": "test oracle: closed-form latency of one RDMA write",
    "graph/analysis.py:degree_gini": "stand-in validation statistic (DESIGN S17)",
    "graph/analysis.py:clustering_coefficient": "stand-in validation statistic (DESIGN S17)",
    "graph/analysis.py:connected_components": "stand-in validation statistic (DESIGN S17)",
    "sim/loadtest.py:run_all_to_all": "the load test grounding dkv_read_bw_loaded (DESIGN S14)",
    "sim/core.py:any_of": "simulator primitive racing an event against a timeout; only tests race",
    "core/general.py:GeneralMMSBSampler": "general MMSB, waiting for an engine and a CLI verb",
    "core/general.py:general_pair_z": "general MMSB, waiting for an engine and a CLI verb",
    "core/general.py:assortative_block_matrix": "general MMSB, waiting for an engine and a CLI verb",
    "bench/gate.py:load_report": "reads a committed bench report; only tests call it",
    "store/container.py:is_container": "container probe; only tests call it",
}
#: public methods of public classes only tests reach, each with why it stays
UNREACHED_METHODS = {
    "graph/graph.py:Graph.has_edge": "scalar y_ab test oracle; every engine asks links_from",
    "graph/graph.py:Graph.density": "graph statistic; only tests read it",
    "serve/artifact.py:ArtifactRegistry.latest": "registry probe; the server rolls back via previous",
    "serve/artifact.py:ModelArtifact.verify_deep": "deep check; publish_path loads verify='full'",
    "serve/server.py:ModelServer.rollback": "operator's manual rollback; no verb yet",
    "stream/delta.py:DeltaOverlay.pending_pairs": "view of the pending delta; only tests read it",
    "stream/journal.py:IngestJournal.n_segments": "segment-rotation probe; only tests read it",
    "stream/journal.py:IngestJournal.segment_paths": "segment-rotation probe; only tests read it",
    "stream/journal.py:QuarantineLog.extend": "batch form of append; only tests call it",
    "stream/source.py:FileTailSource.reset": "rewinds a tailed file; only tests replay one",
    "sim/rdma.py:RdmaEngine.read_sync": "blocking READ; the load test posts async",
    "sim/rdma.py:RdmaEngine.write_sync": "blocking WRITE; the load test posts async",
    "sim/network.py:Message.transfer_time": "per-message latency; only tests read it",
    "sim/loadtest.py:LoadTestResult.fabric_efficiency": "load-test ratio; only tests read it",
    "sim/core.py:Resource.use": "acquire-hold-release helper; only tests use it",
    "core/sampler.py:AMMSBSampler.run_until_converged": "convergence driver; no verb yet",
    "core/state.py:ModelState.phi_rows": "phi from pi and phi_sum; only tests read it",
    "core/perplexity.py:PerplexityEstimator.reset": "clears the sample average; only tests clear one",
    "core/kernels.py:KernelWorkspace.buffers": "snapshot for the dtype-tracking tests",
    "cluster/comm.py:Communicator.gather": "MPI collective; the engines reduce",
    "cluster/comm.py:Communicator.allreduce": "MPI collective; the engines reduce",
    "cluster/dkv.py:DKVTraffic.merge": "sums two batches' traffic; only tests do",
}
PROGRAM = ("src", "benchmarks", "examples", "e2e_bench")


def _public_definitions() -> dict[str, tuple[Path, str]]:
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{path.relative_to(SRC)}:{node.name}"] = (path, node.name)
    return found


def _public_methods() -> dict[str, tuple[Path, str]]:
    """``module:Class.method`` of every public method of a public class."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        owner = f"{node.name}.{item.name}"
                        found[f"{path.relative_to(SRC)}:{owner}"] = (path, owner)
    return found


def _owned_parts(stmt: ast.stmt) -> list[tuple[ast.AST, str]]:
    """A top-level statement cut by owner: a class's methods each own
    themselves (``Class.method``), the rest of it is the class's."""
    owner = getattr(stmt, "name", "")
    if not isinstance(stmt, ast.ClassDef):
        return [(stmt, owner)]
    return [
        (item, f"{owner}.{item.name}" if isinstance(item, ast.FunctionDef) else owner)
        for item in stmt.body
    ] + [(node, owner) for node in stmt.decorator_list + stmt.bases + stmt.keywords]


def _references() -> dict[str, set[tuple[Path, str]]]:
    """Every name the program uses, with ``(module, owner)`` of each use:
    the enclosing top-level definition, or ``Class.method`` inside a
    class's method. A package ``__init__`` re-exporting a name does not
    use it."""
    used: dict[str, set[tuple[Path, str]]] = {}
    for top in PROGRAM:
        for path in sorted((REPO / top).rglob("*.py")):
            reexports = path.name == "__init__.py"
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                if reexports and isinstance(stmt, (ast.ImportFrom, ast.Assign)):
                    continue
                for part, owner in _owned_parts(stmt):
                    for node in ast.walk(part):
                        if isinstance(node, ast.Name):
                            names = [node.id]
                        elif isinstance(node, ast.Attribute):
                            names = [node.attr]
                        elif isinstance(node, ast.ImportFrom):
                            names = [alias.name for alias in node.names]
                        else:
                            continue
                        for name in names:
                            used.setdefault(name, set()).add((path, owner))
    return used


def test_every_public_name_is_reached_or_on_the_list():
    used = _references()
    unreached = {
        key
        for key, (path, name) in _public_definitions().items()
        if not {
            (p, owner) for p, owner in used.get(name, set())
            if p != path or owner.split(".")[0] != name
        }
    }
    assert unreached == set(UNREACHED)


def test_every_public_method_is_reached_or_on_the_list():
    used = _references()
    unreached = {
        key
        for key, (path, owner) in _public_methods().items()
        if not used.get(owner.split(".")[1], set()) - {(path, owner)}
    }
    assert unreached == set(UNREACHED_METHODS)


#: ``(importable owner, names)`` deleted: second copies, or reached by their own tests alone
DELETED = (
    ("repro.dist.partition", ("AdjacencySlice", "adjacency_slice")),
    ("repro.dist.partition.WorkerShard", ("adjacency",)),
    ("repro.serve.artifact", ("export_state_artifact", "export_from_sampler")),
    ("repro.serve", ("export_state_artifact", "export_from_sampler")),
    ("repro.dist.mp.MultiprocessAMMSBSampler", (
        "save_checkpoint", "from_checkpoint", "_maybe_autocheckpoint",
        "publish_artifact", "_maybe_publish",
    )),
    ("repro.cluster.costmodel.CostModel", ("run_time",)),
    ("repro.sim.core.Simulator", ("timeout_event", "steps_executed")),
    ("repro.sim.core.Resource", ("in_use", "queue_length")),
    ("repro.sim.network.Nic", ("busy_fraction",)),
    ("repro.core.state.ModelState", ("kv_values", "set_kv_values")),
)
#: ``(callable, parameters)`` deleted: options nothing set, or a second route
DELETED_OPTIONS = (
    ("repro.dist.partition.partition_minibatch", ("graph", "with_adjacency")),
    ("repro.dist.master.MasterContext", ("ship_adjacency",)),
    ("repro.dist.worker.WorkerContext", ("n_vertices",)),
    ("repro.dist.worker.WorkerContext.sample_neighbors", ("links_against",)),
    ("repro.dist.mp.MultiprocessAMMSBSampler", (
        "checkpoint_path", "checkpoint_every", "publish_path", "publish_every",
    )),
    ("repro.cluster.dkv.DKVStore", (
        "request_timeout", "max_retries", "backoff_base", "backoff_cap",
    )),
    ("repro.core.minibatch.MinibatchSampler", ("nonlink_stratum_size",)),
    ("repro.core.svi.SVIAMMSB", ("schedule",)),
)


def _resolve(dotted: str):
    module, _, rest = dotted.partition(".")
    target = importlib.import_module(module)
    for part in rest.split(".") if rest else []:
        target = (
            getattr(target, part)
            if hasattr(target, part)
            else importlib.import_module(f"{target.__name__}.{part}")
        )
    return target


@pytest.mark.parametrize("owner, names", DELETED, ids=[owner for owner, _ in DELETED])
def test_the_deleted_names_stay_gone(owner, names):
    target = _resolve(owner)
    fields = getattr(target, "__dataclass_fields__", {})
    assert [n for n in names if hasattr(target, n) or n in fields] == []


@pytest.mark.parametrize(
    "owner, names", DELETED_OPTIONS, ids=[owner for owner, _ in DELETED_OPTIONS]
)
def test_the_deleted_options_stay_gone(owner, names):
    params = inspect.signature(_resolve(owner)).parameters
    assert [n for n in names if n in params] == []


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
