"""Source-layout checks: what there is one of cannot quietly become two.

*One definition of an iteration's stage math.* The four engines
(core.sampler, parallel, dist.sampler, dist.mp) execute
:mod:`repro.core.stages`; none of them may call a training kernel or
resolve a backend itself.

*One trajectory.* Every random number of an iteration, the mini-batch
draw included, is keyed by what is computed:
:func:`repro.core.minibatch.block_rng` (re-seated by ``seat``) is the
only generator the engine modules draw from; they build and copy none.
The block map (``parallel.threadpool``) is the package's one thread
pool; only the mp engine and ``AMMSBSampler.run``'s draw process fork.

*One on-disk format.* Model state is written by
:func:`repro.store.write_container` and by nothing else, and read from
one layout; ``.npz`` / zip / zlib I/O lives in the graph interchange
alone (the array providers parse a member's ``.npy`` header themselves).

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
reason; so is a public method of a public class, read as an attribute
(``x.method``) or imported outside its own body, or it is on
:data:`UNREACHED_METHODS`. Modules, names and options deleted because
nothing reached them stay deleted; a test-only oracle lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
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

#: the graph interchange; the array providers parse a member's ``.npy``
#: header themselves, ``np.load`` nowhere
ARCHIVE_IO = {"graph/io.py"}
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


def test_archive_io_lives_in_the_graph_interchange():
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
    """A state and its iteration resume a run; no module names the
    stream state old files carried."""
    named = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value == "rng_state":
                named.add(str(path.relative_to(SRC)))
    assert named == set()


def _modules_calling(match) -> set[tuple[str, str]]:
    """``(module, enclosing def)`` of every call whose callee ``match`` accepts."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for _call, _stmt, func in _calls(tree, match):
            found.add((str(path.relative_to(SRC)), func))
    return found


def test_the_block_map_is_the_only_thread_pool():
    pools = _modules_calling(lambda f: ast.unparse(f).split(".")[-1] == "ThreadPoolExecutor")
    assert pools == {("parallel/threadpool.py", "chunked_thread_map")}


#: what starts a process that runs this package's code: a fork, a
#: multiprocessing context, its ``Process`` and the pools
FORKS = {"fork", "forkpty", "get_context", "Process", "Pool", "ProcessPoolExecutor"}


def test_processes_are_started_by_the_mp_engine_and_the_draw_look_ahead():
    """Only the mp workers and the sequential sampler's draw process fork.
    (``sim.core``'s ``Process`` is a simulated one, called by its bare
    name; ``subprocess`` runs a fresh interpreter, not a fork.)"""
    forks = _modules_calling(
        lambda f: isinstance(f, ast.Attribute) and f.attr in FORKS
        or isinstance(f, ast.Name) and f.id in FORKS - {"Process"}
    )
    assert forks == {("dist/mp.py", "__init__"), ("core/sampler.py", "__init__")}


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

#: public names only tests reach, each with why it stays: none
UNREACHED: dict[str, str] = {}
#: public methods of public classes only tests reach, each with why it stays
UNREACHED_METHODS = {
    "serve/server.py:ModelServer.publish": (
        "swaps an in-memory artifact; the program publishes files (publish_path),"
        " the server tests swap without one"
    ),
    "core/kernels.py:KernelWorkspace.buffers": "snapshot for the dtype-tracking tests",
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


def _references(bare: bool = True) -> dict[str, set[tuple[Path, str]]]:
    """Every name the program uses, with ``(module, owner)`` of each use:
    the enclosing top-level definition, or ``Class.method`` inside a
    class's method. A package ``__init__`` re-exporting a name does not
    use it. ``bare=False`` counts attribute access (``x.name``) and
    imports only: a method is not reached by a local or a field that
    happens to share its spelling."""
    used: dict[str, set[tuple[Path, str]]] = {}
    for top in PROGRAM:
        for path in sorted((REPO / top).rglob("*.py")):
            reexports = path.name == "__init__.py"
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                if reexports and isinstance(stmt, (ast.ImportFrom, ast.Assign)):
                    continue
                for part, owner in _owned_parts(stmt):
                    for node in ast.walk(part):
                        if isinstance(node, ast.Name) and bare:
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
    assert unreached == set(UNREACHED) == set()


def test_every_public_method_is_reached_or_on_the_list():
    used = _references(bare=False)
    unreached = {
        key
        for key, (path, owner) in _public_methods().items()
        if not used.get(owner.split(".")[1], set()) - {(path, owner)}
    }
    assert unreached == set(UNREACHED_METHODS)


#: ``(importable owner, names)`` deleted: second copies, or reached by their own tests alone
DELETED = (
    ("repro.core.gradients", ("brute_force_z",)),
    ("repro.sim.rdma", ("uncontended_read_time", "uncontended_write_time")),
    ("repro.sim.rdma.RdmaEngine", ("read_sync", "write_sync", "batch")),
    ("repro.sim.rdma.RdmaOp", ("elapsed",)),
    ("repro.sim.network.Network", ("uncontended_transfer_time",)),
    ("repro.sim.network.Message", ("transfer_time",)),
    ("repro.sim.core", ("any_of", "all_of")),
    ("repro.bench.gate", ("load_report",)),
    ("repro.graph.graph", ("edge_key",)),
    ("repro.graph", ("edge_key",)),
    ("repro.graph.graph.Graph", ("has_edge", "density")),
    ("repro.store.container", (
        "is_container", "DIRECTORY_SCHEMA", "MANIFEST_NAME", "remove_container",
    )),
    ("repro.store", ("is_container", "remove_container")),
    ("repro.store.container.Container", ("content_version",)),
    ("repro.serve.artifact.ArtifactRegistry", ("latest",)),
    ("repro.serve.artifact.ModelArtifact", (
        "verify_deep", "top_communities", "top_weights", "_validate_members",
    )),
    ("repro.serve.server.ModelServer", ("rollback",)),
    ("repro.stream.delta.DeltaOverlay", ("pending_pairs",)),
    ("repro.stream.journal.IngestJournal", ("n_segments", "segment_paths")),
    ("repro.stream.journal.QuarantineLog", ("extend",)),
    ("repro.stream.source.FileTailSource", ("reset",)),
    ("repro.core.perplexity.PerplexityEstimator", ("reset",)),
    ("repro.core.sampler.AMMSBSampler", ("run_until_converged",)),
    ("repro.cluster.dkv.DKVTraffic", ("merge",)),
    ("repro.cluster.dkv.DKVStore", ("owner",)),
    ("repro.cluster.spec.ClusterSpec", ("max_communities",)),
    ("repro.dist.partition", ("AdjacencySlice", "adjacency_slice")),
    ("repro.dist.partition.WorkerShard", ("adjacency",)),
    ("repro.serve.artifact", (
        "export_state_artifact", "export_from_sampler", "_content_version",
        "_READABLE_FORMATS",
    )),
    ("repro.serve", ("export_state_artifact", "export_from_sampler")),
    ("repro.dist.mp.MultiprocessAMMSBSampler", (
        "save_checkpoint", "from_checkpoint", "_maybe_autocheckpoint",
        "publish_artifact", "_maybe_publish",
    )),
    ("repro.cluster.costmodel.CostModel", ("run_time",)),
    ("repro.sim.core.Simulator", ("timeout_event", "steps_executed")),
    ("repro.sim.core.Resource", ("in_use", "queue_length", "use")),
    ("repro.sim.network.Nic", ("busy_fraction",)),
    ("repro.core.state.ModelState", ("kv_values", "set_kv_values", "phi_rows")),
    ("repro.serve.metrics.ServerMetrics", (
        "record_cache", "record_eviction", "record_rejected", "record_hot_swap",
        "record_stale_eviction", "record_deadline_exceeded", "record_shed",
        "record_degraded_answer", "record_worker_respawn", "record_rollback",
        "record_publish_failure", "record_quarantine", "cache_hit_rate",
    )),
    ("repro.dist.mp.PipeTransport", ("_drain_results", "_expects")),
    ("repro.core.kernels.KernelBackend", ("warmup",)),
    ("repro.stream.trainer", ("_READABLE_VERSIONS",)),
)
#: ``(callable, parameters)`` deleted: options nothing set, or a second route
DELETED_OPTIONS = (
    ("repro.core.init.init_state_spectral", ("phi_mass", "power_iterations")),
    ("repro.core.init.spectral_memberships", ("power_iterations",)),
    ("repro.core.init.extend_state_informed", ("phi_mass",)),
    ("repro.faults.chaos_plan", ("stall_server", "stall_start", "stall_duration")),
    ("repro.faults.chaos_serve_plan", ("crash_batch", "spike_rate", "spike_seconds")),
    ("repro.graph.graph.Graph.from_csr", ("edges",)),
    ("repro.graph.io.save_csr", ("overwrite",)),
    ("repro.graph.io.load_csr", ("verify",)),
    ("repro.serve.artifact.export_artifact", ("node_ids", "top_k")),
    ("repro.serve.artifact.build_artifact", ("top_k",)),
    ("repro.core.mcmc_batch.BatchLangevinAMMSB.step", ("mh_sigma",)),
    ("repro.core.diagnostics.geweke_z", ("first", "last")),
    ("repro.cluster.dkv.dkv_bandwidth", ("depth", "params")),
    ("repro.stream.tracking.MembershipHistory.community_drift", ("generation",)),
    ("repro.stream.trainer.StreamTrainer.from_checkpoint", ("config",)),
    ("repro.stream.trainer.StreamTrainer.run", ("n_iterations",)),
    ("repro.bench.chaosbench.run_chaos_stream", ("n_iterations",)),
    ("repro.core.state.ModelState.validate", ("atol",)),
    ("repro.bench.storebench.measure_subprocess", ("timeout",)),
    ("repro.dist.partition.partition_minibatch", ("graph", "with_adjacency")),
    ("repro.dist.master.MasterContext", ("ship_adjacency",)),
    ("repro.dist.worker.WorkerContext", ("n_vertices",)),
    ("repro.dist.worker.WorkerContext.sample_neighbors", ("links_against",)),
    ("repro.dist.mp.MultiprocessAMMSBSampler", (
        "checkpoint_path", "checkpoint_every", "publish_path", "publish_every",
        "poll_interval", "shutdown_timeout",
    )),
    ("repro.dist.sampler.DistributedAMMSBSampler", ("comm_timeout",)),
    ("repro.cluster.dkv.DKVStore", (
        "request_timeout", "max_retries", "backoff_base", "backoff_cap",
    )),
    ("repro.core.minibatch.MinibatchSampler", ("nonlink_stratum_size",)),
    ("repro.core.svi.SVIAMMSB", ("schedule",)),
    ("repro.core.kernels.KernelBackend", ("warmup",)),
    ("repro.core.kernels.resolve_backend", ("allow_fallback",)),
)


def _resolve(dotted: str):
    """The object a dotted path names; a submodule wins over a package
    attribute of the same name (``repro.core.perplexity`` is a module and
    a function)."""
    module, _, rest = dotted.partition(".")
    target = importlib.import_module(module)
    for part in rest.split(".") if rest else []:
        if inspect.ismodule(target):
            name = f"{target.__name__}.{part}"
            try:
                target = importlib.import_module(name)
                continue
            except ModuleNotFoundError as exc:
                if exc.name != name:
                    raise
        target = getattr(target, part)
    return target


#: modules whose code moved into the tests that were its only users, or
#: whose one used behaviour moved into its user (the barrier deadline
#: into the simulated clock), or that nothing in the program reached (the
#: general MMSB). The reader of pre-container ``.npz`` model files stays
#: gone by the archive-I/O check above, the JIT kernel backend by
#: :func:`test_the_kernel_backends_are_reference_and_fused`.
DELETED_MODULES = (
    "repro.graph.analysis", "repro.sim.loadtest", "repro.cluster.comm", "repro.core.general",
)


@pytest.mark.parametrize("module", DELETED_MODULES)
def test_the_deleted_modules_stay_gone(module):
    assert importlib.util.find_spec(module) is None


def test_the_kernel_backends_are_reference_and_fused():
    """One module defines them; the JIT backend this host could not import
    (and so never measure) is gone with its module."""
    from repro.core.kernels import available_backends

    assert sorted(p.name for p in (SRC / "core").glob("kernels*.py")) == ["kernels.py"]
    assert available_backends() == ["fused", "reference"]


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
