"""Immutable, versioned model artifacts for online serving.

A trained posterior (``pi``/``theta``) is only useful if it can answer
queries without the training stack; a :class:`ModelArtifact` is the
self-contained, read-only export that the serving layer loads:

- the full :class:`~repro.config.AMMSBConfig` (so scoring uses the same
  ``delta`` / ``kernel_backend`` / dtype the run trained with);
- ``pi`` (row-renormalized at export time, so queries never see float
  drift from the sampler's incremental renormalizations), ``theta`` and
  the derived ``beta``;
- a node-id mapping (row index -> external vertex id), so queries speak
  the graph's ids even when the trainer compacted them;
- precomputed top-``K`` community assignments per node (indices +
  weights), the membership query's hot path.

No graph object is needed to load or serve an artifact.

Durability and identity: artifacts are written with the same atomic
tmp + fsync + ``os.replace`` machinery as checkpoints
(:mod:`repro.store.atomic`), and carry a deterministic content
``version`` — a SHA-256 over the model arrays and config — so two
exports of the same posterior get the same version and a hot-swapped
server can report exactly which model answered. Anything wrong at load
time surfaces as a typed :class:`ArtifactError` naming the path.

Integrity: :func:`load_artifact` *verifies* by default — it recomputes
the SHA-256 content version from the loaded arrays and the stored config
string and compares it to the recorded ``artifact_version``, on top of
the archive's per-member CRC and :meth:`ModelArtifact.validate`. Damage
of any kind (truncation, flipped bytes, or a structurally valid payload
that silently differs from what was exported) raises
:class:`ArtifactCorrupt`; callers that serve traffic quarantine the file
(:func:`quarantine_artifact`) and fall back to the last-known-good entry
tracked in an :class:`ArtifactRegistry`.

Two on-disk formats coexist (DESIGN.md section 10):

- **v1** — a compressed ``.npz`` archive. Simple and compact, but a
  load must decompress every array into fresh resident memory, so
  cold start and RSS are both O(artifact size).
- **v2** — a :mod:`repro.store` container directory: one raw ``.npy``
  per array plus a sha256-sealed ``manifest.json``. Loads memory-map
  the arrays read-only (default provider ``mmap``), so a query server
  answers its first request after O(manifest) work with only the
  touched pages resident; per-array digests are verified lazily on
  first touch, or all at once with ``verify="full"`` (what
  ``ModelServer.publish_path`` uses, so corruption is caught *before*
  a swap, never mid-query).

:func:`save_artifact` picks the format from the path (``.npz`` -> v1,
anything else -> v2 directory); :func:`load_artifact` auto-detects from
what is on disk (a container directory loads as v2 whatever its name).

The stream tier writes neither: each generation persists ONE sealed v2
container that is its checkpoint *and* its artifact
(:func:`export_state_artifact` — the state's own ``pi`` rows plus
``phi_sum``, no renormalized copy) and publishes it by hard link
(:func:`repro.store.link_container`).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union
from zipfile import BadZipFile

import numpy as np

from repro.config import AMMSBConfig
from repro.core.checkpoint import (
    _atomic_savez,
    _config_from_json,
    _config_to_json,
    _open_archive,
    CheckpointError,
    STATE_KIND,
)
from repro.core.state import ModelState
from repro.store import (
    Container,
    StoreCorrupt,
    StoreError,
    is_container,
    write_container,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.core.sampler import AMMSBSampler

PathLike = Union[str, Path]

SCHEMA = "repro-serve-artifact/1"
FORMAT_VERSION = 1

#: v2 directory format: store-container kind tag.
SCHEMA_V2 = "repro-serve-artifact/2"
FORMAT_VERSION_V2 = 2

_ARRAY_KEYS = ("pi", "theta", "beta", "node_ids", "top_communities", "top_weights")
#: the members derived at export time (everything but the posterior itself)
_SERVING_KEYS = _ARRAY_KEYS[2:]

#: default number of precomputed top communities per node.
DEFAULT_TOP_K = 8

#: block size of the walks over ``pi`` (hashing, top-K, row checks)
_BLOCK_BYTES = 1 << 20
_ROWS_INVALID = "pi rows must be normalized and non-negative"


class ArtifactError(ValueError):
    """An artifact could not be read or fails validation (typed, with path)."""

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"artifact {self.path}: {reason}")


class ArtifactCorrupt(ArtifactError):
    """The file exists and parses as *something*, but its payload is
    damaged: CRC/decompression failure, broken model invariants, or a
    content-version mismatch against the recorded SHA-256. The standard
    response is :func:`quarantine_artifact` + last-known-good fallback,
    never serving from it."""


def _row_blocks(arr: np.ndarray):
    """``(lo, hi, rows)`` over ``arr`` in C-contiguous blocks of at most
    ~1 MiB (a view where ``arr`` is contiguous, a bounded copy otherwise)."""
    arr = np.atleast_1d(arr)
    rows = max(1, _BLOCK_BYTES // max(1, arr[:1].nbytes))
    for lo in range(0, arr.shape[0], rows):
        yield lo, min(lo + rows, arr.shape[0]), np.ascontiguousarray(arr[lo : lo + rows])


def _content_version(
    config_json: str,
    pi: np.ndarray,
    theta: np.ndarray,
    on_pi_block: Optional[Callable[[int, int, np.ndarray], None]] = None,
) -> str:
    """Deterministic content id: same posterior + config -> same version.

    The arrays' buffers are fed to the hash block by block (no
    ``tobytes()`` copy of an N*K array). ``on_pi_block(lo, hi, rows)`` sees
    each ``pi`` block while it is cache-hot — how the stream's writer
    derives the serving members and checks the rows in the same walk.
    """
    h = hashlib.sha256()
    h.update(config_json.encode())
    for arr, visit in ((pi, on_pi_block), (theta, None)):
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        for lo, hi, block in _row_blocks(arr):
            h.update(block)
            if visit is not None:
                visit(lo, hi, block)
    return h.hexdigest()[:16]


def _rows_valid(pi: np.ndarray) -> bool:
    """Rows non-negative and normalized within the serving tolerance."""
    atol = 1e-6 if pi.dtype == np.float64 else 1e-3
    return not np.any(pi < 0) and bool(np.allclose(pi.sum(axis=1), 1.0, atol=atol))


def _top_communities(pi: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``top_k`` community indices and weights, weight-sorted."""
    k = pi.shape[1]
    top_k = min(int(top_k), k)
    if top_k < k:
        idx = np.argpartition(pi, k - top_k, axis=1)[:, k - top_k:]
    else:
        idx = np.broadcast_to(np.arange(k), pi.shape).copy()
    w = np.take_along_axis(pi, idx, axis=1)
    order = np.argsort(-w, axis=1, kind="stable")
    return (
        np.take_along_axis(idx, order, axis=1).astype(np.int32),
        np.take_along_axis(w, order, axis=1),
    )


@dataclass(frozen=True)
class ModelArtifact:
    """A loaded (or freshly built) serving snapshot. Treat as immutable.

    Attributes:
        config: the training configuration (scoring reuses its ``delta``
            and ``kernel_backend``).
        pi: (N, K) row-normalized memberships.
        theta: (K, 2) global reparameterization.
        beta: (K,) community strengths derived from theta at export time.
        node_ids: (N,) external vertex id per row (identity by default).
        top_communities: (N, top_k) int32 community indices, strongest first.
        top_weights: (N, top_k) the matching membership weights.
        iteration: training iteration the snapshot was taken at.
        version: deterministic content hash (16 hex chars).
    """

    config: AMMSBConfig
    pi: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    node_ids: np.ndarray
    top_communities: np.ndarray
    top_weights: np.ndarray
    iteration: int = 0
    version: str = ""
    _row_index: dict = field(default_factory=dict, repr=False, compare=False)
    # Backing store container for v2 (mmap) artifacts; None for v1 /
    # in-memory builds. Enables verify_deep() and nbytes() without
    # re-opening the directory.
    _container: Optional[Container] = field(default=None, repr=False, compare=False)
    # Memoized _identity_ids() answer — the check is an O(N) scan, far
    # too hot to repeat per rows_of() call on a mapped million-row map.
    _ids_identity: Optional[bool] = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return int(self.pi.shape[0])

    @property
    def n_communities(self) -> int:
        return int(self.pi.shape[1])

    def row_of(self, node_id: int) -> int:
        """Row index of an external node id; identity mappings need no index."""
        if self._identity_ids():
            if not 0 <= int(node_id) < self.n_nodes:
                raise KeyError(f"unknown node id {node_id!r}")
            return int(node_id)
        if not self._row_index:
            self._row_index.update(
                (int(v), i) for i, v in enumerate(self.node_ids)
            )
        try:
            return self._row_index[int(node_id)]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def rows_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`row_of`; identity mappings skip the lookup."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if self._identity_ids():
            if node_ids.size and (
                node_ids.min() < 0 or node_ids.max() >= self.n_nodes
            ):
                raise KeyError("node id out of range")
            return node_ids
        return np.array(
            [self.row_of(v) for v in node_ids.reshape(-1)], dtype=np.int64
        ).reshape(node_ids.shape)

    def _identity_ids(self) -> bool:
        if self._ids_identity is None:
            ids = self.node_ids
            answer = bool(
                ids.size == self.n_nodes
                and ids.dtype.kind == "i"
                and ids[0] == 0
                and ids[-1] == self.n_nodes - 1
                and np.array_equal(ids, np.arange(self.n_nodes))
            )
            object.__setattr__(self, "_ids_identity", answer)
        return self._ids_identity

    def nbytes(self) -> int:
        """Total model payload bytes (manifest-sourced for v2 artifacts)."""
        if self._container is not None:
            return self._container.nbytes()
        return sum(
            int(np.asarray(getattr(self, key)).nbytes) for key in _ARRAY_KEYS
        )

    def verify_deep(self) -> None:
        """Full integrity pass: every per-array digest + model invariants.

        For v2 (container-backed) artifacts this forces the lazy sha256
        digests that the default load defers; for v1 / in-memory
        artifacts it is just :meth:`validate`. Raises
        :class:`ArtifactCorrupt` on any damage.
        """
        source = self._container.path if self._container is not None else "<memory>"
        if self._container is not None:
            try:
                self._container.verify_all()
            except StoreCorrupt as exc:
                raise ArtifactCorrupt(source, exc.reason) from exc
        try:
            self.validate()
        except ValueError as exc:
            raise ArtifactCorrupt(source, f"invalid snapshot ({exc})") from exc

    def validate(self) -> None:
        """Raise ``ValueError`` when an invariant is broken."""
        if not _rows_valid(self.pi):
            raise ValueError(_ROWS_INVALID)
        self._validate_members()

    def _validate_members(self) -> None:
        """Every invariant of :meth:`validate` except the O(N*K) row check."""
        n, k = self.pi.shape
        if self.theta.shape != (k, 2) or np.any(self.theta <= 0):
            raise ValueError("theta must be (K, 2) positive")
        if self.beta.shape != (k,) or np.any(self.beta <= 0) or np.any(self.beta >= 1):
            raise ValueError("beta must be (K,) in (0, 1)")
        # 0..N-1 in order is unique by construction (memoized O(N) compare)
        if self.node_ids.shape != (n,) or not (
            (n > 0 and self._identity_ids()) or len(np.unique(self.node_ids)) == n
        ):
            raise ValueError("node_ids must be (N,) unique")
        if self.top_communities.shape != self.top_weights.shape:
            raise ValueError("top_communities/top_weights shape mismatch")
        if self.top_communities.shape[0] != n or self.top_communities.shape[1] > k:
            raise ValueError("top_communities must be (N, top_k<=K)")


def build_artifact(
    state: ModelState,
    config: AMMSBConfig,
    iteration: int = 0,
    node_ids: Optional[np.ndarray] = None,
    top_k: int = DEFAULT_TOP_K,
) -> ModelArtifact:
    """Snapshot a model state into an in-memory :class:`ModelArtifact`.

    ``pi`` is copied and re-normalized row-wise, so the artifact stays
    valid even if the caller keeps mutating the state.
    """
    pi = np.asarray(state.pi, dtype=state.pi.dtype).copy()
    sums = pi.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("pi rows must have positive sums")
    pi /= sums
    theta = np.asarray(state.theta, dtype=np.float64).copy()
    beta = theta[:, 1] / theta.sum(axis=1)
    n = pi.shape[0]
    if node_ids is None:
        node_ids = np.arange(n, dtype=np.int64)
    else:
        node_ids = np.asarray(node_ids, dtype=np.int64).copy()
        if node_ids.shape != (n,):
            raise ValueError("node_ids must have one entry per pi row")
    top_idx, top_w = _top_communities(pi, top_k)
    config_json = _config_to_json(config)
    artifact = ModelArtifact(
        config=config,
        pi=pi,
        theta=theta,
        beta=beta,
        node_ids=node_ids,
        top_communities=top_idx,
        top_weights=top_w,
        iteration=int(iteration),
        version=_content_version(config_json, pi, theta),
    )
    artifact.validate()
    return artifact


def export_artifact(
    path: PathLike,
    state: ModelState,
    config: AMMSBConfig,
    iteration: int = 0,
    node_ids: Optional[np.ndarray] = None,
    top_k: int = DEFAULT_TOP_K,
) -> Path:
    """Atomically write a serving artifact for a model state; returns the path."""
    artifact = build_artifact(
        state, config, iteration=iteration, node_ids=node_ids, top_k=top_k
    )
    return save_artifact(path, artifact)


def export_state_artifact(
    path: PathLike,
    state: ModelState,
    config: AMMSBConfig,
    iteration: int = 0,
    node_ids: Optional[np.ndarray] = None,
    top_k: int = DEFAULT_TOP_K,
) -> Path:
    """Write ONE sealed container that is both the checkpoint of ``state``
    and its serving artifact — what a stream generation persists.

    Members: ``pi`` (the state's own rows — not copied, not
    renormalized, so the served ``link_probability`` equals the
    trainer's bit for bit), ``phi_sum``, ``theta``, and the serving
    members ``beta``, ``node_ids``, ``top_communities``, ``top_weights``;
    ``iteration``, config and the content version go in the sealed meta.
    :func:`repro.core.checkpoint.load_state_checkpoint` resumes from it,
    :func:`load_artifact` serves from it (or from a
    :func:`repro.store.link_container` of it). The serving members, the
    content version and :meth:`ModelArtifact.validate`'s row checks come
    out of one block-wise walk over ``state.pi``; no second N*K array
    exists at any point.

    Raises:
        ArtifactError: the state's rows fail the serving invariants (or
            ``node_ids`` is unusable). The container is still written —
            as a checkpoint only (kind :data:`STATE_KIND`, no serving
            members), which :func:`load_artifact` refuses — so the
            caller keeps its durable state and skips the publish.
    """
    pi, theta = state.pi, state.theta
    n, k = pi.shape
    top_k = min(int(top_k), k)
    top_idx = np.empty((n, top_k), dtype=np.int32)
    top_w = np.empty((n, top_k), dtype=pi.dtype)
    rows_ok = True

    def members_and_checks(lo: int, hi: int, rows: np.ndarray) -> None:
        nonlocal rows_ok
        top_idx[lo:hi], top_w[lo:hi] = _top_communities(rows, top_k)
        rows_ok = rows_ok and _rows_valid(rows)

    version = _content_version(
        _config_to_json(config), pi, theta, on_pi_block=members_and_checks
    )
    artifact = ModelArtifact(
        config=config,
        pi=pi,
        theta=theta,
        beta=state.beta,
        node_ids=(
            np.arange(n, dtype=np.int64)
            if node_ids is None
            else np.asarray(node_ids, dtype=np.int64)
        ),
        top_communities=top_idx,
        top_weights=top_w,
        iteration=int(iteration),
        version=version,
    )
    problem = None if rows_ok else _ROWS_INVALID
    if problem is None:
        try:
            artifact._validate_members()
        except ValueError as exc:
            problem = str(exc)
    arrays = {"pi": pi, "phi_sum": state.phi_sum, "theta": theta}
    if problem is None:
        arrays.update({key: getattr(artifact, key) for key in _SERVING_KEYS})
    write_container(
        path,
        arrays,
        kind=SCHEMA_V2 if problem is None else STATE_KIND,
        meta=_meta_v2(artifact),
    )
    if problem is not None:
        raise ArtifactError(path, f"invalid snapshot ({problem}); written as a checkpoint only")
    return Path(path)


def export_from_sampler(
    path: PathLike,
    sampler: "AMMSBSampler",
    node_ids: Optional[np.ndarray] = None,
    top_k: int = DEFAULT_TOP_K,
) -> Path:
    """Export the current posterior of a (possibly mid-run) sampler."""
    return export_artifact(
        path,
        sampler.state,
        sampler.config,
        iteration=sampler.iteration,
        node_ids=node_ids,
        top_k=top_k,
    )


def save_artifact(path: PathLike, artifact: ModelArtifact, format: str = "auto") -> Path:
    """Atomically write an in-memory artifact; returns the final path.

    ``format="auto"`` (default) picks from the path: a ``.npz`` suffix
    writes the compressed v1 archive (appended to suffix-less paths for
    backward compatibility when forcing ``format="npz"``), anything else
    writes the v2 mmap-ready container directory. Pass ``"npz"`` or
    ``"dir"`` to force a format regardless of suffix.
    """
    if format not in ("auto", "npz", "dir"):
        raise ValueError(f"format must be 'auto', 'npz' or 'dir', got {format!r}")
    if format == "auto":
        format = "npz" if Path(path).suffix == ".npz" else "dir"
    if format == "dir":
        return save_artifact_v2(path, artifact)
    meta = {
        "schema": SCHEMA,
        "version": FORMAT_VERSION,
        "artifact_version": artifact.version,
        "iteration": int(artifact.iteration),
        "config": _config_to_json(artifact.config),
    }
    return _atomic_savez(
        path,
        _meta=json.dumps(meta),
        pi=artifact.pi,
        theta=artifact.theta,
        beta=artifact.beta,
        node_ids=artifact.node_ids,
        top_communities=artifact.top_communities,
        top_weights=artifact.top_weights,
    )


def save_artifact_v2(path: PathLike, artifact: ModelArtifact) -> Path:
    """Write the v2 directory format: raw ``.npy`` arrays + sealed manifest.

    Uncompressed on purpose — the arrays are page-aligned ``np.save``
    payloads a reader can memory-map directly. Atomicity (tmp dir +
    fsync + rename) and per-array sha256 digests come from
    :func:`repro.store.write_container`.
    """
    return write_container(
        path,
        {key: getattr(artifact, key) for key in _ARRAY_KEYS},
        kind=SCHEMA_V2,
        meta=_meta_v2(artifact),
    )


def _meta_v2(artifact: ModelArtifact) -> dict:
    return {
        "format_version": FORMAT_VERSION_V2,
        "artifact_version": artifact.version,
        "iteration": int(artifact.iteration),
        "config": _config_to_json(artifact.config),
    }


def load_artifact(
    path: PathLike,
    verify: Union[bool, str] = True,
    provider: Union[str, None] = "mmap",
) -> ModelArtifact:
    """Load a serving artifact; no graph object required.

    v2 container directories and legacy v1 ``.npz`` archives are
    auto-detected; ``provider`` applies to v2 only (``"mmap"`` default:
    read-only maps, MB-scale RSS; ``"resident"``: full read).

    Verification levels:

    - ``verify=True`` (default): v1 recomputes the SHA-256 content
      version from the loaded arrays (it already paid the full read);
      v2 checks the sealed manifest + tiny arrays eagerly and defers
      per-array digests to first touch, keeping the load O(manifest).
    - ``verify="full"``: v2 additionally digests every array and runs
      the complete invariant + content-version check up front — what
      ``ModelServer.publish_path`` uses so damage surfaces as
      :class:`ArtifactCorrupt` *before* a swap, never mid-query.
      Equivalent to ``True`` for v1.
    - ``verify=False``: structural checks only.

    Raises:
        ArtifactCorrupt: damaged payload — CRC/decompression failure
            while reading arrays, digest or content-version mismatch,
            an edited manifest, or broken model invariants.
        ArtifactError: everything else — missing file, wrong schema or
            format version, missing arrays, unreadable metadata.
    """
    if verify not in (True, False, "full"):
        raise ValueError(f"verify must be True, False or 'full', got {verify!r}")
    p = Path(path)
    if is_container(p):
        return _load_artifact_v2(p, verify=verify, provider=provider)
    try:
        archive = _open_archive(p)
    except CheckpointError as exc:
        # A file that exists but will not open is damage (truncation,
        # garbage bytes); a missing file is an operator error.
        if p.exists():
            raise ArtifactCorrupt(p, exc.reason) from exc
        raise ArtifactError(p, exc.reason) from exc
    with archive as data:
        try:
            meta = json.loads(str(data["_meta"]))
        except KeyError as exc:
            raise ArtifactError(p, "missing _meta record") from exc
        except (json.JSONDecodeError, ValueError) as exc:
            raise ArtifactError(p, f"unreadable metadata ({exc})") from exc
        except (BadZipFile, zlib.error, OSError, EOFError) as exc:
            raise ArtifactCorrupt(p, f"corrupt metadata record ({exc})") from exc
        if meta.get("schema") != SCHEMA:
            raise ArtifactError(
                p, f"expected schema {SCHEMA!r}, got {meta.get('schema')!r}"
            )
        if meta.get("version") != FORMAT_VERSION:
            raise ArtifactError(
                p, f"unsupported artifact version {meta.get('version')}"
            )
        try:
            config = _config_from_json(p, meta["config"])
        except CheckpointError as exc:
            raise ArtifactError(p, exc.reason) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(p, f"invalid config metadata ({exc})") from exc
        arrays = {}
        for key in (
            "pi", "theta", "beta", "node_ids", "top_communities", "top_weights"
        ):
            try:
                arrays[key] = data[key].copy()
            except KeyError as exc:
                raise ArtifactError(p, f"missing array {key!r}") from exc
            except (BadZipFile, zlib.error, OSError, EOFError, ValueError) as exc:
                # npz member CRC/decompression failure: flipped or missing
                # bytes inside the archive.
                raise ArtifactCorrupt(
                    p, f"corrupt array {key!r} ({exc})"
                ) from exc
        artifact = ModelArtifact(
            config=config,
            iteration=int(meta.get("iteration", 0)),
            version=str(meta.get("artifact_version", "")),
            **arrays,
        )
    try:
        artifact.validate()
    except ValueError as exc:
        raise ArtifactCorrupt(p, f"invalid snapshot ({exc})") from exc
    if verify:
        recorded = str(meta.get("artifact_version", ""))
        recomputed = _content_version(
            str(meta["config"]), artifact.pi, artifact.theta
        )
        if recorded != recomputed:
            raise ArtifactCorrupt(
                p,
                "content version mismatch "
                f"(recorded {recorded!r}, recomputed {recomputed!r})",
            )
    return artifact


def _load_artifact_v2(
    p: Path, verify: Union[bool, str], provider: Union[str, None]
) -> ModelArtifact:
    """Open a v2 container artifact (see :func:`load_artifact` for levels).

    ``ModelArtifact`` adopts all six arrays at construction, so digest
    laziness is realized here by policy, not by touch-tracking: the
    container is opened with digests off, the tiny globals (``theta``,
    ``beta``) are digested and invariant-checked eagerly (corrupt
    globals would poison *every* answer), and the O(N) arrays keep
    their digests deferred to :meth:`ModelArtifact.verify_deep` /
    ``verify="full"`` — a default load stays O(manifest) regardless of
    artifact size.
    """
    try:
        container = Container(p, provider=provider or "resident", verify="none")
    except StoreCorrupt as exc:
        raise ArtifactCorrupt(p, exc.reason) from exc
    except StoreError as exc:
        raise ArtifactError(p, exc.reason) from exc
    if container.kind != SCHEMA_V2:
        raise ArtifactError(
            p, f"expected container kind {SCHEMA_V2!r}, got {container.kind!r}"
        )
    meta = container.meta
    if meta.get("format_version") != FORMAT_VERSION_V2:
        raise ArtifactError(
            p, f"unsupported artifact version {meta.get('format_version')}"
        )
    try:
        config = _config_from_json(p, meta["config"])
    except CheckpointError as exc:
        raise ArtifactError(p, exc.reason) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(p, f"invalid config metadata ({exc})") from exc

    # Manifest-side structural checks: shape consistency costs zero array
    # reads and catches cross-array damage the per-file digests cannot.
    try:
        entries = {key: container.entry(key) for key in _ARRAY_KEYS}
    except StoreError as exc:
        raise ArtifactError(p, exc.reason) from exc
    try:
        n, k = (int(x) for x in entries["pi"]["shape"])
        shapes = {key: [int(x) for x in entries[key]["shape"]] for key in _ARRAY_KEYS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorrupt(p, f"malformed manifest shapes ({exc})") from exc
    ok = (
        shapes["theta"] == [k, 2]
        and shapes["beta"] == [k]
        and shapes["node_ids"] == [n]
        and shapes["top_communities"] == shapes["top_weights"]
        and shapes["top_communities"][0] == n
        and shapes["top_communities"][1] <= k
    )
    if not ok:
        raise ArtifactCorrupt(p, f"inconsistent array shapes in manifest: {shapes}")

    try:
        if verify:
            for key in ("theta", "beta"):
                container.verify(key)
        arrays = {key: container.array(key) for key in _ARRAY_KEYS}
        if verify == "full":
            container.verify_all()
    except StoreCorrupt as exc:
        raise ArtifactCorrupt(p, exc.reason) from exc
    except StoreError as exc:
        raise ArtifactError(p, exc.reason) from exc

    artifact = ModelArtifact(
        config=config,
        iteration=int(meta.get("iteration", 0)),
        version=str(meta.get("artifact_version", "")),
        _container=container,
        **arrays,
    )
    if verify:
        theta, beta = artifact.theta, artifact.beta
        if np.any(theta <= 0):
            raise ArtifactCorrupt(p, "invalid snapshot (theta must be positive)")
        if np.any(beta <= 0) or np.any(beta >= 1):
            raise ArtifactCorrupt(p, "invalid snapshot (beta must be in (0, 1))")
    if verify == "full":
        try:
            artifact.validate()
        except ValueError as exc:
            raise ArtifactCorrupt(p, f"invalid snapshot ({exc})") from exc
        recorded = str(meta.get("artifact_version", ""))
        recomputed = _content_version(str(meta["config"]), artifact.pi, artifact.theta)
        if recorded != recomputed:
            raise ArtifactCorrupt(
                p,
                "content version mismatch "
                f"(recorded {recorded!r}, recomputed {recomputed!r})",
            )
    return artifact


def quarantine_artifact(path: PathLike) -> Path:
    """Move a damaged artifact aside (``<name>.quarantined[.N]``).

    The rename keeps the evidence for post-mortems while guaranteeing no
    later load can pick the bad file up again. Returns the new path.
    """
    p = Path(path)
    dest = p.with_name(p.name + ".quarantined")
    n = 0
    while dest.exists():
        n += 1
        dest = p.with_name(f"{p.name}.quarantined.{n}")
    os.replace(p, dest)
    return dest


class ArtifactRegistry:
    """Bounded history of artifacts that were *successfully* installed.

    The server records every artifact the moment it starts serving
    traffic (the initial one and each committed ``publish``); when a
    swap fails mid-flight, :meth:`previous` hands back the newest entry
    with a *different* content version — the last-known-good snapshot to
    roll back to. Not thread-safe; callers hold the server lock.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 2:
            raise ValueError("registry needs capacity >= 2 to roll back")
        self._entries: deque[tuple[int, ModelArtifact]] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, generation: int, artifact: ModelArtifact) -> None:
        """Remember ``artifact`` as known-good at ``generation``."""
        self._entries.append((generation, artifact))

    def latest(self) -> Optional[ModelArtifact]:
        return self._entries[-1][1] if self._entries else None

    def previous(self, version: str) -> Optional[ModelArtifact]:
        """Newest known-good artifact whose content version differs from
        ``version`` (None when the history holds no alternative)."""
        for _, artifact in reversed(self._entries):
            if artifact.version != version:
                return artifact
        return None

    def versions(self) -> list[str]:
        """Content versions in install order (oldest first)."""
        return [a.version for _, a in self._entries]
