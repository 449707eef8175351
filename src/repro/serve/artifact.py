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

Format, durability and identity: an artifact is a sealed
:mod:`repro.store` container directory (DESIGN.md "Persistence") — one
raw ``.npy`` per array plus a sha256-sealed ``manifest.json``, written
atomically — and carries a deterministic content ``version``, a SHA-256
over the model arrays and config, so two exports of the same posterior
get the same version and a hot-swapped server can report exactly which
model answered. Loads memory-map the arrays read-only (default provider
``mmap``), so a query server answers its first request after O(manifest)
work with only the touched pages resident.

Integrity: per-array digests are verified lazily on first touch, or all
at once with ``verify="full"`` (what ``ModelServer.publish_path`` uses,
so corruption is caught *before* a swap, never mid-query), which also
recomputes the content version and runs :meth:`ModelArtifact.validate`.
Damage of any kind (truncation, flipped bytes, an edited manifest, or a
structurally valid payload that differs from what was exported) raises
:class:`ArtifactCorrupt`; callers that serve traffic quarantine the
directory (:func:`quarantine_artifact`) and fall back to the
last-known-good entry tracked in an :class:`ArtifactRegistry`. Anything
else wrong at load time is a typed :class:`ArtifactError` naming the
path — including a regular file there: a v1 ``.npz`` artifact is read by
``repro convert`` (:mod:`repro.legacy`) and by nothing else.

A stream generation persists ONE such container that is its checkpoint
*and* its artifact (:func:`export_state_artifact` — the state's own
``pi`` rows plus ``phi_sum``, no renormalized copy) and publishes it by
hard link (:func:`repro.store.link_container`).
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from repro.config import AMMSBConfig
from repro.core.checkpoint import (
    STATE_KIND,
    CheckpointError,
    _config_from_json,
    _config_to_json,
    open_model_container,
)
from repro.core.state import ModelState
from repro.store import Container, StoreCorrupt, StoreError, write_container

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.core.sampler import AMMSBSampler

PathLike = Union[str, Path]

#: store-container kind tag of a serving artifact (``/1`` was the ``.npz``)
ARTIFACT_KIND = "repro-serve-artifact/2"
FORMAT_VERSION = 2

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
    """The container exists, but its payload is damaged: a member that
    does not match its header or digest, an edited manifest, broken
    model invariants, or a content-version mismatch. The standard
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
    # Backing store container of a loaded artifact; None for in-memory
    # builds. Enables verify_deep() and nbytes() without re-opening the
    # directory.
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
        """Total model payload bytes (manifest-sourced for loaded artifacts)."""
        if self._container is not None:
            return self._container.nbytes()
        return sum(
            int(np.asarray(getattr(self, key)).nbytes) for key in _ARRAY_KEYS
        )

    def verify_deep(self) -> None:
        """Full integrity pass: every per-array digest + model invariants.

        For a loaded (container-backed) artifact this forces the lazy
        sha256 digests that the default load defers; for an in-memory
        build it is just :meth:`validate`. Raises
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
        kind=ARTIFACT_KIND if problem is None else STATE_KIND,
        meta=_artifact_meta(artifact),
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


def save_artifact(path: PathLike, artifact: ModelArtifact) -> Path:
    """Atomically write an in-memory artifact as a sealed container
    directory at ``path`` (whatever its suffix); returns the path.

    Uncompressed on purpose — the arrays are page-aligned ``np.save``
    payloads a reader can memory-map directly. Atomicity (tmp dir +
    fsync + rename) and per-array sha256 digests come from
    :func:`repro.store.write_container`.
    """
    return write_container(
        path,
        {key: getattr(artifact, key) for key in _ARRAY_KEYS},
        kind=ARTIFACT_KIND,
        meta=_artifact_meta(artifact),
    )


def _artifact_meta(artifact: ModelArtifact) -> dict:
    return {
        "format_version": FORMAT_VERSION,
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

    ``provider``: ``"mmap"`` (default) maps the arrays read-only,
    MB-scale RSS; ``"resident"`` reads them in full.

    Verification levels:

    - ``verify=True`` (default): the sealed manifest and the tiny
      globals (``theta``, ``beta`` — corrupt globals would poison
      *every* answer) are checked eagerly; the O(N) arrays keep their
      digests deferred to :meth:`ModelArtifact.verify_deep`, so the load
      stays O(manifest) whatever the artifact's size.
    - ``verify="full"``: additionally digests every array and runs the
      complete invariant + content-version check up front — what
      ``ModelServer.publish_path`` uses so damage surfaces as
      :class:`ArtifactCorrupt` *before* a swap, never mid-query.
    - ``verify=False``: structural checks only.

    Raises:
        ArtifactCorrupt: damaged payload — a member that does not match
            its header or digest, a content-version mismatch, an edited
            manifest, or broken model invariants.
        ArtifactError: everything else — missing path, a regular file
            (legacy ``.npz``: ``repro convert``), wrong container kind
            or format version, missing arrays, unreadable metadata.
    """
    if verify not in (True, False, "full"):
        raise ValueError(f"verify must be True, False or 'full', got {verify!r}")
    p = Path(path)
    try:
        container = open_model_container(p, provider=provider or "resident", verify="none")
    except StoreCorrupt as exc:
        raise ArtifactCorrupt(p, exc.reason) from exc
    except StoreError as exc:
        raise ArtifactError(p, exc.reason) from exc
    if container.kind != ARTIFACT_KIND:
        raise ArtifactError(
            p, f"expected container kind {ARTIFACT_KIND!r}, got {container.kind!r}"
        )
    meta = container.meta
    if meta.get("format_version") != FORMAT_VERSION:
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
