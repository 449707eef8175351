"""Immutable, versioned model artifacts for online serving.

A trained posterior (``pi``/``theta``) is only useful if it can answer
queries without the training stack; a :class:`ModelArtifact` is the
self-contained, read-only export that the serving layer loads:

- the full :class:`~repro.config.AMMSBConfig` (so scoring uses the same
  ``delta`` / ``kernel_backend`` / dtype the run trained with);
- ``pi``, ``theta`` and the derived ``beta``;
- a node-id mapping (row index -> external vertex id), so queries speak
  the graph's ids even when the trainer compacted them.

Nothing derivable from these is stored: a membership answer is the top
of ``pi``'s row (:func:`repro.serve.engine.top_memberships`). No graph
object is needed to load or serve an artifact.

Format, durability and identity: an artifact is a sealed
:mod:`repro.store` container file (DESIGN.md "Persistence") — one
page-aligned raw ``.npy`` member per array plus a sha256-sealed
manifest, written atomically — and its ``version`` IS that seal, the manifest's
``content_version`` over the config, the iteration and every member's
sha256: two writes of the same model get the same version, and a
hot-swapped server can report exactly which model answered. The digests
are taken as the bytes are written; :func:`build_artifact` predicts the
same string without writing (:func:`repro.store.sealed_version`). Loads
memory-map the arrays read-only (default provider ``mmap``), so a query
server answers its first request after O(manifest) work with only the
touched pages resident.

Integrity: per-array digests are verified lazily on first touch, or all
at once with ``verify="full"`` (what ``ModelServer.publish_path`` uses,
so corruption is caught *before* a swap, never mid-query), which also
runs :meth:`ModelArtifact.validate`. One sha256 pass per member byte
covers it: damage of any kind (truncation, flipped bytes, a member that
differs from what was written, an edited manifest or digest — the seal)
raises :class:`ArtifactCorrupt`; callers that serve traffic quarantine the
container (:func:`quarantine_artifact`) and fall back to the
last-known-good entry tracked in an :class:`ArtifactRegistry`. Anything
else wrong at load time is a typed :class:`ArtifactError` naming the
path — including a regular file that is no container (a v1 ``.npz``
artifact), a directory (the retired directory container layout) and a
format-2 container: none of them is read.

A model state is written by :func:`export_artifact`: ONE container that
is its checkpoint *and* its artifact — the state's own ``pi`` rows plus
``phi_sum``, no renormalized copy — so ``detect --resume`` and
``auc --checkpoint`` read what ``query`` and ``serve`` read. A stream
generation publishes it by hard link (:func:`repro.store.link_container`):
a second name of the same file.
:func:`build_artifact` + :func:`save_artifact` write artifacts built in
memory (the serving drills and benchmarks), which carry no ``phi_sum``.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

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
from repro.store import (
    Container,
    StoreCorrupt,
    StoreError,
    sealed_version,
    write_container,
)

PathLike = Union[str, Path]

#: store-container kind tag of a serving artifact (``/1`` was the ``.npz``)
ARTIFACT_KIND = "repro-serve-artifact/2"
#: the one format read: 3, which stores no top-K table
FORMAT_VERSION = 3

_ARRAY_KEYS = ("pi", "theta", "beta", "node_ids")

#: communities a membership answer holds by default — and the most the
#: degraded server answers (``min(DEFAULT_TOP_K, K)``)
DEFAULT_TOP_K = 8

#: node ids compared against the identity per step (no N-sized temporary)
_ID_BLOCK = 1 << 13


class ArtifactError(ValueError):
    """An artifact could not be read or fails validation (typed, with path)."""

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"artifact {self.path}: {reason}")


class ArtifactCorrupt(ArtifactError):
    """The container exists, but its payload is damaged: a member that
    does not match its header or digest, an edited manifest (the seal),
    or broken model invariants. The standard response is
    :func:`quarantine_artifact` + last-known-good fallback, never
    serving from it."""


def _rows_valid(pi: np.ndarray) -> bool:
    """Rows non-negative and summing to 1 within ``atol`` — the whole
    tolerance, no relative term; NaN fails both. A min and one row-sum
    pass: no N*K temporary."""
    atol = 1e-6 if pi.dtype == np.float64 else 1e-3
    if pi.size == 0:
        return True
    return bool(pi.min() >= 0) and bool(np.all(np.abs(pi.sum(axis=1) - 1.0) <= atol))


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
        iteration: training iteration the snapshot was taken at.
        version: the container seal (``content_version``, 16 hex chars)
            the artifact has, or would have once saved.
    """

    config: AMMSBConfig
    pi: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    node_ids: np.ndarray
    iteration: int = 0
    version: str = ""
    _row_index: dict = field(default_factory=dict, repr=False, compare=False)
    # Backing store container of a loaded artifact; None for in-memory
    # builds. Answers nbytes() without re-opening the container.
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
            ids, n = self.node_ids, self.n_nodes
            answer = bool(
                ids.size == n > 0
                and ids.dtype.kind == "i"
                and ids[0] == 0
                and ids[-1] == n - 1
                and all(
                    np.array_equal(ids[lo : lo + _ID_BLOCK], np.arange(lo, min(lo + _ID_BLOCK, n)))
                    for lo in range(0, n, _ID_BLOCK)
                )
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

    def validate(self) -> None:
        """Raise ``ValueError`` when an invariant is broken."""
        n, k = self.pi.shape
        if not _rows_valid(self.pi):
            raise ValueError("pi rows must be normalized and non-negative")
        if self.theta.shape != (k, 2) or np.any(self.theta <= 0):
            raise ValueError("theta must be (K, 2) positive")
        if self.beta.shape != (k,) or np.any(self.beta <= 0) or np.any(self.beta >= 1):
            raise ValueError("beta must be (K,) in (0, 1)")
        # 0..N-1 in order is unique by construction (memoized O(N) compare)
        if self.node_ids.shape != (n,) or not (
            (n > 0 and self._identity_ids()) or len(np.unique(self.node_ids)) == n
        ):
            raise ValueError("node_ids must be (N,) unique")


def build_artifact(
    state: ModelState,
    config: AMMSBConfig,
    iteration: int = 0,
    node_ids: Optional[np.ndarray] = None,
) -> ModelArtifact:
    """Snapshot a model state into an in-memory :class:`ModelArtifact`.

    ``pi`` is copied and re-normalized row-wise, so the artifact stays
    valid even if the caller keeps mutating the state. Its ``version``
    is the seal :func:`save_artifact` will write.
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
    members = {"pi": pi, "theta": theta, "beta": beta, "node_ids": node_ids}
    meta = _artifact_meta(config, iteration)
    artifact = ModelArtifact(
        config=config,
        iteration=int(iteration),
        version=sealed_version(members, ARTIFACT_KIND, meta),
        **members,
    )
    artifact.validate()
    return artifact


def export_artifact(
    path: PathLike,
    state: ModelState,
    config: AMMSBConfig,
    iteration: int = 0,
) -> Path:
    """Write ONE sealed container that is both the checkpoint of ``state``
    and its serving artifact — what ``detect --export-artifact`` and a
    stream generation persist; returns the path.

    Members: ``pi`` (the state's own rows — not copied, not
    renormalized, so the served ``link_probability`` equals the
    trainer's bit for bit), ``phi_sum``, ``theta``, and the serving
    members ``beta`` and ``node_ids`` (the row numbers); ``iteration``
    and the config go in the sealed meta.
    :func:`repro.core.checkpoint.load_state_checkpoint` resumes from it,
    :func:`load_artifact` serves from it (or from a
    :func:`repro.store.link_container` of it). Each member is hashed once,
    as it is written; the seal over those digests is the version.

    Raises:
        ArtifactError: the state's rows fail the serving invariants. The
            container is still written — as a checkpoint only (kind
            :data:`STATE_KIND`, no serving members), which
            :func:`load_artifact` refuses — so the caller keeps its
            durable state and skips the publish.
    """
    artifact = ModelArtifact(
        config=config,
        pi=state.pi,
        theta=state.theta,
        beta=state.beta,
        node_ids=np.arange(state.pi.shape[0], dtype=np.int64),
        iteration=int(iteration),
    )
    try:
        artifact.validate()
        problem = None
    except ValueError as exc:
        problem = str(exc)
    arrays = {"pi": state.pi, "phi_sum": state.phi_sum, "theta": state.theta}
    if problem is None:
        arrays.update(beta=artifact.beta, node_ids=artifact.node_ids)
    write_container(
        path,
        arrays,
        kind=ARTIFACT_KIND if problem is None else STATE_KIND,
        meta=_artifact_meta(config, iteration),
    )
    if problem is not None:
        raise ArtifactError(path, f"invalid snapshot ({problem}); written as a checkpoint only")
    return Path(path)


def save_artifact(path: PathLike, artifact: ModelArtifact) -> Path:
    """Atomically write an in-memory artifact as a sealed container
    file at ``path`` (whatever its suffix); returns the path.

    Uncompressed on purpose — the arrays are page-aligned ``np.save``
    members a reader can memory-map directly. Atomicity (temp file +
    fsync + rename) and per-array sha256 digests come from
    :func:`repro.store.write_container`.
    """
    return write_container(
        path,
        {key: getattr(artifact, key) for key in _ARRAY_KEYS},
        kind=ARTIFACT_KIND,
        meta=_artifact_meta(artifact.config, artifact.iteration),
    )


def _artifact_meta(config: AMMSBConfig, iteration: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "iteration": int(iteration),
        "config": _config_to_json(config),
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
      *every* answer) are checked eagerly; the O(N) arrays' digests
      are left to ``verify="full"``, so the load stays O(manifest)
      whatever the artifact's size.
    - ``verify="full"``: additionally digests every member file, once,
      and runs the complete invariant check up front — what
      ``ModelServer.publish_path`` uses so damage surfaces as
      :class:`ArtifactCorrupt` *before* a swap, never mid-query.
    - ``verify=False``: structural checks only.

    The manifest seal is checked at every level; it is the ``version``.

    Raises:
        ArtifactCorrupt: damaged payload — a member that does not match
            its header or digest, an edited manifest (the seal), or
            broken model invariants.
        ArtifactError: everything else — missing path, a directory or a
            regular file that is no container (an ``.npz``), wrong
            container kind or format version, missing arrays,
            unreadable metadata.
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
    ok = shapes["theta"] == [k, 2] and shapes["beta"] == [k] and shapes["node_ids"] == [n]
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
        version=container.manifest["content_version"],
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

    def record(
        self, generation: int, artifact: ModelArtifact
    ) -> Optional[tuple[int, ModelArtifact]]:
        """Remember ``artifact`` as known-good at ``generation``; returns
        the entry that fell out of the history, if any. Dropping it may
        unmap the last name of a deleted model file, which frees the
        file's blocks (tens to hundreds of ms): the caller lets it go
        once it holds no lock."""
        evicted = self._entries[0] if len(self._entries) == self._entries.maxlen else None
        self._entries.append((generation, artifact))
        return evicted

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
