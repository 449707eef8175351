"""Atomic on-disk array containers with per-array integrity digests.

A *container* is a directory holding one raw little-endian ``.npy`` file
per named array plus a ``manifest.json`` describing them:

=================  =====================================================
entry              contents
=================  =====================================================
``manifest.json``  schema, ``kind`` (caller format tag), caller ``meta``,
                   per-array ``{file, sha256, shape, dtype, nbytes}``,
                   and a ``content_version`` sealing all of the above
``<name>.npy``     the array payload, NumPy format v1, native layout
=================  =====================================================

Because every array is an uncompressed ``.npy``, a reader can map it
(``np.load(mmap_mode="r")``) and answer queries with only the touched
pages resident — the property the serving tier's v2 artifact format and
the CSR graph container are built on.

Writes are atomic: arrays and manifest land in a hidden temp directory
next to the target, every file and the directory are fsynced, and the
temp dir is renamed into place. Each array's digest is computed *while
its bytes are written* (one pass, no re-read). An existing container is
rotated aside first and deleted after the rename; a kill between those
two renames leaves nothing at the path, so the *writer* puts the rotated
copy back when it restarts (:func:`recover_container` — run by the next
:func:`write_container` / :func:`link_container` to the path and by
``StreamTrainer.resume``; readers never repair). A path has one writer
at a time.

A sealed container can be given a second name at no cost in bytes:
:func:`link_container` builds a directory of hard links to its files
(a verified copy where the filesystem refuses the link) — how a stream
generation's state becomes the published serving artifact.

Integrity is layered so opening stays O(manifest):

1. opening a :class:`Container` parses the manifest and recomputes
   ``content_version`` over its fields — corrupt or tampered manifests
   (including any edited per-array digest) fail immediately with
   :class:`StoreCorrupt`, with zero array bytes read;
2. each array's ``.npy`` header is checked against the manifest's
   shape/dtype when the array is first opened;
3. full per-array sha256 digests are verified *lazily*: on first touch
   (``verify="touch"``, the default) or only via an explicit
   :meth:`Container.verify_all` pass (``verify="none"``), so a
   multi-GB container never forces a full read just to start serving.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from repro.store.atomic import atomic_file, fsync_dir
from repro.store.provider import ArrayProvider, get_provider

PathLike = Union[str, Path]

SCHEMA = "repro-store/1"
MANIFEST_NAME = "manifest.json"
VERIFY_MODES = ("touch", "eager", "none")

#: Bytes handed to ``write`` (and to the hash) at a time. Small on purpose:
#: measured on the reference host (a guest whose never-touched memory costs
#: ~5 ms/MB to fault in), 12.8 MB to a new file takes 6-15 ms in 16 KiB
#: writes against 36-60 ms in 1 MiB ones while recycled pages last, and the
#: same once they run out: the page cache appears to size its allocation by
#: the write, and only small allocations fit the recycled fragments
#: (EXPERIMENTS.md, "Write N*K once"). ~800 calls per 12.8 MB, ~2 ms. The
#: price, measured there too: a server scanning a mapped 25.6 MB ``pi``
#: written this way reads ~3-5 % slower than one written in a single call.
_WRITE_CHUNK = 1 << 14
#: what a killed writer can leave beside ``<name>``: its temp directory and
#: the rotated-aside previous container
_LEFTOVER = re.compile(r"\.(?P<name>.+)\.(?P<role>tmp|old)-\d+-[0-9a-f]{8}")


class StoreError(ValueError):
    """A container could not be read or written."""

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")


class StoreCorrupt(StoreError):
    """Container bytes do not match their recorded digests/headers."""


def _sha256_file(path: Path) -> str:
    """sha256 of a file, read into one reused 64 KiB buffer (no
    chunk-sized bytes object per read: 9 ms against 13 per 12.8 MB)."""
    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_version(kind: str, meta: Mapping, arrays: Mapping[str, Mapping]) -> str:
    """Deterministic version sealing kind + meta + every array digest."""
    payload = _canonical_json({"kind": kind, "meta": meta, "arrays": arrays})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _native_little(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return arr


def is_container(path: PathLike) -> bool:
    """True when ``path`` is a directory holding a store manifest."""
    p = Path(path)
    return p.is_dir() and (p / MANIFEST_NAME).is_file()


def _hidden_sibling(path: Path, role: str) -> Path:
    return path.parent / f".{path.name}.{role}-{os.getpid()}-{os.urandom(4).hex()}"


def _remove(path: Path) -> None:
    """Delete a directory tree, or the plain file a legacy writer left."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def _is_sealed(path: Path) -> bool:
    try:
        read_manifest(path)
    except StoreError:
        return False
    return True


def recover_container(path: PathLike) -> None:
    """Finish what a writer killed mid-:func:`write_container` left at ``path``.

    When ``path`` is missing and a sealed rotated-aside copy exists (the
    kill fell between the two renames) the copy is moved back; every
    other hidden ``.name.tmp-*`` / ``.name.old-*`` sibling is deleted.
    Writer-side only: call it where the path's single writer restarts.
    """
    path = Path(path)
    if not path.parent.is_dir():
        return
    for p in sorted(path.parent.iterdir()):
        m = _LEFTOVER.fullmatch(p.name)
        if m is None or m["name"] != path.name:
            continue
        if m["role"] == "old" and not path.exists() and _is_sealed(p):
            os.replace(p, path)
            fsync_dir(path.parent)
        else:
            _remove(p)


def recover_containers(directory: PathLike) -> None:
    """:func:`recover_container` for every path a killed writer left
    leftovers for under ``directory``."""
    directory = Path(directory)
    names = {m["name"] for p in directory.iterdir() if (m := _LEFTOVER.fullmatch(p.name))}
    for name in sorted(names):
        recover_container(directory / name)


def _install(tmp: Path, path: Path) -> None:
    """Rename the finished ``tmp`` directory (its manifest, written last
    through :func:`atomic_file`, already synced the directory) to ``path``,
    rotating an existing container aside first and deleting it after."""
    old: Optional[Path] = None
    if path.exists():
        old = _hidden_sibling(path, "old")
        os.replace(path, old)
    os.replace(tmp, path)
    fsync_dir(path.parent)
    if old is not None:
        _remove(old)


def _write_npy(fpath: Path, arr: np.ndarray) -> str:
    """Write ``arr`` as ``np.save`` would (format 1.0, C order) and return
    the file's sha256, computed over the bytes as they are written."""
    if arr.dtype.hasobject:
        raise ValueError("object arrays cannot be stored in a container")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(arr)
    )
    payload = arr.reshape(-1).view(np.uint8)
    digest = hashlib.sha256(header.getvalue())
    with open(fpath, "wb") as fh:
        fh.write(header.getvalue())
        for lo in range(0, payload.size, _WRITE_CHUNK):
            chunk = payload[lo : lo + _WRITE_CHUNK]
            fh.write(chunk)
            digest.update(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    return digest.hexdigest()


def _copy_verified(source: Path, dest: Path, entry: Mapping) -> None:
    """Copy one array file between container directories, hashing the
    bytes as they are written; the copy must match the manifest digest."""
    digest = hashlib.sha256()
    with open(source / entry["file"], "rb") as src, open(dest / entry["file"], "wb") as dst:
        while block := src.read(_WRITE_CHUNK):
            dst.write(block)
            digest.update(block)
        dst.flush()
        os.fsync(dst.fileno())
    if digest.hexdigest() != entry["sha256"]:
        raise StoreCorrupt(source, f"copy of {entry['file']!r} does not match its digest")


def write_container(
    path: PathLike,
    arrays: Mapping[str, np.ndarray],
    kind: str,
    meta: Optional[Mapping] = None,
    overwrite: bool = True,
) -> Path:
    """Atomically write ``arrays`` as a container directory at ``path``.

    Array names become file names, so they must be simple identifiers.
    Returns the final path. With ``overwrite=False`` an existing target
    raises :class:`StoreError`.
    """
    path = Path(path)
    meta = dict(meta or {})
    if not arrays:
        raise StoreError(path, "container needs at least one array")
    for name in arrays:
        if not name.isidentifier():
            raise StoreError(path, f"array name {name!r} is not a valid identifier")
    recover_container(path)
    if path.exists() and not overwrite:
        raise StoreError(path, "target exists and overwrite=False")

    tmp = _hidden_sibling(path, "tmp")
    tmp.mkdir(parents=True, exist_ok=False)
    try:
        entries: dict[str, dict] = {}
        for name, arr in arrays.items():
            arr = _native_little(np.asarray(arr))
            fname = f"{name}.npy"
            entries[name] = {
                "file": fname,
                "sha256": _write_npy(tmp / fname, arr),
                "shape": list(arr.shape),
                "dtype": np.lib.format.dtype_to_descr(arr.dtype),
                "nbytes": int(arr.nbytes),
            }
        manifest = {
            "schema": SCHEMA,
            "kind": str(kind),
            "meta": meta,
            "arrays": entries,
            "content_version": content_version(str(kind), meta, entries),
        }
        with atomic_file(tmp / MANIFEST_NAME, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _install(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


def link_container(source: PathLike, path: PathLike) -> Path:
    """Atomically give the sealed container at ``source`` a second name.

    ``path`` becomes a directory of hard links to ``source``'s array
    files and manifest (array files first, the manifest — the seal —
    last), installed by the same rotate-aside rename as
    :func:`write_container`: no array byte is copied. Where the
    filesystem refuses a link (``EXDEV`` across mounts, ``EPERM`` on
    filesystems without hard links) the file is copied instead and the
    copy's digest checked against the manifest. Files of a sealed
    container are never modified in place, so the shared inodes are safe;
    deleting either name leaves the other (and any live memory map)
    readable.
    """
    source, path = Path(source), Path(path)
    manifest = read_manifest(source)
    recover_container(path)
    tmp = _hidden_sibling(path, "tmp")
    tmp.mkdir(parents=True, exist_ok=False)
    try:
        for entry in manifest["arrays"].values():
            try:
                os.link(source / entry["file"], tmp / entry["file"])
            except OSError:
                _copy_verified(source, tmp, entry)
        with atomic_file(tmp / MANIFEST_NAME) as fh:
            fh.write((source / MANIFEST_NAME).read_bytes())
        _install(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


def read_manifest(path: PathLike) -> dict:
    """Parse and consistency-check a container manifest (no array reads).

    Raises :class:`StoreError` for missing/foreign files and
    :class:`StoreCorrupt` when the manifest does not parse, declares the
    wrong schema, or its recorded ``content_version`` does not match a
    recomputation over its own fields (catching any single-field edit).
    """
    path = Path(path)
    mpath = path / MANIFEST_NAME
    if not mpath.is_file():
        raise StoreError(path, f"not a store container (missing {MANIFEST_NAME})")
    try:
        with open(mpath, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StoreCorrupt(path, f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != SCHEMA:
        raise StoreCorrupt(path, f"unsupported store schema {manifest.get('schema')!r}")
    for field in ("kind", "meta", "arrays", "content_version"):
        if field not in manifest:
            raise StoreCorrupt(path, f"manifest missing field {field!r}")
    expect = content_version(manifest["kind"], manifest["meta"], manifest["arrays"])
    if manifest["content_version"] != expect:
        raise StoreCorrupt(
            path,
            f"manifest content_version mismatch (recorded {manifest['content_version']}, "
            f"recomputed {expect}) — manifest edited or damaged",
        )
    return manifest


class Container:
    """Read side of a container: provider-backed arrays + lazy digests.

    Args:
        path: container directory.
        provider: array provider name or instance (default ``mmap`` — the
            whole point of the format).
        verify: ``"touch"`` (default) digest-checks each array the first
            time it is opened; ``"eager"`` digests everything up front;
            ``"none"`` skips digests (header shape/dtype checks and the
            manifest seal still apply) — pair with :meth:`verify_all`.
    """

    def __init__(
        self,
        path: PathLike,
        provider: Union[str, ArrayProvider, None] = "mmap",
        verify: str = "touch",
    ) -> None:
        if verify not in VERIFY_MODES:
            raise ValueError(f"verify must be one of {VERIFY_MODES}, got {verify!r}")
        self.path = Path(path)
        self.provider = get_provider(provider)
        self.manifest = read_manifest(self.path)
        self.kind: str = self.manifest["kind"]
        self.meta: dict = self.manifest["meta"]
        self._verify_on_touch = verify == "touch"
        self._arrays: dict[str, np.ndarray] = {}
        self._verified: set[str] = set()
        if verify == "eager":
            self.verify_all()

    # -- introspection ---------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self.manifest["arrays"])

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __contains__(self, name: str) -> bool:
        return name in self.manifest["arrays"]

    def entry(self, name: str) -> dict:
        try:
            return self.manifest["arrays"][name]
        except KeyError:
            raise StoreError(self.path, f"container has no array {name!r}") from None

    def nbytes(self) -> int:
        """Total payload bytes across all arrays (from the manifest)."""
        return sum(int(e["nbytes"]) for e in self.manifest["arrays"].values())

    @property
    def content_version(self) -> str:
        return self.manifest["content_version"]

    # -- integrity -------------------------------------------------------

    def verify(self, name: str) -> None:
        """Digest-check one array now (memoized; raises StoreCorrupt)."""
        if name in self._verified:
            return
        entry = self.entry(name)
        fpath = self.path / entry["file"]
        if not fpath.is_file():
            raise StoreCorrupt(self.path, f"array file {entry['file']!r} is missing")
        digest = _sha256_file(fpath)
        if digest != entry["sha256"]:
            raise StoreCorrupt(
                self.path,
                f"array {name!r} sha256 mismatch (recorded {entry['sha256'][:16]}…, "
                f"computed {digest[:16]}…)",
            )
        self._verified.add(name)

    def verify_all(self) -> None:
        """Digest-check every array (the explicit full-verify pass)."""
        for name in self.names():
            self.verify(name)

    # -- access ----------------------------------------------------------

    def array(self, name: str) -> np.ndarray:
        """Open one array through the provider (memoized).

        The ``.npy`` header is always checked against the manifest;
        the content digest is checked here only in ``verify="touch"``
        mode.
        """
        if name in self._arrays:
            return self._arrays[name]
        entry = self.entry(name)
        fpath = self.path / entry["file"]
        if not fpath.is_file():
            raise StoreCorrupt(self.path, f"array file {entry['file']!r} is missing")
        if self._verify_on_touch:
            self.verify(name)
        try:
            arr = self.provider.load(fpath)
        except (OSError, ValueError) as exc:
            raise StoreCorrupt(self.path, f"array {name!r} unreadable: {exc}") from exc
        if list(arr.shape) != list(entry["shape"]):
            raise StoreCorrupt(
                self.path,
                f"array {name!r} shape {list(arr.shape)} != manifest {entry['shape']}",
            )
        if np.lib.format.dtype_to_descr(arr.dtype) != entry["dtype"]:
            raise StoreCorrupt(
                self.path,
                f"array {name!r} dtype {np.lib.format.dtype_to_descr(arr.dtype)!r} "
                f"!= manifest {entry['dtype']!r}",
            )
        self._arrays[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self.array(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mb = self.nbytes() / 1e6
        return (
            f"Container({self.path.name!r}, kind={self.kind!r}, "
            f"arrays={self.names()}, {mb:.1f} MB, provider={self.provider.name})"
        )
