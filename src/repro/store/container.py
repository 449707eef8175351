"""Atomic on-disk array containers with per-array integrity digests.

A *container* is ONE file: each named array is a member, laid out as
the ``.npy`` byte stream ``np.save`` would write (NumPy format 1.0,
native C layout) at a page-aligned offset, and a JSON manifest comes
after the last member, located by a fixed 24-byte trailer at the end of
the file:

===============  =========================================================
bytes            contents
===============  =========================================================
member ``i``     header + payload of array ``i``, starting at a multiple
                 of 4096 (zero padding between members)
manifest         schema, ``kind`` (caller format tag), caller ``meta``,
                 per-array ``{file, sha256, shape, dtype, nbytes}``, each
                 member's ``extents`` ``[offset, length]``, and a
                 ``content_version`` sealing kind, meta and the arrays
trailer          ``<QQ8s``: manifest offset, manifest length, ``RPSTORE2``
===============  =========================================================

A member starts on a page, so a reader maps it (the ``mmap`` provider)
with the same alignment a ``.npy`` file of its own had, and answers
queries with only the touched pages resident — the property the serving
tier's artifacts and the CSR graph container are built on. A member's
sha256 is over its byte range (header + payload): the digest of the
``.npy`` file ``np.save`` would write for the array.

Writes are atomic: the members and the manifest go to a hidden temp
file beside the target (:func:`repro.store.atomic.atomic_file`), which
is fsynced once and then *replaces* the target with one
``os.replace`` — an old container under the name stays whole until
that rename, and a kill before it leaves only the temp file, which the
path's next writer deletes (:func:`recover_container`, also run by
``StreamTrainer.resume``; readers never repair). Each member's digest
is computed *while its bytes are written* (one pass, no re-read), so the
``content_version`` of a fresh container costs no hash pass of its own
— a model artifact uses it as its version, and :func:`sealed_version`
predicts it for arrays not yet written. Every member digest (write,
copy, verify, prediction) comes from :func:`_sha256`: one pass per byte
written, one per byte verified. A path has one writer at a time.

A sealed container can be given a second name at no cost in bytes:
:func:`link_container` hard-links the file and renames the link over
the target (a verified copy where the filesystem refuses the link) —
how a stream generation's state becomes the published serving artifact.

A directory at a container path (the retired layout of one ``.npy``
file per member plus ``manifest.json``) is neither read nor written
over: readers and writers raise one :class:`StoreError` naming it.

Integrity is layered so opening stays O(manifest):

1. opening a :class:`Container` parses the manifest and recomputes
   ``content_version`` over its fields — corrupt or tampered manifests
   (including any edited per-array digest) fail immediately with
   :class:`StoreCorrupt`, with zero array bytes read, and so do member
   extents that are not page-aligned, overlap or leave the file's
   member bytes; a file whose trailer is missing is a truncated
   container when it starts like one;
2. each array's ``.npy`` header is checked against the manifest's
   shape/dtype, and its payload against the member's extent, when the
   array is first opened;
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
import struct
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from repro.store.atomic import atomic_file, fsync_dir, temp_sibling
from repro.store.provider import ArrayProvider, get_provider

PathLike = Union[str, Path]

SCHEMA = "repro-store/2"
VERIFY_MODES = ("touch", "eager", "none")

#: members start at multiples of this many bytes (a page on every host
#: the reproduction runs on; fixed, so a layout does not depend on one)
ALIGN = 4096
#: the last bytes of a container file: manifest offset, manifest length, magic
_TRAILER = struct.Struct("<QQ8s")
_MAGIC = b"RPSTORE2"
#: how every member (an ``.npy`` stream) begins
_NPY_MAGIC = b"\x93NUMPY"

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
#: what a killed writer can leave beside ``<name>``: its temp file
_LEFTOVER = re.compile(r"\.(?P<name>.+)\.tmp-[\w-]+")
#: why a directory at a container path is refused
_RETIRED_DIRECTORY = "is a directory, not a store container (the retired directory layout)"


class StoreError(ValueError):
    """A container could not be read or written."""

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")


class StoreCorrupt(StoreError):
    """Container bytes do not match their recorded digests/headers."""


def _sha256(data: bytes = b""):
    """A new sha256 over member bytes: every member digest — written,
    copied, verified or only predicted — starts here."""
    return hashlib.sha256(data)


def _read_range(path: Path, offset: int, length: int) -> Iterator[memoryview]:
    """The bytes ``[offset, offset + length)`` of a file, read into one
    reused 64 KiB buffer (no chunk-sized bytes object per read: 9 ms
    against 13 per 12.8 MB). Each view is valid until the next one is
    yielded."""
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        left = length
        fh.seek(offset)
        while left > 0 and (n := fh.readinto(view[: min(len(buf), left)])):
            left -= n
            yield view[:n]


def _sha256_range(path: Path, offset: int, length: int) -> str:
    """sha256 of one member's byte range."""
    h = _sha256()
    for chunk in _read_range(path, offset, length):
        h.update(chunk)
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


def recover_container(path: PathLike) -> None:
    """Delete what a writer killed before its ``os.replace`` left beside
    ``path``: the hidden ``.name.tmp-*`` temp file. The container at
    ``path`` itself was never touched. Writer-side only: call it where
    the path's single writer restarts.
    """
    path = Path(path)
    if not path.parent.is_dir():
        return
    for p in path.parent.iterdir():
        m = _LEFTOVER.fullmatch(p.name)
        if m is not None and m["name"] == path.name:
            p.unlink(missing_ok=True)


def recover_containers(directory: PathLike) -> None:
    """:func:`recover_container` for every path a killed writer left
    leftovers for under ``directory``."""
    for p in Path(directory).iterdir():
        if _LEFTOVER.fullmatch(p.name):
            p.unlink(missing_ok=True)


def _npy_header(arr: np.ndarray) -> bytes:
    """The ``.npy`` header ``np.save`` writes before ``arr`` (format 1.0)."""
    if arr.dtype.hasobject:
        raise ValueError("object arrays cannot be stored in a container")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(arr)
    )
    return header.getvalue()


def _npy_chunks(arr: np.ndarray) -> Iterator:
    """``arr`` as ``np.save`` lays it out (format 1.0, C order), in write
    chunks."""
    yield _npy_header(arr)
    payload = arr.reshape(-1).view(np.uint8)
    for lo in range(0, payload.size, _WRITE_CHUNK):
        yield payload[lo : lo + _WRITE_CHUNK]


class _Writer:
    """Lays members out in an open container file, hashing each byte as
    it is written, then seals it with the manifest and the trailer."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.pos = 0
        self.extents: dict[str, list[int]] = {}

    def member(self, name: str, chunks: Iterable) -> str:
        """Write one member at the next page; returns its sha256."""
        pad = -self.pos % ALIGN
        self.fh.write(bytes(pad))
        offset = self.pos = self.pos + pad
        digest = _sha256()
        for chunk in chunks:
            self.fh.write(chunk)
            digest.update(chunk)
            self.pos += len(chunk)
        self.extents[name] = [offset, self.pos - offset]
        return digest.hexdigest()

    def seal(self, kind: str, meta: dict, entries: dict) -> None:
        manifest = {
            "schema": SCHEMA,
            "kind": kind,
            "meta": meta,
            "arrays": entries,
            "extents": self.extents,
            "content_version": content_version(kind, meta, entries),
        }
        blob = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
        self.fh.write(blob)
        self.fh.write(_TRAILER.pack(self.pos, len(blob), _MAGIC))


def _entries(arrays: Mapping[str, np.ndarray], digest) -> dict[str, dict]:
    """The manifest's per-array records; ``digest(name, arr)`` gives the
    sha256 of member ``name`` as :func:`_npy_chunks` lays it out. ``file``
    is the name the member's own ``.npy`` file would have: it is sealed,
    so it stays."""
    entries: dict[str, dict] = {}
    for name, arr in arrays.items():
        arr = _native_little(np.asarray(arr))
        entries[name] = {
            "file": f"{name}.npy",
            "sha256": digest(name, arr),
            "shape": list(arr.shape),
            "dtype": np.lib.format.dtype_to_descr(arr.dtype),
            "nbytes": int(arr.nbytes),
        }
    return entries


def sealed_version(
    arrays: Mapping[str, np.ndarray], kind: str, meta: Optional[Mapping] = None
) -> str:
    """The ``content_version`` :func:`write_container` would seal for these
    arguments, from one sha256 pass over each member's bytes and no write."""

    def digest(_name: str, arr: np.ndarray) -> str:
        h = _sha256(_npy_header(arr))
        h.update(arr.reshape(-1).view(np.uint8))
        return h.hexdigest()

    return content_version(str(kind), dict(meta or {}), _entries(arrays, digest))


def _clear_for_write(path: Path, overwrite: bool = True) -> None:
    """Sweep a killed writer's leftovers, and refuse a directory at
    ``path`` (a file cannot replace it) or, unless ``overwrite``, any
    existing ``path``."""
    recover_container(path)
    if path.is_dir():
        raise StoreError(path, _RETIRED_DIRECTORY)
    if path.exists() and not overwrite:
        raise StoreError(path, "target exists and overwrite=False")


def write_container(
    path: PathLike,
    arrays: Mapping[str, np.ndarray],
    kind: str,
    meta: Optional[Mapping] = None,
    overwrite: bool = True,
    spare: Optional[PathLike] = None,
) -> Path:
    """Atomically write ``arrays`` as a container file at ``path``.

    Array names must be simple identifiers. Returns the final path. With
    ``overwrite=False`` an existing target raises :class:`StoreError`.
    ``spare`` recycles inodes (:func:`repro.store.atomic.atomic_file`):
    pass it only for a container every reader copies (opened
    ``resident``), never for one a reader may map — the spare is written
    over in place. The padding between members is written as zeros and
    the file is cut at the trailer, so the bytes equal a fresh write.
    """
    path = Path(path)
    meta = dict(meta or {})
    if not arrays:
        raise StoreError(path, "container needs at least one array")
    for name in arrays:
        if not name.isidentifier():
            raise StoreError(path, f"array name {name!r} is not a valid identifier")
    _clear_for_write(path, overwrite)
    with atomic_file(path, spare=spare) as fh:
        writer = _Writer(fh)
        entries = _entries(arrays, lambda name, arr: writer.member(name, _npy_chunks(arr)))
        writer.seal(str(kind), meta, entries)
    return path


def link_container(source: PathLike, path: PathLike) -> Path:
    """Atomically give the sealed container at ``source`` a second name.

    A hard link to ``source``'s file is made beside ``path`` and renamed
    over it: one ``os.link`` and one ``os.replace``, no byte copied.
    Where the filesystem refuses the link (``EXDEV`` across mounts,
    ``EPERM`` on filesystems without hard links), ``path`` becomes a
    copy instead: each member is hashed as it is written and must match
    the manifest digest, and the copy carries the same seal. A sealed
    container is never modified in place, so the shared inode is safe;
    deleting either name leaves the other (and any live memory map)
    readable.
    """
    source, path = Path(source), Path(path)
    manifest = read_manifest(source)
    _clear_for_write(path)
    if path.exists() and os.path.samefile(source, path):
        return path  # already this container's second name
    tmp = temp_sibling(path)
    try:
        os.link(source, tmp)
    except OSError:
        _copy_verified(source, manifest, path)  # no hard link here
        return path
    try:
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)
    return path


def _copy_verified(source: Path, manifest: dict, path: Path) -> None:
    """Write a container file at ``path`` holding ``source``'s members
    byte for byte and its seal; every member is hashed as it is written
    and must match its digest."""
    extents = manifest["extents"]
    with atomic_file(path) as fh:
        writer = _Writer(fh)
        for name in sorted(extents, key=lambda n: extents[n][0]):
            entry = manifest["arrays"][name]
            if writer.member(name, _read_range(source, *extents[name])) != entry["sha256"]:
                raise StoreCorrupt(source, f"copy of {name!r} does not match its digest")
        writer.seal(manifest["kind"], manifest["meta"], manifest["arrays"])


def member_extent(path: PathLike, name: str) -> tuple[Path, int, int]:
    """``(file, offset, length)`` of member ``name`` of the container at
    ``path``: a byte range of the container file."""
    path = Path(path)
    try:
        offset, length = read_manifest(path)["extents"][name]
    except KeyError:
        raise StoreError(path, f"container has no array {name!r}") from None
    return path, int(offset), int(length)


def _read_trailer(path: Path) -> tuple[bytes, int]:
    """The manifest bytes of the container file at ``path`` and their
    offset (where the member bytes end)."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(_NPY_MAGIC))
            size = fh.seek(0, os.SEEK_END)
            trailer = b""
            if size >= _TRAILER.size:
                fh.seek(size - _TRAILER.size)
                trailer = fh.read(_TRAILER.size)
            if len(trailer) != _TRAILER.size or trailer[-len(_MAGIC):] != _MAGIC:
                if head == _NPY_MAGIC:
                    raise StoreCorrupt(path, "truncated store container (its trailer is missing)")
                raise StoreError(path, "is a regular file, not a store container (no trailer)")
            offset, length, _ = _TRAILER.unpack(trailer)
            if offset + length != size - _TRAILER.size:
                raise StoreCorrupt(path, "trailer does not locate the manifest")
            fh.seek(offset)
            return fh.read(length), offset
    except OSError as exc:
        raise StoreError(path, f"unreadable ({exc})") from exc


def _check_extents(path: Path, manifest: dict, limit: int) -> None:
    """Every member an aligned range of at least its payload, disjoint
    from the others and before the manifest (at ``limit``)."""
    extents, end = manifest.get("extents"), 0
    if not isinstance(extents, dict) or set(extents) != set(manifest["arrays"]):
        raise StoreCorrupt(path, "manifest extents do not name its arrays")
    try:
        ranges = sorted(
            (int(off), int(n), int(manifest["arrays"][name]["nbytes"]), name)
            for name, (off, n) in extents.items()
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCorrupt(path, f"malformed extents ({exc})") from exc
    for off, n, nbytes, name in ranges:
        if off % ALIGN or off < end or n < nbytes or off + n > limit:
            raise StoreCorrupt(path, f"array {name!r} extent [{off}, {off + n}) is not its own")
        end = off + n


def read_manifest(path: PathLike) -> dict:
    """Parse and consistency-check a container manifest (no array reads).

    Raises :class:`StoreError` for missing/foreign paths (a directory
    included) and :class:`StoreCorrupt` when the manifest does not
    parse, declares the wrong schema, its recorded ``content_version``
    does not match a recomputation over its own fields (catching any
    single-field edit), or the member extents are not aligned, disjoint
    ranges before the manifest.
    """
    path = Path(path)
    if not path.is_file():
        if path.is_dir():
            raise StoreError(path, _RETIRED_DIRECTORY)
        raise StoreError(path, "not a store container (no file, no manifest)")
    blob, limit = _read_trailer(path)
    try:
        manifest = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are
        raise StoreCorrupt(path, f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != SCHEMA:
        got = manifest.get("schema") if isinstance(manifest, dict) else None
        raise StoreCorrupt(path, f"unsupported store schema {got!r}")
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
    _check_extents(path, manifest, limit)
    return manifest


class Container:
    """Read side of a container: provider-backed arrays + lazy digests.

    Args:
        path: container file.
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

    def _member(self, name: str) -> tuple[Path, int, int]:
        """``(file, offset, length)`` of one member, which must exist."""
        self.entry(name)
        offset, length = self.manifest["extents"][name]
        return self.path, offset, length

    # -- integrity -------------------------------------------------------

    def verify(self, name: str) -> None:
        """Digest-check one array now (memoized; raises StoreCorrupt)."""
        if name in self._verified:
            return
        entry = self.entry(name)
        try:
            digest = _sha256_range(*self._member(name))
        except OSError as exc:
            raise StoreCorrupt(self.path, f"array {name!r} unreadable: {exc}") from exc
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
        member = self._member(name)
        if self._verify_on_touch:
            self.verify(name)
        try:
            arr = self.provider.load(*member)
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
