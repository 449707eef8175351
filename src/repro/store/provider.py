"""Array providers: a small indirection over where big arrays live.

The storage tier separates *what* an array is (shape, dtype, contents)
from *where* it is materialized. Two providers cover the reproduction's
needs:

- ``resident`` — plain heap ndarrays. Loads read the whole array into
  anonymous memory; allocations are ``np.zeros``. This is the default
  for training-sized problems and the only provider whose arrays are
  safe to mutate freely.
- ``mmap`` — file-backed memory maps. Loads return a read-only plain
  ``np.ndarray`` view of an ``np.memmap`` (its ``.base``) over the
  on-disk payload: RSS grows only with the pages actually
  touched, and the kernel may evict them under pressure. The view is
  zero-copy, and indexing it skips the ``np.memmap`` subclass hooks that
  every slice and gather of a memmap pays. Allocations create an
  *unlinked* temporary file-backed map, so scratch space is swappable
  and can never leak a file on disk even if the process dies.

An array on disk is an ``.npy`` byte stream — header, then payload —
that starts at some offset of a file: ``0`` for a ``.npy`` file, a
member's page-aligned offset in a store container
(:mod:`repro.store.container`). Both providers parse the header there
(:func:`read_npy_header`) and check that the payload lies inside the
file and inside the member's extent before touching it.

Query results are bit-identical across providers: a memory map aliases
the exact bytes ``resident`` would read, and every kernel consumes the
values, not the storage class.

Select a provider by name (``get_provider("mmap")``), by instance, or
let ``get_provider(None)`` fall back to ``$REPRO_ARRAY_PROVIDER`` and
then ``resident``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, NamedTuple, Optional, Union

import numpy as np

PathLike = Union[str, Path]

ENV_VAR = "REPRO_ARRAY_PROVIDER"


class NpyLayout(NamedTuple):
    """Where and what the payload of one ``.npy`` byte stream is."""

    dtype: np.dtype
    shape: tuple
    order: str  # "C" or "F"
    data_offset: int  # file offset of the payload's first byte

    @property
    def nbytes(self) -> int:
        return int(self.dtype.itemsize * np.prod(self.shape, dtype=np.int64))


def read_npy_header(fh: BinaryIO, offset: int = 0, length: Optional[int] = None) -> NpyLayout:
    """Parse the ``.npy`` header at ``offset`` of the open file ``fh``.

    The payload must fit in the file and, when ``length`` is given, fill
    exactly the ``length`` bytes from ``offset``: anything else raises
    ``ValueError`` before a payload byte is read.
    """
    fh.seek(offset)
    fmt = np.lib.format
    version = fmt.read_magic(fh)
    read = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
    shape, fortran, dtype = read(fh)
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded")
    layout = NpyLayout(dtype, tuple(shape), "F" if fortran else "C", fh.tell())
    size = os.fstat(fh.fileno()).st_size
    end = size if length is None else offset + length
    if end > size:
        raise ValueError("the extent runs past the end of the file (truncated)")
    room = end - layout.data_offset
    if room < layout.nbytes or (length is not None and room != layout.nbytes):
        raise ValueError(f"payload of {layout.nbytes} bytes, {room} in its extent")
    return layout


class ArrayProvider:
    """Interface: load arrays from ``.npy`` byte streams and allocate scratch."""

    name: str = "abstract"

    def load(self, path: PathLike, offset: int = 0, length: Optional[int] = None) -> np.ndarray:
        """Materialize the array whose ``.npy`` stream starts at byte
        ``offset`` of ``path`` and spans ``length`` bytes (to the end of
        the file when ``None``)."""
        raise NotImplementedError

    def allocate(self, shape, dtype) -> np.ndarray:
        """Return a writable zero-initialized array of the given shape/dtype."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class ResidentProvider(ArrayProvider):
    """Heap-resident arrays: full reads, ``np.zeros`` scratch."""

    name = "resident"

    def load(self, path: PathLike, offset: int = 0, length: Optional[int] = None) -> np.ndarray:
        with open(path, "rb") as fh:
            layout = read_npy_header(fh, offset, length)
            arr = np.empty(layout.shape, dtype=layout.dtype, order=layout.order)
            view = memoryview(arr.reshape(-1, order="A").view(np.uint8))
            if fh.readinto(view) != layout.nbytes:
                raise ValueError("short read (truncated payload)")
        return arr

    def allocate(self, shape, dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)


class MmapProvider(ArrayProvider):
    """File-backed arrays: read-only maps for loads, unlinked maps for scratch.

    Args:
        scratch_dir: directory for scratch backing files (default: the
            system temp dir). Backing files are unlinked immediately after
            mapping, so nothing persists — but the filesystem must have
            room for the mapped bytes.
    """

    name = "mmap"

    def __init__(self, scratch_dir: Optional[PathLike] = None) -> None:
        self.scratch_dir = Path(scratch_dir) if scratch_dir is not None else None

    def load(self, path: PathLike, offset: int = 0, length: Optional[int] = None) -> np.ndarray:
        with open(path, "rb") as fh:
            layout = read_npy_header(fh, offset, length)
        return np.memmap(
            path, dtype=layout.dtype, mode="r", offset=layout.data_offset,
            shape=layout.shape, order=layout.order,
        ).view(np.ndarray)

    def allocate(self, shape, dtype) -> np.ndarray:
        shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        directory = str(self.scratch_dir) if self.scratch_dir is not None else None
        fd, tmp = tempfile.mkstemp(suffix=".npy", prefix="repro-scratch-", dir=directory)
        os.close(fd)
        try:
            arr = np.lib.format.open_memmap(tmp, mode="w+", dtype=np.dtype(dtype), shape=shape)
        finally:
            # POSIX keeps the mapping alive after unlink; the pages are
            # reclaimed when the last reference drops.
            os.unlink(tmp)
        return arr


_PROVIDERS: dict[str, ArrayProvider] = {
    ResidentProvider.name: ResidentProvider(),
    MmapProvider.name: MmapProvider(),
}


def available_providers() -> list[str]:
    return sorted(_PROVIDERS)


def get_provider(spec: Union[str, ArrayProvider, None] = None) -> ArrayProvider:
    """Resolve a provider from a name, an instance, or the environment.

    ``None`` consults ``$REPRO_ARRAY_PROVIDER`` and defaults to
    ``resident``. Unknown names raise ``ValueError`` listing the choices.
    """
    if isinstance(spec, ArrayProvider):
        return spec
    if spec is None:
        spec = os.environ.get(ENV_VAR, "") or ResidentProvider.name
    try:
        return _PROVIDERS[spec]
    except KeyError:
        raise ValueError(
            f"unknown array provider {spec!r}; available: {available_providers()}"
        ) from None
