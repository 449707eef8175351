"""Array providers: a small indirection over where big arrays live.

The storage tier separates *what* an array is (shape, dtype, contents)
from *where* it is materialized. Two providers cover the reproduction's
needs:

- ``resident`` — plain heap ndarrays. Loads read the whole file into
  anonymous memory; allocations are ``np.zeros``. This is the default
  for training-sized problems and the only provider whose arrays are
  safe to mutate freely.
- ``mmap`` — file-backed memory maps. Loads return a read-only plain
  ``np.ndarray`` view of an ``np.memmap`` (its ``.base``) over the
  on-disk ``.npy`` payload: RSS grows only with the pages actually
  touched, and the kernel may evict them under pressure. The view is
  zero-copy, and indexing it skips the ``np.memmap`` subclass hooks that
  every slice and gather of a memmap pays. Allocations create an
  *unlinked* temporary file-backed map, so scratch space is swappable
  and can never leak a file on disk even if the process dies.

Query results are bit-identical across providers: a memory map of an
``.npy`` file aliases the exact bytes ``resident`` would read, and every
kernel consumes the values, not the storage class.

Select a provider by name (``get_provider("mmap")``), by instance, or
let ``get_provider(None)`` fall back to ``$REPRO_ARRAY_PROVIDER`` and
then ``resident``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

PathLike = Union[str, Path]

ENV_VAR = "REPRO_ARRAY_PROVIDER"


class ArrayProvider:
    """Interface: load arrays from ``.npy`` files and allocate scratch."""

    name: str = "abstract"

    def load(self, path: PathLike) -> np.ndarray:
        """Materialize the array stored at ``path`` (a ``.npy`` file)."""
        raise NotImplementedError

    def allocate(self, shape, dtype) -> np.ndarray:
        """Return a writable zero-initialized array of the given shape/dtype."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class ResidentProvider(ArrayProvider):
    """Heap-resident arrays: full reads, ``np.zeros`` scratch."""

    name = "resident"

    def load(self, path: PathLike) -> np.ndarray:
        return np.load(str(path), allow_pickle=False)

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

    def load(self, path: PathLike) -> np.ndarray:
        return np.load(str(path), mmap_mode="r", allow_pickle=False).view(np.ndarray)

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
