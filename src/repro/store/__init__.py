"""Out-of-core storage tier: array providers + atomic digest-sealed containers.

``repro.store`` is the memory architecture under the million-node path
(DESIGN.md section 10): an :class:`~repro.store.provider.ArrayProvider`
abstraction (``resident`` heap arrays vs read-only ``mmap`` views) and an
atomic on-disk :class:`~repro.store.container.Container` format (one raw
``.npy`` per array + a sha256-sealed JSON manifest) that the serving
tier's v2 artifacts, the CSR graph container and the stream tier's
per-generation state are all built on. :mod:`repro.store.atomic` is the
one durable-write helper every tier's persistence goes through.
"""

from repro.store.atomic import atomic_file, fsync_dir
from repro.store.container import (
    Container,
    StoreCorrupt,
    StoreError,
    content_version,
    is_container,
    link_container,
    read_manifest,
    recover_container,
    recover_containers,
    write_container,
)
from repro.store.provider import (
    ArrayProvider,
    MmapProvider,
    ResidentProvider,
    available_providers,
    get_provider,
)

__all__ = [
    "Container",
    "StoreCorrupt",
    "StoreError",
    "content_version",
    "is_container",
    "link_container",
    "read_manifest",
    "recover_container",
    "recover_containers",
    "write_container",
    "atomic_file",
    "fsync_dir",
    "ArrayProvider",
    "MmapProvider",
    "ResidentProvider",
    "available_providers",
    "get_provider",
]
