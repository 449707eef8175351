"""The one spelling of a durable write: tmp -> fsync -> ``os.replace`` -> directory fsync.

The stream manifest (JSON) and every store container (and through them
every checkpoint, artifact, graph record and membership history) make a
file durable the same way; this module is the only place that sequence
is written down. The temp file is named by :func:`temp_sibling`, the
shape :func:`repro.store.recover_container` sweeps after a kill.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

PathLike = Union[str, Path]


def fsync_dir(directory: PathLike) -> None:
    """Make a directory's entries (creates, renames, unlinks) durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass


def temp_sibling(path: Path) -> Path:
    """A fresh hidden name beside ``path`` for what will replace it."""
    return path.parent / f".{path.name}.tmp-{os.getpid()}-{os.urandom(4).hex()}"


@contextmanager
def atomic_file(path: PathLike, mode: str = "wb") -> Iterator[IO]:
    """Open a temp file beside ``path``; on a clean exit it *becomes* ``path``.

    The temp file lives in the destination directory (one filesystem, so
    the rename is atomic), is flushed and fsynced once before ``os.replace``,
    and the directory is fsynced after it. A crash or an exception at any
    point leaves the previous ``path`` intact and no temp file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = temp_sibling(path)
    # mode 0o666 less the umask, as open() would create it: the file is
    # the container a server or another user reads, not a private temp
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
