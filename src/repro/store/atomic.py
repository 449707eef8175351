"""The one spelling of a durable write: tmp -> fsync -> ``os.replace`` -> directory fsync.

The stream manifest (JSON) and every store container (and through them
every checkpoint, artifact, graph record and membership history) make a
file durable the same way; this module is the only place that sequence
is written down. The temp file is named by :func:`temp_sibling`, the
shape :func:`repro.store.recover_container` sweeps after a kill.

A write may keep the inode it replaces as a *spare* (``spare=``), which
the next write to the same role writes over instead of creating a file:
on a disk that discards freed blocks, dropping a file's last link waits
tens of milliseconds, while overwriting one costs what the write costs
(EXPERIMENTS.md, "A steady generation frees no file"). Only files whose
readers copy them use a spare — the stream manifest, delta containers
and the membership history — never a file a reader may map (a model
container, a CSR snapshot) or one that is appended to (a journal
segment). A stream workdir therefore holds what two manifests name plus
at most one spare per role; :func:`spare_sibling` names them, and no
sweep removes them.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Optional, Union

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


def spare_sibling(path: Path) -> Path:
    """The hidden name beside ``path`` where the inode a write to it
    replaces waits for the next write."""
    return path.parent / f".{path.name}.spare"


def _take_spare(spare: Path, tmp: Path) -> Optional[int]:
    """Rename ``spare`` to ``tmp`` and open it for writing from offset 0,
    if it is a regular file and that name is its only link. Otherwise
    remove the name (which frees nothing while another name holds the
    inode — after a kill between the link to the spare name and the
    replace, the spare *is* the live file) and return None."""
    try:
        st = os.lstat(spare)
    except FileNotFoundError:
        return None
    if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
        os.rename(spare, tmp)
        return os.open(tmp, os.O_WRONLY | os.O_NOFOLLOW)
    try:
        os.unlink(spare)
    except OSError:  # a directory: left alone, and not made a spare below
        pass
    return None


@contextmanager
def atomic_file(
    path: PathLike, mode: str = "wb", spare: Optional[PathLike] = None
) -> Iterator[IO]:
    """Open a temp file beside ``path``; on a clean exit it *becomes* ``path``.

    The temp file lives in the destination directory (one filesystem, so
    the rename is atomic), is flushed, truncated to what was written and
    fsynced once before ``os.replace``, and the directory is fsynced
    after it. A crash or an exception at any point leaves the previous
    ``path`` intact and no temp file behind.

    With ``spare``, the temp file is that file renamed, written over from
    offset 0 (when it is a regular file with one link), and the file
    ``path`` held is linked to the ``spare`` name just before the
    replace: the write frees no inode. A kill leaves either the old
    ``path`` with at most a temp file (swept by the next writer) or,
    between the link and the replace, a spare that is the live file's
    second name, which the next write does not reuse.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = temp_sibling(path)
    fd = _take_spare(Path(spare), tmp) if spare is not None else None
    if fd is None:
        # mode 0o666 less the umask, as open() would create it: the file
        # is the container a server or another user reads, not a private temp
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            fh.truncate()  # a spare may have held more than this write
            os.fsync(fh.fileno())
        if spare is not None:
            # the file being replaced keeps a name, so the replace frees no
            # inode; with no file at ``path``, no hard links here or the
            # name taken by a directory, the replace frees it as before
            try:
                os.link(path, spare, follow_symlinks=False)
            except OSError:
                pass
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
