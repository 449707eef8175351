"""The one reader of the ``.npz`` model files written before the container.

Every checkpoint, artifact and membership history is a sealed
:mod:`repro.store` container (DESIGN.md "Persistence"); the loaders read
nothing else. Files older than that stay usable through one verb,
``repro convert SRC DST`` (:func:`convert`), which reads the four legacy
kinds below, writes the container of the matching kind and re-opens it
through that kind's ordinary loader — so everything a converted file is
checked for is what a native one is checked for.

The legacy layout (v1), all four kinds: an ``.npz`` archive, stored or
deflated, whose ``_meta`` member is a 0-d string array holding a JSON
object, beside one member per array.

====================  ==========================================  ===========================
kind                  ``_meta`` (``version`` is 1 throughout)     arrays
====================  ==========================================  ===========================
sampler checkpoint    ``iteration``, ``config``, ``rng_state``,   ``pi``, ``phi_sum``,
                      ``noise_rng_state`` (both JSON *strings*),  ``theta``, optional
                      optional ``perp_count``                     ``perp_prob_sum``
state checkpoint      ``kind: "state"``, ``iteration``,           ``pi``, ``phi_sum``,
                      ``config``                                  ``theta``
serving artifact      ``schema: "repro-serve-artifact/1"``,       ``pi``, ``theta``, ``beta``,
                      ``artifact_version``, ``iteration``,        ``node_ids``,
                      ``config``                                  ``top_communities``,
                                                                  ``top_weights``
membership history    ``window``, ``top_k``,                      ``s<i>_node_ids / _tops /
                      ``event_threshold``,                        _weights / _drift / _perm``
                      ``max_events_per_generation``,              per retained generation,
                      ``generations``, ``events``,                ``ref_pi``, ``ref_ids``,
                      ``last_version``                            ``first_seen``
====================  ==========================================  ===========================

``config`` is the JSON string of the full :class:`~repro.config.AMMSBConfig`
in every kind and is carried over verbatim. The arrays keep their names;
only the metadata moves, into the container manifest's sealed ``meta``.
"""

from __future__ import annotations

import json
import shutil
import zipfile
import zlib
from pathlib import Path
from typing import Callable, NamedTuple, Union

import numpy as np

from repro.core.checkpoint import STATE_KIND, load_state_checkpoint
from repro.serve.artifact import ARTIFACT_KIND, FORMAT_VERSION, load_artifact
from repro.store import write_container
from repro.stream.tracking import HISTORY_KIND, MembershipHistory

PathLike = Union[str, Path]


class ConvertError(ValueError):
    """``SRC`` is not a legacy model file this module reads, ``DST`` is
    taken, or the converted container fails its kind's loader."""

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")


class _Kind(NamedTuple):
    name: str
    matches: Callable[[dict], bool]  # on the legacy ``_meta`` object
    container_kind: str
    carried: tuple[str, ...]  # ``_meta`` keys copied into the sealed meta
    added: dict  # meta the container kind wants and v1 did not record
    reopen: Callable[[Path], object]  # the kind's ordinary loader


_KINDS = (
    _Kind(
        "serving artifact",
        lambda m: m.get("schema") == "repro-serve-artifact/1",
        ARTIFACT_KIND,
        ("artifact_version", "iteration", "config"),
        {"format_version": FORMAT_VERSION},
        lambda p: load_artifact(p, verify="full"),
    ),
    _Kind(
        "membership history",
        lambda m: "window" in m,
        HISTORY_KIND,
        ("window", "top_k", "event_threshold", "max_events_per_generation",
         "generations", "events", "last_version"),
        {},
        MembershipHistory.load,
    ),
    _Kind(
        "state checkpoint",
        lambda m: m.get("kind") == "state",
        STATE_KIND,
        ("iteration", "config"),
        {},
        load_state_checkpoint,
    ),
    _Kind(
        "sampler checkpoint",
        lambda m: "rng_state" in m,
        STATE_KIND,
        ("iteration", "config", "rng_state", "noise_rng_state", "perp_count"),
        {},
        load_state_checkpoint,
    ),
)
#: stored as JSON strings inside the JSON ``_meta``; plain objects in a manifest
_JSON_STRINGS = ("rng_state", "noise_rng_state")


def read_legacy(src: PathLike) -> tuple[_Kind, dict, dict[str, np.ndarray]]:
    """``(kind, container meta, arrays)`` of one legacy ``.npz`` model file."""
    src = Path(src)
    if not src.is_file():
        raise ConvertError(src, "is not a file (a container directory needs no conversion)")
    try:
        with np.load(str(src), allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, TypeError, ValueError) as exc:
        raise ConvertError(src, f"not a readable .npz archive ({exc})") from exc
    try:
        legacy_meta = json.loads(str(arrays.pop("_meta")))
        kind = next(k for k in _KINDS if k.matches(legacy_meta))
        meta = {key: legacy_meta[key] for key in kind.carried if key in legacy_meta}
        for key in _JSON_STRINGS:
            if key in meta:
                meta[key] = json.loads(meta[key])
    except (KeyError, StopIteration, TypeError, ValueError, AttributeError) as exc:
        raise ConvertError(
            src, "no _meta record of a legacy checkpoint, artifact or history"
        ) from exc
    return kind, {**meta, **kind.added}, arrays


def convert(src: PathLike, dst: PathLike) -> tuple[str, Path]:
    """Convert the legacy ``.npz`` at ``src`` into the container ``dst``
    (which must not exist); returns ``(legacy kind name, dst)``."""
    dst = Path(dst)
    if dst.exists():
        raise ConvertError(dst, "destination exists")
    kind, meta, arrays = read_legacy(src)
    try:
        write_container(dst, arrays, kind=kind.container_kind, meta=meta, overwrite=False)
        kind.reopen(dst)
    except ValueError as exc:  # StoreError and the loaders' typed errors all are
        shutil.rmtree(dst, ignore_errors=True)
        raise ConvertError(src, f"converted {kind.name} does not load ({exc})") from exc
    return kind.name, dst
