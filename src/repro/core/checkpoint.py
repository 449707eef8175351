"""Checkpoint / resume for long sampling runs.

The paper's convergence runs take up to ~40 hours (Figure 6); any
production deployment needs durable checkpoints. A checkpoint captures
the model state (pi, phi_sum, theta), the iteration counter, the
configuration, and the exact RNG states, so a resumed run continues
**bit-for-bit identically** to an uninterrupted one (verified in
``tests/test_checkpoint.py``).

Format: a single ``.npz`` with arrays plus JSON-encoded metadata. (The
stream tier writes its per-generation state as a sealed
:mod:`repro.store` container instead — the same files are the serving
artifact; :func:`load_state_checkpoint` reads either.)

Durability: checkpoints are written *atomically* through
:func:`repro.store.atomic.atomic_file` — the archive is serialized to a
temporary file in the target directory, fsynced, and renamed over the
destination with ``os.replace``. A crash mid-write
(power loss, OOM-killed master) can therefore never leave a truncated
checkpoint under the real name; the previous checkpoint survives intact.
Anything wrong with a checkpoint at load time (missing file, corrupt or
truncated archive, missing keys, unreadable metadata) surfaces as a
typed :class:`CheckpointError` naming the offending path, instead of a
raw ``zipfile``/``KeyError`` leaking from the internals.

Two granularities are offered:

- :func:`save_checkpoint` / :func:`load_checkpoint` — full single-process
  sampler state including RNG streams (bit-exact resume);
- :func:`save_state_checkpoint` / :func:`load_state_checkpoint` — model
  state + iteration + config only, backend-agnostic. Used by the
  multiprocess runtime's auto-checkpointing, where per-worker RNG
  streams live in other processes and a resume restarts them from seed
  (coarse-grained disaster recovery).
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.sampler import AMMSBSampler
from repro.core.state import ModelState
from repro.store.atomic import atomic_file
from repro.store.container import Container, StoreError, is_container

PathLike = Union[str, Path]

FORMAT_VERSION = 1

#: kind tag of a store container that holds a model state and nothing to
#: serve from (a stream generation whose rows failed the serving checks)
STATE_KIND = "repro-model-state/1"


class CheckpointError(ValueError):
    """A checkpoint could not be read or fails validation.

    Subclasses :class:`ValueError` so callers guarding with the generic
    exception keep working; carries the offending ``path`` so operators
    know *which* file to discard or restore from backup.
    """

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"checkpoint {self.path}: {reason}")


def _config_to_json(config: AMMSBConfig) -> str:
    d = dataclasses.asdict(config)
    return json.dumps(d)


def _config_from_json(path: PathLike, blob: str) -> AMMSBConfig:
    """Rebuild the **full** saved config, or raise a typed error.

    The saved field set must match :class:`AMMSBConfig` exactly: a missing
    field (e.g. ``kernel_backend`` from a writer that predates it) must
    not be silently defaulted — the default could differ from what the
    run actually used (``kernel_backend`` even reads an environment
    variable) and change numerics on resume. Unknown fields mean the file
    comes from a newer writer and would otherwise die as a raw
    ``TypeError`` inside the dataclass constructor.
    """
    try:
        d = json.loads(blob)
    except (json.JSONDecodeError, TypeError) as exc:
        raise CheckpointError(path, f"unreadable config ({exc})") from exc
    if not isinstance(d, dict):
        raise CheckpointError(path, "config record is not an object")
    expected = {f.name for f in dataclasses.fields(AMMSBConfig)}
    missing = sorted(expected - d.keys())
    unknown = sorted(d.keys() - expected)
    if missing or unknown:
        parts = []
        if missing:
            parts.append(f"missing config field(s) {missing}")
        if unknown:
            parts.append(f"unknown config field(s) {unknown}")
        raise CheckpointError(path, "; ".join(parts))
    try:
        d["step_phi"] = StepSizeConfig(**d["step_phi"])
        d["step_theta"] = StepSizeConfig(**d["step_theta"])
        d["eta"] = tuple(d["eta"])
        return AMMSBConfig(**d)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(path, f"invalid config value ({exc})") from exc


def _atomic_savez(path: PathLike, compress: bool = True, **arrays) -> Path:
    """Write an ``.npz`` atomically: temp file + fsync + ``os.replace``.

    ``np.savez`` appends ``.npz`` when given a bare name, so the archive
    is serialized through an explicit file object instead; the temp file
    lives in the destination directory to keep the final rename within
    one filesystem. ``compress=False`` writes a stored (uncompressed)
    archive — see :func:`save_checkpoint` for the tradeoff.
    """
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_name(target.name + ".npz")
    savez = np.savez_compressed if compress else np.savez
    with atomic_file(target) as fh:
        savez(fh, **arrays)
    return target


def _open_archive(path: PathLike):
    """``np.load`` with typed error translation (missing/corrupt files)."""
    p = Path(path)
    if not p.exists():
        raise CheckpointError(p, "file does not exist")
    try:
        return np.load(str(p), allow_pickle=False)
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise CheckpointError(p, f"corrupt or truncated archive ({exc})") from exc


def _read_meta(path: PathLike, data) -> dict:
    try:
        meta = json.loads(str(data["_meta"]))
    except KeyError as exc:
        raise CheckpointError(path, "missing _meta record") from exc
    except (json.JSONDecodeError, ValueError) as exc:
        raise CheckpointError(path, f"unreadable metadata ({exc})") from exc
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            path, f"unsupported checkpoint version {meta.get('version')}"
        )
    return meta


def _read_array(path: PathLike, data, key: str) -> np.ndarray:
    try:
        return data[key].copy()
    except KeyError as exc:
        raise CheckpointError(path, f"missing array {key!r}") from exc
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise CheckpointError(path, f"array {key!r} unreadable ({exc})") from exc


def save_checkpoint(path: PathLike, sampler: AMMSBSampler, compress: bool = False) -> Path:
    """Atomically write the sampler's full state to ``path`` (.npz).

    Args:
        compress: ``False`` (default) writes a stored archive (plain
            ``np.savez``) at disk bandwidth; ``True`` writes
            ``np.savez_compressed``, for archival. The state is random
            gamma draws and barely compresses: at N=5·10^4, K=32
            (13.2 MB stored) zlib saves 21 % of the bytes and takes 15x
            the time (398 ms against 26 ms), a stall every caller — the
            stream's generation loop, the mp runtime's auto-checkpoint,
            ``detect --checkpoint`` — pays at its checkpoint cadence.
            Loads auto-detect either variant.
    """
    meta = {
        "version": FORMAT_VERSION,
        "iteration": sampler.iteration,
        "config": _config_to_json(sampler.config),
        "rng_state": json.dumps(sampler.rng.bit_generator.state),
        "noise_rng_state": json.dumps(sampler.noise_rng.bit_generator.state),
    }
    arrays = {
        "pi": sampler.state.pi,
        "phi_sum": sampler.state.phi_sum,
        "theta": sampler.state.theta,
    }
    est = sampler.perplexity_estimator
    if est is not None:
        arrays["perp_prob_sum"] = est._prob_sum
        meta["perp_count"] = est.n_samples
    return _atomic_savez(path, compress=compress, _meta=json.dumps(meta), **arrays)


def load_checkpoint(path: PathLike, graph, heldout=None) -> AMMSBSampler:
    """Reconstruct a sampler from a checkpoint.

    Args:
        path: checkpoint file.
        graph: the training graph the run used (graphs are large and
            deterministic to regenerate, so they are not embedded).
        heldout: the held-out split the run used, if any (required to
            resume perplexity tracking).

    Returns:
        A sampler that continues exactly where the saved one stopped.

    Raises:
        CheckpointError: the file is missing, corrupt, truncated, lacks
            required keys, or holds a state that fails validation.
    """
    with _open_archive(path) as data:
        meta = _read_meta(path, data)
        try:
            config = _config_from_json(path, meta["config"])
            iteration = int(meta["iteration"])
            rng_state = json.loads(meta["rng_state"])
            noise_rng_state = json.loads(meta["noise_rng_state"])
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(path, f"invalid metadata ({exc})") from exc
        state = ModelState(
            pi=_read_array(path, data, "pi"),
            phi_sum=_read_array(path, data, "phi_sum"),
            theta=_read_array(path, data, "theta"),
        )
        sampler = AMMSBSampler(graph, config, heldout=heldout, state=state)
        sampler.iteration = iteration
        sampler.rng.bit_generator.state = rng_state
        sampler.noise_rng.bit_generator.state = noise_rng_state
        if sampler.perplexity_estimator is not None and "perp_prob_sum" in data:
            sampler.perplexity_estimator._prob_sum = data["perp_prob_sum"].copy()
            sampler.perplexity_estimator._count = int(meta.get("perp_count", 0))
    try:
        state.validate()
    except ValueError as exc:
        raise CheckpointError(path, f"invalid state ({exc})") from exc
    return sampler


# -- backend-agnostic model-state checkpoints ---------------------------------


def save_state_checkpoint(
    path: PathLike,
    state: ModelState,
    iteration: int,
    config: AMMSBConfig,
    compress: bool = False,
) -> Path:
    """Atomically write a bare model state (no RNG streams).

    The portable subset every backend shares — used by the multiprocess
    runtime's auto-checkpointing and as the stream's warm start. A
    stored archive unless ``compress=True`` (see :func:`save_checkpoint`
    for the tradeoff).
    """
    meta = {
        "version": FORMAT_VERSION,
        "kind": "state",
        "iteration": int(iteration),
        "config": _config_to_json(config),
    }
    return _atomic_savez(
        path,
        compress=compress,
        _meta=json.dumps(meta),
        pi=state.pi,
        phi_sum=state.phi_sum,
        theta=state.theta,
    )


def load_state_checkpoint(path: PathLike) -> tuple[ModelState, int, AMMSBConfig]:
    """Read a model-state checkpoint: ``(state, iteration, config)``.

    ``path`` is either the ``.npz`` :func:`save_state_checkpoint` writes
    or a sealed :mod:`repro.store` container holding ``pi``, ``phi_sum``
    and ``theta`` with ``iteration`` and ``config`` in its meta (what a
    stream generation writes). A container is read in full and every
    array digest verified before the state is adopted.

    Raises:
        CheckpointError: missing/corrupt file, missing keys, or a state
            that fails validation.
    """
    if is_container(path):
        state, iteration, config = _load_state_container(path)
    else:
        with _open_archive(path) as data:
            meta = _read_meta(path, data)
            iteration, config = _clock_and_config(path, meta)
            state = ModelState(
                pi=_read_array(path, data, "pi"),
                phi_sum=_read_array(path, data, "phi_sum"),
                theta=_read_array(path, data, "theta"),
            )
    try:
        state.validate()
    except ValueError as exc:
        raise CheckpointError(path, f"invalid state ({exc})") from exc
    return state, iteration, config


def _clock_and_config(path: PathLike, meta: dict) -> tuple[int, AMMSBConfig]:
    try:
        return int(meta["iteration"]), _config_from_json(path, meta["config"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(path, f"invalid metadata ({exc})") from exc


def _load_state_container(path: PathLike) -> tuple[ModelState, int, AMMSBConfig]:
    try:
        container = Container(path, provider="resident", verify="eager")
        iteration, config = _clock_and_config(path, container.meta)
        state = ModelState(
            pi=container.array("pi"),
            phi_sum=container.array("phi_sum"),
            theta=container.array("theta"),
        )
    except StoreError as exc:  # StoreCorrupt included
        raise CheckpointError(path, exc.reason) from exc
    return state, iteration, config
