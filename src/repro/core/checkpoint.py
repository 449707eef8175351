"""Checkpoint / resume for long sampling runs.

The paper's convergence runs take up to ~40 hours (Figure 6); any
production deployment needs durable checkpoints. A checkpoint captures
the model state (pi, phi_sum, theta), the iteration counter, the
configuration, and the exact RNG states, so a resumed run continues
**bit-for-bit identically** to an uninterrupted one (verified in
``tests/test_checkpoint.py``).

Format: a sealed :mod:`repro.store` container (DESIGN.md "Persistence")
— one raw ``.npy`` per array, iteration / config / RNG streams in the
manifest's sealed ``meta`` — the same format a stream generation, a
serving artifact and the membership history use. The write is atomic
(temp directory, fsync, rename: a crash mid-write leaves the previous
checkpoint under the name) and every member's sha256 is recorded while
it is written; a load reads every byte and verifies every digest before
the state is adopted. Anything wrong at load time (missing path, damaged
member, edited manifest, missing keys, a state that fails validation)
surfaces as a typed :class:`CheckpointError` naming the offending path.
A regular file at the path is refused with the same error: ``.npz``
checkpoints written before this format are read by ``repro convert``
(:mod:`repro.legacy`) and by nothing else.

Two granularities are offered:

- :func:`save_checkpoint` / :func:`load_checkpoint` — full single-process
  sampler state including RNG streams (bit-exact resume);
- :func:`save_state_checkpoint` / :func:`load_state_checkpoint` — model
  state + iteration + config only, backend-agnostic. Used by the
  multiprocess runtime's auto-checkpointing, where per-worker RNG
  streams live in other processes and a resume restarts them from seed
  (coarse-grained disaster recovery). :func:`load_state_checkpoint`
  reads every container that holds a state: either checkpoint above, or
  a stream generation's model container.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.sampler import AMMSBSampler
from repro.core.state import ModelState
from repro.store.container import Container, StoreError, write_container

PathLike = Union[str, Path]

#: kind tag of a store container that holds a model state and nothing to
#: serve from: either checkpoint of this module, or a stream generation
#: whose rows failed the serving checks
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


def open_model_container(
    path: PathLike, provider: str = "resident", verify: str = "eager"
) -> Container:
    """Open the container a model file must be, or say why it is not one.

    The one place a model loader (checkpoint, artifact, membership
    history) meets a path: a missing path and a regular file — what a
    writer older than the container format left — get their own
    :class:`~repro.store.container.StoreError` reason, which each loader
    re-raises as its typed error.
    """
    p = Path(path)
    if not p.exists():
        raise StoreError(p, "does not exist")
    if not p.is_dir():
        raise StoreError(
            p,
            "is a regular file, not a store container; a legacy .npz is "
            "read by `repro convert SRC DST` only",
        )
    return Container(p, provider=provider, verify=verify)


def _state_arrays(state: ModelState) -> dict[str, np.ndarray]:
    return {"pi": state.pi, "phi_sum": state.phi_sum, "theta": state.theta}


def save_checkpoint(path: PathLike, sampler: AMMSBSampler) -> Path:
    """Atomically write the sampler's full state as a container at ``path``:
    the state arrays and the perplexity window's running sum as members,
    iteration, config, both RNG streams and the window's count in the
    sealed meta."""
    meta = {
        "iteration": sampler.iteration,
        "config": _config_to_json(sampler.config),
        "rng_state": sampler.rng.bit_generator.state,
        "noise_rng_state": sampler.noise_rng.bit_generator.state,
    }
    arrays = _state_arrays(sampler.state)
    est = sampler.perplexity_estimator
    if est is not None:
        arrays["perp_prob_sum"] = est._prob_sum
        meta["perp_count"] = est.n_samples
    return write_container(path, arrays, kind=STATE_KIND, meta=meta)


def load_checkpoint(path: PathLike, graph, heldout=None) -> AMMSBSampler:
    """Reconstruct a sampler from a checkpoint.

    Args:
        path: checkpoint container.
        graph: the training graph the run used (graphs are large and
            deterministic to regenerate, so they are not embedded).
        heldout: the held-out split the run used, if any (required to
            resume perplexity tracking).

    Returns:
        A sampler that continues exactly where the saved one stopped.

    Raises:
        CheckpointError: the path is missing or a regular file, a member
            or the manifest is damaged, required keys are missing (a
            state-only checkpoint has no RNG streams), or the state
            fails validation.
    """
    container, state, iteration, config = _read_state(path)
    meta = container.meta
    if "rng_state" not in meta or "noise_rng_state" not in meta:
        raise CheckpointError(path, "holds a model state but no RNG streams (a state checkpoint)")
    sampler = AMMSBSampler(graph, config, heldout=heldout, state=state)
    sampler.iteration = iteration
    try:
        sampler.rng.bit_generator.state = meta["rng_state"]
        sampler.noise_rng.bit_generator.state = meta["noise_rng_state"]
        est = sampler.perplexity_estimator
        if est is not None and "perp_prob_sum" in container:
            est._prob_sum = container.array("perp_prob_sum")
            est._count = int(meta.get("perp_count", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(path, f"invalid metadata ({exc})") from exc
    return sampler


# -- backend-agnostic model-state checkpoints ---------------------------------


def save_state_checkpoint(
    path: PathLike, state: ModelState, iteration: int, config: AMMSBConfig
) -> Path:
    """Atomically write a bare model state (no RNG streams).

    The portable subset every backend shares — used by the multiprocess
    runtime's auto-checkpointing and as the stream's warm start.
    """
    meta = {"iteration": int(iteration), "config": _config_to_json(config)}
    return write_container(path, _state_arrays(state), kind=STATE_KIND, meta=meta)


def load_state_checkpoint(path: PathLike) -> tuple[ModelState, int, AMMSBConfig]:
    """Read a model-state checkpoint: ``(state, iteration, config)``.

    ``path`` is any sealed container holding ``pi``, ``phi_sum`` and
    ``theta`` with ``iteration`` and ``config`` in its meta: what
    :func:`save_state_checkpoint`, :func:`save_checkpoint` and a stream
    generation write. It is read in full and every array digest verified
    before the state is adopted.

    Raises:
        CheckpointError: missing path, regular file, damaged member or
            manifest, missing keys, or a state that fails validation.
    """
    return _read_state(path)[1:]


def _read_state(path: PathLike) -> tuple[Container, ModelState, int, AMMSBConfig]:
    try:
        container = open_model_container(path)
        try:
            iteration, blob = int(container.meta["iteration"]), container.meta["config"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(path, f"invalid metadata ({exc})") from exc
        config = _config_from_json(path, blob)
        state = ModelState(
            pi=container.array("pi"),
            phi_sum=container.array("phi_sum"),
            theta=container.array("theta"),
        )
    except StoreError as exc:  # StoreCorrupt included
        raise CheckpointError(path, exc.reason) from exc
    try:
        state.validate()
    except ValueError as exc:
        raise CheckpointError(path, f"invalid state ({exc})") from exc
    return container, state, iteration, config
