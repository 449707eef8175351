"""Checkpoint / resume for long sampling runs.

The paper's convergence runs take up to ~40 hours (Figure 6); any
production deployment needs durable checkpoints. An iteration is a pure
function of (seed, t, state) — every random number, the mini-batch draw
included, is keyed by iteration — so a checkpoint is the model state
(pi, phi_sum, theta), the iteration counter and the configuration, plus
the held-out perplexity window when a sampler tracks one. A resumed run
continues **bit-for-bit identically** to an uninterrupted one, on any
engine (verified in ``tests/test_checkpoint.py`` and
``tests/test_mp_backend.py``).

Format: a sealed :mod:`repro.store` container (DESIGN.md "Persistence")
— one raw ``.npy`` per array, iteration / config / window count in the
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

One container shape: :func:`save_checkpoint` is
:func:`save_state_checkpoint` plus the sampler's perplexity window.
:func:`load_checkpoint` resumes a sampler from any container that holds
a state — either checkpoint, an exported artifact
(:func:`repro.serve.artifact.export_artifact`: ``detect --export-artifact``,
a stream generation's model container) — and :func:`load_state_checkpoint`
reads the same containers as ``(state, iteration, config)``. An
``rng_state`` key that earlier writers left in the meta is ignored, and
so is the retired ``sample_window`` config field.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Union

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core.perplexity import PerplexityEstimator
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


#: a config field older writers saved and nothing read; dropped on load
RETIRED_CONFIG_FIELD = "sample_window"


def _config_from_json(path: PathLike, blob: str) -> AMMSBConfig:
    """Rebuild the **full** saved config, or raise a typed error.

    The saved field set must match :class:`AMMSBConfig` exactly: a missing
    field (e.g. ``kernel_backend`` from a writer that predates it) must
    not be silently defaulted — the default could differ from what the
    run actually used (``kernel_backend`` even reads an environment
    variable) and change numerics on resume. Unknown fields mean the file
    comes from a newer writer and would otherwise die as a raw
    ``TypeError`` inside the dataclass constructor. The one exception is
    :data:`RETIRED_CONFIG_FIELD`, which older writers saved and nothing
    ever read: it is dropped.
    """
    try:
        d = json.loads(blob)
    except (json.JSONDecodeError, TypeError) as exc:
        raise CheckpointError(path, f"unreadable config ({exc})") from exc
    if not isinstance(d, dict):
        raise CheckpointError(path, "config record is not an object")
    d.pop(RETIRED_CONFIG_FIELD, None)
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


def save_checkpoint(path: PathLike, sampler: AMMSBSampler) -> Path:
    """Atomically write the sampler's checkpoint at ``path``: its state
    container (:func:`save_state_checkpoint`) plus the perplexity
    window, its running sum a member and its count in the sealed meta."""
    return _write_state(
        path, sampler.state, sampler.iteration, sampler.config, sampler.perplexity_estimator
    )


def load_checkpoint(path: PathLike, graph, heldout=None) -> AMMSBSampler:
    """Reconstruct a sampler from any state container.

    Args:
        path: a checkpoint or an exported artifact (``detect
            --export-artifact``, a stream generation's model container).
        graph: the training graph the run used (graphs are large and
            deterministic to regenerate, so they are not embedded).
        heldout: the held-out split the run used, if any (required to
            resume perplexity tracking; the window is restored when the
            container holds one).

    Returns:
        A sampler that continues exactly where the saved one stopped.

    Raises:
        CheckpointError: the path is missing or a regular file, a member
            or the manifest is damaged, required keys are missing, or the
            state fails validation.
    """
    container, state, iteration, config = _read_state(path)
    sampler = AMMSBSampler(graph, config, heldout=heldout, state=state)
    sampler.iteration = iteration
    est = sampler.perplexity_estimator
    if est is not None and "perp_prob_sum" in container:
        try:
            est._prob_sum = container.array("perp_prob_sum")
            est._count = int(container.meta.get("perp_count", 0))
        except (TypeError, ValueError) as exc:  # StoreError is a ValueError
            raise CheckpointError(path, f"invalid metadata ({exc})") from exc
    return sampler


def save_state_checkpoint(
    path: PathLike, state: ModelState, iteration: int, config: AMMSBConfig
) -> Path:
    """Atomically write a model state container: ``pi``, ``phi_sum``,
    ``theta`` with ``iteration`` and ``config`` in the sealed meta.

    The portable subset every backend shares — how a caller checkpoints
    a multiprocess run (``s.state_snapshot()``, ``s.iteration``), and the
    stream's warm start.
    """
    return _write_state(path, state, iteration, config, None)


def _write_state(
    path: PathLike, state: ModelState, iteration: int, config: AMMSBConfig,
    window: Optional[PerplexityEstimator],
) -> Path:
    meta = {"iteration": int(iteration), "config": _config_to_json(config)}
    arrays = {"pi": state.pi, "phi_sum": state.phi_sum, "theta": state.theta}
    if window is not None:
        arrays["perp_prob_sum"] = window._prob_sum
        meta["perp_count"] = window.n_samples
    return write_container(path, arrays, kind=STATE_KIND, meta=meta)


def load_state_checkpoint(path: PathLike) -> tuple[ModelState, int, AMMSBConfig]:
    """Read a model-state checkpoint: ``(state, iteration, config)``.

    ``path`` is any sealed container holding ``pi``, ``phi_sum`` and
    ``theta`` with ``iteration`` and ``config`` in its meta: what
    :func:`save_state_checkpoint`, :func:`save_checkpoint` and
    :func:`repro.serve.artifact.export_artifact` write. It is read in
    full and every array digest verified before the state is adopted.

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
