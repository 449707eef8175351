"""Cross-generation community alignment, drift scores, and change events.

Each streaming generation publishes a fresh :class:`~repro.serve
.artifact.ModelArtifact`, but MMSB posteriors are identifiable only up
to a relabeling of the K communities — community 3 of generation 7 need
not be community 3 of generation 8. :class:`MembershipHistory` restores
a single label space across generations:

- **alignment** — every recorded artifact's pi is permuted to best match
  the *previous aligned* generation over the node rows the two share
  (:func:`repro.core.estimation.align_communities`, Hungarian with the
  deterministic tie-break). Aligning each generation to its aligned
  predecessor composes the permutations, so all snapshots live in the
  generation-0 ("canonical") label space.
- **drift scores** — per community, ``1 - cosine(prev column, new
  column)`` over the shared rows: 0 for an unchanged community, toward 1
  as its membership profile rotates away.
- **events** — per shared node, a :class:`DriftEvent` when its dominant
  community changed or its membership row moved more than
  ``event_threshold`` in L1.

The history keeps a bounded ring (``window`` generations) of *top-K*
snapshots — not full pi matrices — plus one full aligned pi as the next
alignment reference, so memory stays O(window · N · top_k) no matter how
long the stream runs. It is the storage behind the serving tier's
``membership_drift`` endpoint and is retained across artifact hot-swaps.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.checkpoint import open_model_container
from repro.core.estimation import align_communities
from repro.serve.artifact import DEFAULT_TOP_K, ModelArtifact, _top_communities
from repro.store import StoreError, write_container
from repro.stream.delta import StreamError

PathLike = Union[str, Path]

#: store-container kind tag of a persisted history
HISTORY_KIND = "repro-membership-history/1"


@dataclass(frozen=True)
class DriftEvent:
    """One node's membership changed notably between two generations.

    ``kind`` is ``"top-change"`` (dominant community flipped; implies
    the L1 test may or may not also fire) or ``"shift"`` (same dominant
    community, but total membership moved more than the threshold).
    Community labels are in canonical (generation-0 aligned) space.
    """

    node: int
    generation: int
    kind: str
    old_top: int
    new_top: int
    l1_change: float


@dataclass(frozen=True)
class _Snapshot:
    """One generation's aligned top-K memberships (ring-buffer entry)."""

    generation: int
    node_ids: np.ndarray  # (N,) external ids, row order
    top_communities: np.ndarray  # (N, top_k) canonical labels
    top_weights: np.ndarray  # (N, top_k)
    community_drift: np.ndarray  # (K,) vs previous generation; zeros for first
    permutation: np.ndarray  # artifact label -> canonical label composition


class MembershipHistory:
    """Bounded ring of aligned membership snapshots across generations.

    Thread-safe: :meth:`record` runs on the publisher thread while
    :meth:`drift` answers queries from server workers.

    Args:
        window: generations retained (older snapshots fall off the ring).
        top_k: communities kept per node per snapshot.
        event_threshold: L1 movement that turns a membership shift into a
            :class:`DriftEvent` even when the dominant community held.
        max_events_per_generation: cap on emitted events per generation
            (largest movers win), bounding event memory on noisy streams.
    """

    def __init__(
        self,
        window: int = 8,
        top_k: int = DEFAULT_TOP_K,
        event_threshold: float = 0.25,
        max_events_per_generation: int = 1024,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < event_threshold <= 2.0:
            raise ValueError("event_threshold must be in (0, 2]")
        self.window = int(window)
        self.top_k = int(top_k)
        self.event_threshold = float(event_threshold)
        self.max_events_per_generation = int(max_events_per_generation)
        self._lock = threading.Lock()
        self._ring: deque[_Snapshot] = deque(maxlen=self.window)
        self._events: deque[list[DriftEvent]] = deque(maxlen=self.window)
        # Full aligned pi + ids of the newest generation: the next
        # alignment reference. Not part of the ring (only one is kept).
        self._ref_pi: Optional[np.ndarray] = None
        self._ref_ids: Optional[np.ndarray] = None
        self._first_seen: dict[int, int] = {}
        #: content version of the last recorded artifact — lets a
        #: restarted server skip re-recording the artifact the persisted
        #: history already ends on.
        self.last_version: Optional[str] = None

    # -- recording -----------------------------------------------------------

    @property
    def n_generations(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def generations(self) -> list[int]:
        with self._lock:
            return [s.generation for s in self._ring]

    def record(self, artifact: ModelArtifact, generation: int) -> list[DriftEvent]:
        """Align and snapshot a freshly published artifact.

        Returns the drift events emitted for this generation (also
        retrievable per node through :meth:`drift`).
        """
        pi = np.asarray(artifact.pi, dtype=np.float64)
        node_ids = np.asarray(artifact.node_ids, dtype=np.int64).copy()
        with self._lock:
            if self._ring and generation <= self._ring[-1].generation:
                raise ValueError(
                    f"generation {generation} not after"
                    f" {self._ring[-1].generation}"
                )
            if self._ref_pi is not None and pi.shape[1] != self._ref_pi.shape[1]:
                raise ValueError(
                    f"community count changed: {pi.shape[1]} vs"
                    f" {self._ref_pi.shape[1]}"
                )
            k = pi.shape[1]
            events: list[DriftEvent] = []
            if self._ref_pi is None:
                aligned = pi.copy()
                perm = np.arange(k, dtype=np.int64)
                drift = np.zeros(k)
            else:
                common, prev_rows, new_rows = np.intersect1d(
                    self._ref_ids, node_ids, return_indices=True
                )
                if common.size:
                    prev_block = self._ref_pi[prev_rows]
                    _, cols = align_communities(pi[new_rows], prev_block)
                else:
                    cols = np.arange(k, dtype=np.int64)
                aligned = pi[:, cols]
                perm = np.asarray(cols, dtype=np.int64)
                drift = np.zeros(k)
                if common.size:
                    new_block = aligned[new_rows]
                    num = np.einsum("ij,ij->j", prev_block, new_block)
                    den = np.linalg.norm(prev_block, axis=0) * np.linalg.norm(
                        new_block, axis=0
                    )
                    ok = den > 1e-12
                    drift[ok] = 1.0 - num[ok] / den[ok]
                    drift = np.clip(drift, 0.0, None)
                    events = self._node_events(
                        generation, common, prev_block, new_block
                    )
            tops, weights = _top_communities(aligned, self.top_k)
            self._ring.append(
                _Snapshot(
                    generation=int(generation),
                    node_ids=node_ids,
                    top_communities=tops,
                    top_weights=weights,
                    community_drift=drift,
                    permutation=perm,
                )
            )
            self._events.append(events)
            for v in node_ids:
                self._first_seen.setdefault(int(v), int(generation))
            self._ref_pi = aligned
            self._ref_ids = node_ids
            self.last_version = artifact.version
            return list(events)

    def record_next(self, artifact: ModelArtifact) -> list[DriftEvent]:
        """Record at the next generation index after the newest retained.

        The restart-safe entry point: a reloaded history keeps its own
        generation numbering (a fresh server's counter would collide
        with :meth:`record`'s strictly-increasing check).
        """
        with self._lock:
            nxt = self._ring[-1].generation + 1 if self._ring else 0
        return self.record(artifact, nxt)

    def _node_events(
        self,
        generation: int,
        common: np.ndarray,
        prev_block: np.ndarray,
        new_block: np.ndarray,
    ) -> list[DriftEvent]:
        old_top = np.argmax(prev_block, axis=1)
        new_top = np.argmax(new_block, axis=1)
        l1 = np.abs(new_block - prev_block).sum(axis=1)
        flipped = old_top != new_top
        shifted = ~flipped & (l1 > self.event_threshold)
        hot = np.flatnonzero(flipped | shifted)
        if hot.size > self.max_events_per_generation:
            # Keep the largest movers (flips outrank same-top shifts).
            score = l1[hot] + 10.0 * flipped[hot]
            hot = hot[np.argsort(-score, kind="stable")]
            hot = np.sort(hot[: self.max_events_per_generation])
        return [
            DriftEvent(
                node=int(common[i]),
                generation=int(generation),
                kind="top-change" if flipped[i] else "shift",
                old_top=int(old_top[i]),
                new_top=int(new_top[i]),
                l1_change=float(l1[i]),
            )
            for i in hot
        ]

    # -- queries -------------------------------------------------------------

    def community_drift(self, generation: Optional[int] = None) -> np.ndarray:
        """Per-community drift scores for a retained generation (default last)."""
        with self._lock:
            snap = self._find(generation)
            return snap.community_drift.copy()

    def drift(self, node: int, last: Optional[int] = None) -> dict:
        """How ``node``'s communities changed over the retained window.

        Args:
            node: external node id.
            last: restrict to the most recent ``last`` retained
                generations (default: the whole window).

        Returns:
            A plain dict (server-serializable): ``node``,
            ``first_seen_generation``, ``generations`` — a list of
            ``{"generation", "communities", "weights"}`` in canonical
            label space, oldest first, with generations predating the
            node absent — and ``events``, this node's drift events in the
            same span.

        Raises:
            KeyError: the node appears in no retained generation.
            ValueError: ``last`` is not a positive count.
        """
        node = int(node)
        if last is not None and last < 1:
            raise ValueError("last must be >= 1")
        with self._lock:
            snaps = list(self._ring)
            event_lists = list(self._events)
        if last is not None:
            snaps = snaps[-last:]
            event_lists = event_lists[-last:]
        history = []
        seen = False
        for snap in snaps:
            rows = np.flatnonzero(snap.node_ids == node)
            if not rows.size:
                continue
            seen = True
            r = int(rows[0])
            history.append(
                {
                    "generation": snap.generation,
                    "communities": snap.top_communities[r].tolist(),
                    "weights": snap.top_weights[r].tolist(),
                }
            )
        if not seen:
            raise KeyError(f"node {node} not in any retained generation")
        events = [
            {
                "generation": e.generation,
                "kind": e.kind,
                "old_top": e.old_top,
                "new_top": e.new_top,
                "l1_change": e.l1_change,
            }
            for evs in event_lists
            for e in evs
            if e.node == node
        ]
        return {
            "node": node,
            "first_seen_generation": self._first_seen.get(node),
            "generations": history,
            "events": events,
        }

    def _find(self, generation: Optional[int]) -> _Snapshot:
        if not self._ring:
            raise ValueError("no generations recorded")
        if generation is None:
            return self._ring[-1]
        for snap in self._ring:
            if snap.generation == generation:
                return snap
        raise KeyError(f"generation {generation} not retained")

    # -- persistence ---------------------------------------------------------

    def save(self, path: PathLike) -> Path:
        """Atomically checkpoint the full history (ring, events, alignment
        reference, first-seen map) as a sealed :mod:`repro.store`
        container beside the artifact.

        A crash mid-save leaves the previous checkpoint intact.
        :meth:`load` restores a history that continues exactly where this
        one stopped — including the aligned label space, so drift stays
        in canonical generation-0 labels across a server restart. The
        snapshot is taken under the history's lock; the write happens
        after it is released.
        """
        with self._lock:
            meta = {
                "window": self.window,
                "top_k": self.top_k,
                "event_threshold": self.event_threshold,
                "max_events_per_generation": self.max_events_per_generation,
                "generations": [s.generation for s in self._ring],
                "events": [
                    [dataclasses.asdict(e) for e in evs] for evs in self._events
                ],
                "last_version": self.last_version,
            }
            arrays: dict[str, np.ndarray] = {}
            for i, s in enumerate(self._ring):
                arrays[f"s{i}_node_ids"] = s.node_ids
                arrays[f"s{i}_tops"] = s.top_communities
                arrays[f"s{i}_weights"] = s.top_weights
                arrays[f"s{i}_drift"] = s.community_drift
                arrays[f"s{i}_perm"] = s.permutation
            if self._ref_pi is not None:
                arrays["ref_pi"] = self._ref_pi
                arrays["ref_ids"] = self._ref_ids
            arrays["first_seen"] = np.array(
                sorted(self._first_seen.items()), dtype=np.int64
            ).reshape(-1, 2)
        return write_container(path, arrays, kind=HISTORY_KIND, meta=meta)

    @classmethod
    def load(cls, path: PathLike) -> "MembershipHistory":
        """Restore a history checkpointed by :meth:`save`; every member is
        read and digest-checked. Raises :class:`StreamError` for a missing
        path, a regular file (a legacy ``.npz``: ``repro convert``), a
        damaged container or contents that do not make a history."""
        p = Path(path)
        try:
            data = open_model_container(p)
            if data.kind != HISTORY_KIND:
                raise StoreError(p, f"expected container kind {HISTORY_KIND!r}, got {data.kind!r}")
            meta = data.meta
            hist = cls(
                window=int(meta["window"]),
                top_k=int(meta["top_k"]),
                event_threshold=float(meta["event_threshold"]),
                max_events_per_generation=int(meta["max_events_per_generation"]),
            )
            for i, gen in enumerate(meta["generations"]):
                hist._ring.append(
                    _Snapshot(
                        generation=int(gen),
                        node_ids=data[f"s{i}_node_ids"],
                        top_communities=data[f"s{i}_tops"],
                        top_weights=data[f"s{i}_weights"],
                        community_drift=data[f"s{i}_drift"],
                        permutation=data[f"s{i}_perm"],
                    )
                )
            for evs in meta["events"]:
                hist._events.append([DriftEvent(**e) for e in evs])
            if "ref_pi" in data:
                hist._ref_pi, hist._ref_ids = data["ref_pi"], data["ref_ids"]
            hist._first_seen = {int(a): int(b) for a, b in data["first_seen"]}
            hist.last_version = meta.get("last_version")
        except StoreError as exc:
            raise StreamError(f"membership history {p}: {exc.reason}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(
                f"membership history {p}: invalid contents ({exc})"
            ) from exc
        return hist
