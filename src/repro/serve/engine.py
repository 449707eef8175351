"""Vectorized query engine over a loaded serving artifact.

Four read-only queries cover the downstream uses of a fitted a-MMSB
posterior (membership lookup, link scoring, community rosters, edge
recommendation). All scoring goes through the
:mod:`repro.core.kernels` backend registry — the same machinery the
trainers use — so a float32 artifact served by the ``fused`` backend
scores entirely in float32 with zero per-call allocations, and the
``reference`` backend remains the bit-for-bit contract
(``tests/test_serve_engine.py``).

Thread-safety: an engine owns a :class:`~repro.core.kernels.KernelWorkspace`,
which must not be shared across threads. The micro-batching server
(:mod:`repro.serve.server`) therefore builds one engine per worker
thread over the same (immutable) artifact — engines are cheap, the
artifact arrays are shared.

Fault injection: an optional :class:`~repro.faults.ServeFaultPlan` adds
seeded latency spikes in front of each query — the chaos drills use
this to exercise deadline and load-shedding behavior. A ``None`` or
empty plan leaves every query bit-identical to a plain engine.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.core import kernels
from repro.core.perplexity import _PROB_FLOOR
from repro.faults import ServeFaultPlan, armed
from repro.serve.artifact import DEFAULT_TOP_K, ModelArtifact

#: Rows of ``pi`` per step of the recommend filter. 8192 rows of K=32
#: float64 are 2 MiB: a block and its (rows, Q) scores stay in L2 between
#: the product and the passes that threshold it, and the per-block Python
#: cost (~13 blocks at N=1e5) stays small beside the BLAS call.
_FILTER_BLOCK_ROWS = 8192


def top_memberships(
    artifact: ModelArtifact, node: int, k: Optional[int], full_sort: bool
) -> Optional[list[tuple[int, float]]]:
    """Top-``k`` ``(community, weight)`` pairs of ``node``, strongest first
    (``k=None``: the width ``w = min(DEFAULT_TOP_K, K)``).

    A ``k`` within ``w`` partitions ``pi[row]`` at ``K - w`` and sorts
    those ``w`` by weight with a stable sort — the rule the format-2
    top-K table was stored by, so answers equal its rows bit for bit,
    ties included. A wider ``k`` takes the full stable sort when
    ``full_sort``, else returns ``None`` (the degraded server sheds).

    Raises ``ValueError`` for ``k < 1`` and ``KeyError`` for an unknown
    node.
    """
    width = min(DEFAULT_TOP_K, artifact.n_communities)
    k = width if k is None else int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > width and not full_sort:
        return None
    row = artifact.pi[artifact.row_of(node)]
    cut = row.size - width
    if k <= width and cut > 0:
        top = np.argpartition(row, cut)[cut:].tolist()
        candidates = zip(top, row[top].tolist())
    else:  # with w == K the table held the full stable sort too
        candidates = enumerate(row.tolist())
    # sorted() is stable: numpy's stable argsort of the negated weights
    return sorted(candidates, key=lambda pair: -pair[1])[:k]


class QueryEngine:
    """Answers model queries from an immutable :class:`ModelArtifact`.

    Args:
        artifact: the loaded snapshot.
        backend: kernel backend name; defaults to the artifact config's
            ``kernel_backend`` (what the model trained with).
        faults: optional seeded fault plan; only its latency spikes
            apply at this layer.

    Attributes:
        on_recommend: optional ``(candidates, survivors, returned)``
            callback, called once per :meth:`recommend_edges_batch` with
            the batch's totals; the server points it at
            :meth:`~repro.serve.metrics.ServerMetrics.record_recommend`.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        backend: str | None = None,
        faults: Optional[ServeFaultPlan] = None,
    ) -> None:
        self.artifact = artifact
        self.on_recommend: Callable[[int, int, int], None] | None = None
        # An explicit selection is a caller error if wrong: stay strict. The
        # artifact's own name resolves as an engine's does (a loaded
        # artifact's config holds a registered one: load_artifact maps it).
        self.kernels = (
            kernels.get_backend(backend) if backend is not None
            else kernels.resolve_backend(artifact.config.kernel_backend)
        )
        self.workspace = kernels.KernelWorkspace()
        self._faults = armed(faults)

    def _fault_delay(self) -> None:
        if self._faults is not None:
            delay = self._faults.engine_delay()
            if delay > 0.0:
                time.sleep(delay)

    # -- membership -----------------------------------------------------------

    def membership(self, node: int, k: int | None = None) -> list[tuple[int, float]]:
        """Top-``k`` communities of ``node`` as ``(community, weight)``
        pairs: :func:`top_memberships`, sorting the full row for a ``k``
        wider than its width."""
        self._fault_delay()
        return top_memberships(self.artifact, node, k, full_sort=True)

    # -- temporal drift --------------------------------------------------------

    def membership_drift(self, node: int, history, last: int | None = None) -> dict:
        """How ``node``'s aligned communities changed over recent generations.

        ``history`` is the server-owned
        :class:`repro.stream.tracking.MembershipHistory` ring (retained
        across artifact hot-swaps — it is *not* part of the artifact, so
        the server threads it in per call).
        """
        self._fault_delay()
        if history is None:
            raise ValueError("no membership history: server started without drift tracking")
        return history.drift(node, last=last)

    # -- link scoring ---------------------------------------------------------

    def link_probability(self, pairs: np.ndarray) -> np.ndarray:
        """Batched ``p(y=1)`` for (B, 2) node-id pairs, shape (B,).

        One gather + one kernel call regardless of B; this is the serving
        hot path the micro-batch server coalesces requests into.
        """
        self._fault_delay()
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (B, 2)")
        art = self.artifact
        rows = art.rows_of(pairs)
        p = self.kernels.link_probability(
            art.pi[rows[:, 0]],
            art.pi[rows[:, 1]],
            art.beta,
            art.config.delta,
            workspace=self.workspace,
        )
        # Kernel output may be a workspace view; detach before returning.
        return np.array(p, copy=True)

    # -- community rosters ----------------------------------------------------

    def community_members(
        self, community: int, top_n: int = 10
    ) -> list[tuple[int, float]]:
        """The ``top_n`` strongest members of a community, weight-sorted."""
        self._fault_delay()
        art = self.artifact
        if not 0 <= community < art.n_communities:
            raise ValueError(
                f"community {community} out of range [0, {art.n_communities})"
            )
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        col = art.pi[:, community]
        return [(int(art.node_ids[i]), float(col[i])) for i in _top_n(col, top_n)]

    # -- recommendation -------------------------------------------------------

    def recommend_edges(
        self, node: int, top_n: int = 10, exclude: np.ndarray | None = None
    ) -> list[tuple[int, float]]:
        """The ``top_n`` nodes most likely linked to ``node``.

        Candidates are every node but ``node`` itself and the ``exclude``
        ids; scores are the pairwise ``link_probability`` answers, bit for
        bit, ordered by (score descending, row ascending). The micro-batch
        server coalesces many of these through
        :meth:`recommend_edges_batch`.
        """
        result = self.recommend_edges_batch([(node, top_n, exclude)])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def recommend_edges_batch(
        self,
        queries: list[tuple[int, int, np.ndarray | None]],
    ) -> list[list[tuple[int, float]] | Exception]:
        """Coalesced edge recommendation by filter and refine.

        ``queries`` holds ``(node, top_n, exclude)`` triples. The filter
        (:meth:`_survivors`) reads ``pi`` once for the whole batch and
        keeps, per query, a provable superset of its exact top-n; the
        refine scores only those survivors with ONE ``link_probability``
        kernel call. Per-query failures (unknown node, bad ``top_n`` or
        ``exclude``) are returned as exception objects in their slot
        rather than raised, so one bad request cannot poison its
        batch-mates.
        """
        self._fault_delay()
        art = self.artifact
        results: list[list[tuple[int, float]] | Exception] = [None] * len(queries)
        prepared: list[tuple[int, int, int, np.ndarray]] = []
        for i, (node, top_n, exclude) in enumerate(queries):
            try:
                if top_n < 1:
                    raise ValueError("top_n must be >= 1")
                row = art.row_of(node)
                hidden = np.array([row], dtype=np.int64)
                if exclude is not None and len(exclude):
                    hidden = np.union1d(hidden, art.rows_of(np.asarray(exclude)))
                prepared.append((i, row, min(int(top_n), art.n_nodes - hidden.size), hidden))
            except Exception as exc:  # noqa: BLE001 - per-slot fault isolation
                results[i] = exc
        if not prepared:
            return results
        slots, rows, top_ns, masked = zip(*prepared)

        survivors = self._survivors(rows, top_ns, masked)
        dst = np.concatenate(survivors)
        scores = self.kernels.link_probability(
            art.pi[np.repeat(rows, [cand.size for cand in survivors])],
            art.pi[dst],
            art.beta,
            art.config.delta,
            workspace=self.workspace,
        )
        offset = 0
        for i, top_n, cand in zip(slots, top_ns, survivors):
            p = scores[offset : offset + cand.size]
            offset += cand.size
            # survivors are in row order, so index ascending is row ascending
            results[i] = [
                (int(art.node_ids[cand[j]]), float(p[j])) for j in _top_n(p, top_n)
            ]
        if self.on_recommend is not None:
            self.on_recommend(
                sum(art.n_nodes - hidden.size for hidden in masked),
                dst.size,
                sum(len(results[i]) for i in slots),
            )
        return results

    def _survivors(
        self, rows: tuple[int, ...], top_ns: tuple[int, ...], masked: tuple[np.ndarray, ...]
    ) -> list[np.ndarray]:
        """Filter: per query, the rows that may be in its exact top-n.

        The model's score is linear in the candidate's row,
        ``p(a, b) = pi[b] . (pi[a] * (beta - delta)) + delta``, so a batch
        of Q queries against every node is ``pi @ V`` with ``V`` of shape
        (K, Q): one BLAS pass over ``pi`` in row blocks, no gather, scratch
        O(block * Q). That *approximate* score differs from the kernel's
        answer only by rounding (:func:`_filter_weights` bounds the gap).
        A candidate survives unless its approximate score trails the n-th
        largest seen so far by more than ``tau`` (``masked`` rows, sorted
        per query, never count), so no member of the exact top-n — ties
        included — is ever dropped. Survivors come back in ascending row
        order.
        """
        art = self.artifact
        pi = art.pi
        v, delta, tau = _filter_weights(art, rows)
        n_queries = len(rows)

        # hidden (row, query) cells in row order, and where each block's start
        hidden_rows = np.concatenate(masked)
        order = np.argsort(hidden_rows, kind="stable")
        hidden_query = np.repeat(np.arange(n_queries), [m.size for m in masked])[order]
        hidden_rows = hidden_rows[order]
        starts = range(0, art.n_nodes, _FILTER_BLOCK_ROWS)
        edges = np.searchsorted(hidden_rows, [*starts, art.n_nodes])

        # A candidate needs score >= cut; real scores are clipped to
        # >= _PROB_FLOOR > 0 and hidden ones are -inf, so 0 admits every
        # candidate until a query has seen top_n of them.
        cut = np.zeros(n_queries, dtype=pi.dtype)
        kept_rows = [np.empty(0, dtype=np.int64)] * n_queries
        kept_scores = [np.empty(0, dtype=pi.dtype)] * n_queries
        scratch = self.workspace.array(
            "rec_scores", (min(_FILTER_BLOCK_ROWS, art.n_nodes), n_queries), pi.dtype
        )
        for block, lo in enumerate(starts):
            block_pi = pi[lo : lo + _FILTER_BLOCK_ROWS]
            s = scratch[: len(block_pi)]
            np.matmul(block_pi, v, out=s)
            s += delta
            np.clip(s, _PROB_FLOOR, 1.0 - _PROB_FLOOR, out=s)
            a, b = edges[block], edges[block + 1]
            s[hidden_rows[a:b] - lo, hidden_query[a:b]] = -np.inf
            hit_row, hit_query = np.divmod(np.flatnonzero(s >= cut), n_queries)
            for q in np.flatnonzero(np.bincount(hit_query, minlength=n_queries)):
                new = hit_row[hit_query == q]  # ascending
                cand = np.concatenate([kept_rows[q], new + lo])
                approx = np.concatenate([kept_scores[q], s[new, q]])
                if cand.size >= top_ns[q]:
                    cut[q] = _nth_largest(approx, top_ns[q]) - tau
                    keep = approx >= cut[q]
                    cand, approx = cand[keep], approx[keep]
                kept_rows[q], kept_scores[q] = cand, approx
        return kept_rows


def _filter_weights(
    art: ModelArtifact, rows: tuple[int, ...]
) -> tuple[np.ndarray, np.floating, np.floating]:
    """``(V, delta, tau)`` of the recommend filter, in the artifact's dtype.

    Column q of ``V`` (K, Q) is ``pi[rows[q]] * (beta - delta)``: the
    approximate score of row b for query q is
    ``clip(pi[b] @ V[:, q] + delta)``.

    ``tau`` is derived, not tuned. The filter and the ``link_probability``
    kernels both evaluate K-term dot products whose absolute terms sum to
    <= 1 (``pi`` rows are stochastic, ``beta`` and ``delta`` lie in
    (0, 1)), plus at most four more roundings (``beta - delta``, the cast,
    ``+ delta``; in the kernel ``beta``'s cast and ``(1 - overlap) *
    delta``). In any summation order each therefore lands within
    ``(K + 4) * eps / 2`` of the true value and the two differ by at most
    ``gap = (K + 4) * eps``; clipping both moves them no further apart.
    If a candidate trails n others by more than ``2 * gap`` approximately,
    those n beat it *exactly*, so it is in no exact top-n however ties
    break. ``tau = 4 * gap`` keeps a 2x margin over that for rows
    normalized only to ``ModelArtifact.validate``'s tolerance.
    """
    pi = art.pi
    tau = pi.dtype.type(4 * (art.n_communities + 4) * np.finfo(pi.dtype).eps)
    v = (pi[list(rows)] * (art.beta - art.config.delta)).astype(pi.dtype).T
    return v, pi.dtype.type(art.config.delta), tau


def _nth_largest(scores: np.ndarray, n: int):
    """The ``n``-th largest of ``scores`` (1 <= n <= size), without a full sort."""
    return np.partition(scores, scores.size - n)[scores.size - n]


def _top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` largest ``scores``, ordered by (score
    descending, index ascending) — ties, also at the n-th place, go to
    the lower index."""
    n = min(int(n), scores.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    idx = np.flatnonzero(scores >= _nth_largest(scores, n))
    return idx[np.argsort(-scores[idx], kind="stable")[:n]]
