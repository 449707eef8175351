"""Train / held-out split of a graph for perplexity evaluation.

Following the paper (Section II-C) and [Li, Ahn, Welling 2015], the
held-out set ``E_h`` contains an equal number of *linked* and *non-linked*
vertex pairs; the linked held-out pairs are removed from the training
graph. Perplexity (Eqn 7) is the exponentiated negative average held-out
log-likelihood over both kinds of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph


@dataclass(frozen=True)
class HeldoutSplit:
    """The result of :func:`split_heldout`.

    Attributes:
        train: training graph (held-out links removed).
        heldout_pairs: (H, 2) vertex pairs in the held-out set.
        heldout_labels: (H,) bool, True where the pair is a link in the
            original graph.
    """

    train: Graph
    heldout_pairs: np.ndarray
    heldout_labels: np.ndarray

    @property
    def n_heldout(self) -> int:
        return int(len(self.heldout_pairs))

    @property
    def n_links(self) -> int:
        return int(self.heldout_labels.sum())

    def partition(self, n_parts: int, part: int) -> tuple[np.ndarray, np.ndarray]:
        """Static partition of E_h used by the distributed perplexity stage.

        Pairs are dealt round-robin so links and non-links stay balanced
        across ranks.
        """
        if not 0 <= part < n_parts:
            raise ValueError(f"part {part} out of range [0, {n_parts})")
        sel = slice(part, None, n_parts)
        return self.heldout_pairs[sel], self.heldout_labels[sel]


def split_heldout(
    graph: Graph,
    heldout_fraction: float = 0.01,
    rng: np.random.Generator | None = None,
    max_links: int | None = None,
) -> HeldoutSplit:
    """Split ``graph`` into a training graph and a balanced held-out set.

    Args:
        graph: the full graph.
        heldout_fraction: fraction of links moved to the held-out set; the
            same number of non-link pairs is added.
        rng: random generator (required for reproducibility; defaults to
            a fixed seed).
        max_links: optional cap on the number of held-out links.

    Returns:
        A :class:`HeldoutSplit`.
    """
    if not 0.0 < heldout_fraction < 1.0:
        raise ValueError("heldout_fraction must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    n_links = max(1, int(round(graph.n_edges * heldout_fraction)))
    if max_links is not None:
        n_links = min(n_links, max_links)
    if n_links >= graph.n_edges:
        raise ValueError("held-out set would consume the whole graph")

    link_idx = rng.choice(graph.n_edges, size=n_links, replace=False)
    link_keys = graph.keys[np.sort(link_idx)]
    link_pairs = np.column_stack(np.divmod(link_keys, np.int64(graph.n_vertices)))

    nonlink_pairs = graph.sample_nonlink_pairs(n_links, rng)

    train = graph.subgraph(remove_keys=link_keys)

    pairs = np.vstack([link_pairs, nonlink_pairs])
    labels = np.concatenate([
        np.ones(n_links, dtype=bool),
        np.zeros(n_links, dtype=bool),
    ])
    # Shuffle so static partitions are balanced even without round-robin.
    perm = rng.permutation(len(pairs))
    return HeldoutSplit(train=train, heldout_pairs=pairs[perm], heldout_labels=labels[perm])
