"""SNAP dataset registry (Table II) and deterministic synthetic stand-ins.

The paper evaluates on six SNAP graphs. This environment has no network
access, so the full downloads are unavailable; per the reproduction's
substitution rule we keep the *full-scale shapes* (N, \\|E\\|, #ground-truth
communities — exactly the quantities the analytic scaling experiments need)
in :data:`DATASETS`, and generate *scaled-down synthetic stand-ins* from the
a-MMSB generative model for experiments that run the real sampler
(convergence, recovery). The stand-in preserves:

- the vertex/edge ratio (average degree), which drives the per-vertex cost
  of the mini-batch stages;
- a community count scaled by the same factor, so community sizes match;
- deterministic generation from a per-dataset seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.generators import GroundTruth, generate_ammsb_graph
from repro.graph.graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """Full-scale stats of a SNAP graph (paper Table II) + stand-in config."""

    name: str
    n_vertices: int
    n_edges: int
    n_ground_truth_communities: int
    description: str
    seed: int

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_vertices

    def scaled(self, scale: float) -> tuple[int, int, int]:
        """(N, target_edges, K) for a stand-in at ``scale`` of full size.

        Average degree is preserved; the community count shrinks with the
        square root of the scale so average community size also shrinks
        (communities in small graphs cannot keep full-scale sizes). K is
        clamped so the mean community holds at least ~2x the average degree
        worth of members — below that the generative model cannot reach the
        target edge count — and to [4, 512] overall.
        """
        n = max(64, int(round(self.n_vertices * scale)))
        m = max(n, int(round(n * self.avg_degree / 2.0)))
        k = int(round(self.n_ground_truth_communities * np.sqrt(scale)))
        k_max_density = max(4, int(n / max(2.0 * self.avg_degree, 8.0)))
        k = int(np.clip(k, 4, min(512, k_max_density)))
        return n, m, k


#: Table II of the paper, verbatim.
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            "com-LiveJournal", 3_997_962, 34_681_189, 287_512,
            "Online blogging social network", seed=101,
        ),
        DatasetSpec(
            "com-Friendster", 65_608_366, 1_806_067_135, 957_154,
            "Online gaming social network", seed=102,
        ),
        DatasetSpec(
            "com-Orkut", 3_072_441, 117_185_083, 6_288_363,
            "Online social network", seed=103,
        ),
        DatasetSpec(
            "com-Youtube", 1_134_890, 2_987_624, 8_385,
            "Video-sharing social network", seed=104,
        ),
        DatasetSpec(
            "com-DBLP", 317_080, 1_049_866, 13_477,
            "Computer science bibliography collaboration network", seed=105,
        ),
        DatasetSpec(
            "com-Amazon", 334_863, 925_872, 75_149,
            "Product co-purchasing network", seed=106,
        ),
    ]
}


def load_dataset(
    name: str,
    scale: float = 1e-3,
    alpha: float = 0.05,
    delta: float = 1e-6,
    concentration: float = 30.0,
    degree_heterogeneity: float = 0.75,
) -> tuple[Graph, GroundTruth, DatasetSpec]:
    """Generate the deterministic stand-in for a Table II dataset.

    Args:
        name: one of the Table II names (see :data:`DATASETS`).
        scale: linear down-scaling factor for N (default 1/1000).
        alpha: Dirichlet concentration for the generative model.
        delta: background link probability.
        concentration: home-community bias of the generated memberships.
            The default is high (crisp memberships): SNAP ground-truth
            communities are discrete sets, and diffuse-membership graphs
            have an oracle-perplexity floor so close to the random-init
            value that convergence curves are unreadable.

    Returns:
        ``(graph, ground_truth, full_scale_spec)``.
    """
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    spec = DATASETS[name]
    n, m, k = spec.scaled(scale)
    # Degree heterogeneity concentrates draws on hubs, so the multigraph
    # dedup eats a chunk of the target edges; inflate the Poisson target
    # until the realized count lands within 10% (deterministic: the seed
    # incorporates the attempt index).
    target = m
    graph = truth = None
    for attempt in range(4):
        rng = np.random.default_rng(spec.seed + 7919 * attempt)
        graph, truth = generate_ammsb_graph(
            n_vertices=n,
            n_communities=k,
            alpha=alpha,
            delta=delta,
            rng=rng,
            target_edges=int(target),
            concentration=concentration,
            degree_heterogeneity=degree_heterogeneity,
        )
        if graph.n_edges >= 0.9 * m:
            break
        target *= m / max(graph.n_edges, 1)
    return graph, truth, spec
