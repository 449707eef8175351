"""End-to-end streaming acceptance: checkpoint -> delta -> warm serve.

The PR-level acceptance replay: a trained checkpoint on the base graph,
a delta adding >=10% new edges and >=5% new nodes, ONE warm-start
generation that reaches cold-retrain held-out perplexity within 2% in
at most half the cold iterations, a published artifact a live server
hot-swaps, and ``membership_drift`` answers for both a pre-existing and
a newly arrived node. The bars are work counts, so the test is
deterministic; wall-clock belongs to ``e2e_bench``'s ``stream_*``
workloads (``arrival_to_servable_s``, paired runs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AMMSBConfig
from repro.core.perplexity import PerplexityEstimator
from repro.core.sampler import AMMSBSampler
from repro.graph.generators import planted_overlapping_graph
from repro.graph.split import split_heldout
from repro.serve.artifact import load_artifact
from repro.serve.server import ModelServer
from repro.stream import StreamTrainer, SyntheticArrivalSource

COLD_ITERATIONS = 240
WARM_ITERATIONS = 90


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stream-e2e")
    rng = np.random.default_rng(0)
    graph, _ = planted_overlapping_graph(220, 4, rng=rng)
    split = split_heldout(
        graph, 0.05, rng=np.random.default_rng(1), max_links=2000
    )
    config = AMMSBConfig(n_communities=4, seed=2)
    estimator = PerplexityEstimator(
        split.heldout_pairs, split.heldout_labels, config.delta
    )
    # The stream is cut on the training graph so warm and cold train on
    # identical edges and are scored on the same held-out set.
    source = SyntheticArrivalSource(split.train, base_fraction=0.9, seed=3)
    base = source.base_graph()
    arrivals = source.arrivals()

    # -- cold retrain: full graph, from scratch, full budget.
    cold = AMMSBSampler(split.train, config, heldout=split)
    cold.run(COLD_ITERATIONS)
    cold_perp = float(
        estimator.single_sample_value(cold.state.pi, cold.state.beta)
    )

    # -- generation 0: train the base and checkpoint it.
    t_gen0 = StreamTrainer(
        base, config, tmp / "gen0", publish_path=tmp / "artifact.npz",
        heldout_fraction=0.05,
    )
    rep0 = t_gen0.run_generation(n_iterations=COLD_ITERATIONS)

    # -- resume FROM THE CHECKPOINT (a batch run converts to a stream),
    # ingest the delta, and run one warm generation.
    trainer = StreamTrainer.from_checkpoint(
        rep0.checkpoint_path, base, tmp / "warm",
        publish_path=tmp / "artifact.npz", heldout_fraction=0.05,
    )
    server = ModelServer(
        load_artifact(tmp / "artifact.npz"), n_workers=0, drift_window=4
    )
    swaps = []
    trainer.publish_callback = lambda path, gen: swaps.append(
        server.publish_path(path)
    )
    ingest = trainer.ingest(arrivals)
    rep1 = trainer.run_generation(heldout=split, n_iterations=WARM_ITERATIONS)

    yield {
        "base": base,
        "split": split,
        "ingest": ingest,
        "cold_iterations": cold.iteration,
        "cold_perp": cold_perp,
        "rep0": rep0,
        "rep1": rep1,
        "server": server,
        "swaps": swaps,
    }
    server.close()


def _answer(server, fut):
    server.process_once()
    return fut.result(timeout=30)


class TestAcceptanceReplay:
    def test_delta_is_substantial(self, replay):
        """>=10% new edges and >=5% new nodes over the base."""
        base, rep1 = replay["base"], replay["rep1"]
        assert replay["ingest"].accepted >= 0.10 * base.n_edges
        assert rep1.n_new_nodes >= 0.05 * base.n_vertices

    def test_warm_reaches_cold_quality_within_2pct(self, replay):
        assert replay["rep1"].perplexity <= 1.02 * replay["cold_perp"]

    def test_warm_runs_at_most_half_cold_iterations(self, replay):
        assert replay["rep1"].n_iterations <= 0.5 * replay["cold_iterations"]

    def test_server_hot_swapped_the_published_artifact(self, replay):
        assert len(replay["swaps"]) == 1
        server, rep1 = replay["server"], replay["rep1"]
        health = server.health()
        assert health["generation"] == 1
        # The live artifact covers the newly arrived vertices.
        new_node = replay["split"].train.n_vertices - 1
        ranked = _answer(server, server.membership(new_node))
        assert len(ranked) > 0

    def test_membership_drift_for_old_and_new_nodes(self, replay):
        server = replay["server"]
        base = replay["base"]
        old = _answer(server, server.membership_drift(0))
        assert old["first_seen_generation"] == 0
        assert len(old["generations"]) == 2
        new_node = replay["split"].train.n_vertices - 1
        assert new_node >= base.n_vertices
        new = _answer(server, server.membership_drift(new_node))
        assert new["first_seen_generation"] == 1
        assert len(new["generations"]) == 1
