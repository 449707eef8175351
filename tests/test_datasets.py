"""SNAP dataset registry + stand-in generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.datasets import DATASETS, load_dataset


class TestRegistry:
    def test_all_six_datasets_present(self):
        assert set(DATASETS) == {
            "com-LiveJournal",
            "com-Friendster",
            "com-Orkut",
            "com-Youtube",
            "com-DBLP",
            "com-Amazon",
        }

    def test_table2_values_verbatim(self):
        fr = DATASETS["com-Friendster"]
        assert fr.n_vertices == 65_608_366
        assert fr.n_edges == 1_806_067_135
        assert fr.n_ground_truth_communities == 957_154
        dblp = DATASETS["com-DBLP"]
        assert (dblp.n_vertices, dblp.n_edges) == (317_080, 1_049_866)

    def test_avg_degree(self):
        yt = DATASETS["com-Youtube"]
        assert yt.avg_degree == pytest.approx(2 * 2_987_624 / 1_134_890)


class TestScaling:
    def test_scaled_preserves_degree(self):
        for spec in DATASETS.values():
            n, m, k = spec.scaled(1e-3)
            assert 2 * m / n == pytest.approx(spec.avg_degree, rel=0.01)
            assert 4 <= k <= 512

    def test_scaled_minimum_size(self):
        n, m, k = DATASETS["com-DBLP"].scaled(1e-9)
        assert n >= 64 and m >= n and k >= 4

    def test_community_size_supports_density(self):
        """K is clamped so communities can carry the target edge count."""
        for spec in DATASETS.values():
            n, m, k = spec.scaled(1e-3)
            assert n / k >= 2.0 * spec.avg_degree or k == 4


class TestLoadDataset:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("com-MySpace")

    def test_standins_deterministic(self):
        g1, t1, _ = load_dataset("com-Amazon", scale=2e-3)
        g2, t2, _ = load_dataset("com-Amazon", scale=2e-3)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(t1.pi, t2.pi)

    def test_standin_density_close_to_full_scale(self):
        for name in ("com-DBLP", "com-Youtube"):
            g, _, spec = load_dataset(name, scale=2e-3)
            got = 2 * g.n_edges / g.n_vertices
            assert got == pytest.approx(spec.avg_degree, rel=0.35)

    def test_different_datasets_differ(self):
        g1, _, _ = load_dataset("com-DBLP", scale=1e-3)
        g2, _, _ = load_dataset("com-Amazon", scale=1e-3)
        assert g1.n_edges != g2.n_edges or g1.n_vertices != g2.n_vertices
