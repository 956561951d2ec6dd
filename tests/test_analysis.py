"""Tests for the access-pattern, breakdown and learning-pace analyses."""

import numpy as np
import pytest

from repro.analysis import (
    address_group_stats,
    forward_backward_window_comparison,
    group_vertex_addresses,
    inter_group_distances,
    intra_group_distances,
    intra_group_within_threshold,
    learning_pace_study,
    runtime_breakdown,
    sliding_window_unique_addresses,
)
from repro.analysis.breakdown import CATEGORY_GRID, CATEGORY_MLP, CATEGORY_OTHER
from repro.accelerator.devices import XAVIER_NX, EdgeGPUModel
from repro.core.config import Instant3DConfig
from repro.grid.hash_encoding import HashGridConfig, MultiResHashGrid
from repro.training.profiler import WorkloadScale, build_iteration_workload
from repro.utils.seeding import new_rng


@pytest.fixture(scope="module")
def hashed_level_record():
    """An access record from a grid level that actually uses the spatial hash."""
    config = HashGridConfig(n_levels=1, n_features_per_level=2,
                            log2_hashmap_size=12, base_resolution=64,
                            finest_resolution=64)
    grid = MultiResHashGrid(config, rng=new_rng(0))
    points = new_rng(1).uniform(0.05, 0.95, size=(256, 3))
    grid.forward(points)
    return grid.last_access


class TestAddressGrouping:
    def test_grouping_shape(self, hashed_level_record):
        grouped = group_vertex_addresses(hashed_level_record, level=0)
        assert grouped.shape == (hashed_level_record.n_points, 4, 2)

    def test_intra_group_locality(self, hashed_level_record):
        """Fig. 9: the overwhelming majority of intra-group distances are tiny."""
        fraction = intra_group_within_threshold(hashed_level_record, level=0, threshold=5)
        assert fraction > 0.85

    def test_inter_group_remoteness(self, hashed_level_record):
        """Fig. 8: different groups are far apart in the hash table."""
        intra = np.abs(intra_group_distances(hashed_level_record, level=0))
        inter = inter_group_distances(hashed_level_record, level=0)
        assert inter.mean() > 50 * max(intra.mean(), 1.0)

    def test_summary_stats(self, hashed_level_record):
        stats = address_group_stats(hashed_level_record, level=0)
        assert stats.fraction_intra_within_threshold > 0.85
        assert stats.mean_inter_group_distance > stats.mean_intra_group_distance
        assert stats.n_points == hashed_level_record.n_points


class TestSlidingWindow:
    def test_unique_counts_bounds(self):
        addresses = np.random.default_rng(0).integers(0, 50, size=5000)
        stats = sliding_window_unique_addresses(addresses, window=1000)
        assert all(1 <= c <= 50 for c in stats.unique_counts)

    def test_all_unique_stream(self):
        stats = sliding_window_unique_addresses(np.arange(3000), window=1000)
        assert all(c == 1000 for c in stats.unique_counts)

    def test_forward_backward_comparison(self, tiny_trace):
        branch = tiny_trace.branch("density")
        window = min(500, branch.read_addresses.size)
        comparison = forward_backward_window_comparison(
            branch.read_addresses, branch.write_addresses, window=window)
        assert comparison["back_propagation"].mean_unique <= \
            comparison["feed_forward"].mean_unique

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            sliding_window_unique_addresses(np.arange(10), window=0)


class TestRuntimeBreakdown:
    def test_categories_partition_runtime(self):
        workload = build_iteration_workload(Instant3DConfig.paper_scale_baseline(),
                                            WorkloadScale.paper_scale())
        estimate = EdgeGPUModel(XAVIER_NX).estimate_training(workload)
        breakdown = runtime_breakdown(estimate)
        total = sum(breakdown.category_seconds.values())
        assert total == pytest.approx(estimate.per_iteration_s, rel=1e-9)
        assert set(breakdown.category_seconds) == {CATEGORY_GRID, CATEGORY_MLP,
                                                   CATEGORY_OTHER}

    def test_fractions_sum_to_one(self):
        workload = build_iteration_workload(Instant3DConfig.paper_scale_baseline())
        estimate = EdgeGPUModel(XAVIER_NX).estimate_training(workload)
        breakdown = runtime_breakdown(estimate)
        fractions = [breakdown.fraction(c) for c in breakdown.category_seconds]
        assert sum(fractions) == pytest.approx(1.0)


class TestLearningPace:
    def test_trajectory_and_color_leads_density(self, tiny_dataset, tiny_config):
        """Fig. 5: RGB quality is learned at a faster pace than depth quality."""
        result = learning_pace_study(tiny_dataset, tiny_config, n_iterations=30,
                                     eval_every=10, eval_samples=16)
        assert result.scene == tiny_dataset.name
        assert len(result.iterations) == len(result.rgb_psnrs) == len(result.depth_psnrs)
        assert result.iterations[-1] == 30
        assert np.isfinite(result.rgb_psnrs[-1])

    def test_invalid_eval_every(self, tiny_dataset, tiny_config):
        with pytest.raises(ValueError):
            learning_pace_study(tiny_dataset, tiny_config, n_iterations=5, eval_every=0)
