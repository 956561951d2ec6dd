"""Memory-access-pattern study: regenerate the observations behind FRM and BUM.

The Instant-3D accelerator exists because embedding-grid interpolation has a
very particular memory-access structure (Sec. 4.2 of the paper).  This
example measures that structure on real hash-grid queries:

* the four address groups of the eight neighbour vertices and their
  intra/inter-group distances (Figs. 8 and 9);
* the number of unique addresses inside a sliding window, feed-forward vs
  back-propagation (Fig. 10);
* what those patterns buy the hardware: the FRM's read-packing factor and the
  BUM's write-reduction factor measured on the same trace.

Run with:  python examples/memory_access_study.py
"""

from __future__ import annotations

import numpy as np

from repro.accelerator import (
    AcceleratorConfig,
    BackPropUpdateMerger,
    FeedForwardReadMapper,
    SRAMBankArray,
    extract_training_trace,
)
from repro.analysis.access_patterns import (
    address_group_stats,
    forward_backward_window_comparison,
)
from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.datasets import nerf_synthetic_like
from repro.grid.hash_encoding import HashGridConfig, MultiResHashGrid
from repro.nerf.cameras import sample_pixel_batch
from repro.nerf.sampling import normalize_points_to_unit_cube, ray_points, stratified_samples
from repro.utils.seeding import derive_rng
from repro.utils.tables import format_table


def address_grouping_section(dataset) -> None:
    print("\n--- Figs. 8 & 9: address grouping of the eight neighbour vertices ---")
    level_config = HashGridConfig(n_levels=1, n_features_per_level=2,
                                  log2_hashmap_size=16, base_resolution=128,
                                  finest_resolution=128)
    grid = MultiResHashGrid(level_config, rng=derive_rng(0, "study"))
    rng = derive_rng(0, "study:points")
    bundle, _ = sample_pixel_batch(dataset.train_cameras, dataset.train_images, 128, rng)
    t_vals, _ = stratified_samples(bundle, 16, rng=rng)
    points, _ = ray_points(bundle, t_vals)
    grid.forward(normalize_points_to_unit_cube(points, dataset.scene_bound))
    stats = address_group_stats(grid.last_access, level=0)
    print(f"mean |intra-group| address distance : {stats.mean_intra_group_distance:8.2f}")
    print(f"mean inter-group address distance   : {stats.mean_inter_group_distance:8,.0f}")
    print(f"intra-group distances within [-5,5] : {100 * stats.fraction_intra_within_threshold:.1f}%")


def sliding_window_section(trace) -> None:
    print("\n--- Fig. 10: unique addresses per 1000-access sliding window ---")
    rows = []
    for name, branch in trace.branches.items():
        window = min(1000, branch.read_addresses.size)
        comparison = forward_backward_window_comparison(
            branch.read_addresses, branch.write_addresses, window=window)
        rows.append([f"{name} grid", window,
                     f"{comparison['feed_forward'].mean_unique:.0f}",
                     f"{comparison['back_propagation'].mean_unique:.0f}"])
    print(format_table(["Branch", "Window", "Unique (fwd)", "Unique (bwd)"], rows))


def hardware_payoff_section(trace) -> None:
    print("\n--- What the patterns buy the hardware ---")
    config = AcceleratorConfig()
    rows = []
    for name, branch in trace.branches.items():
        sram = SRAMBankArray(n_banks=config.n_grid_cores * config.grid_core.n_banks)
        frm = FeedForwardReadMapper(sram, window=64)
        frm_result = frm.schedule(branch.read_addresses)
        bum = BackPropUpdateMerger(n_entries=config.grid_core.bum_entries,
                                   timeout_cycles=config.grid_core.bum_timeout_cycles)
        bum_result = bum.process(branch.write_addresses)
        rows.append([
            f"{name} grid",
            f"{frm_result.speedup:.2f}x",
            f"{100 * frm_result.mapped_utilization:.0f}%",
            f"{100 * bum_result.write_reduction:.0f}%",
        ])
    print(format_table(
        ["Branch", "FRM read-packing speedup", "FRM bank utilization", "BUM write reduction"],
        rows))


def main() -> None:
    print("Building dataset and extracting a training memory trace...")
    dataset = nerf_synthetic_like(["drums"], n_train_views=6, n_test_views=1,
                                  image_size=28)[0]
    grid = HashGridConfig(n_levels=6, n_features_per_level=2, log2_hashmap_size=12,
                          base_resolution=8, finest_resolution=96)
    model = DecoupledRadianceField(Instant3DConfig.instant_3d(grid=grid), seed=0)
    trace = extract_training_trace(model, dataset, batch_pixels=64, samples_per_ray=16)

    address_grouping_section(dataset)
    sliding_window_section(trace)
    hardware_payoff_section(trace)
    print("\nThese are the three observations (x-axis locality, group remoteness, "
          "back-propagation address sharing) that motivate the FRM and BUM units.")


if __name__ == "__main__":
    main()
