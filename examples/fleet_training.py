"""Train a fleet of scenes with the multi-scene orchestrator.

Demonstrates the engine, pipeline and io layers:

1. build several procedural scene datasets;
2. train them all under one shared Instant-3D configuration with
   :class:`repro.training.SceneFleet`'s round-robin scheduler;
3. train the same fleet again through the occupancy-culled
   :class:`~repro.nerf.pipeline.RenderPipeline` (``culling_enabled=True``)
   and compare scenes/hour, per-scene occupancy fraction and PSNR parity;
4. simulate a preempted worker: train half the iterations with per-scene
   checkpointing and a one-trainer residency cap (idle scenes evicted to
   disk), then ``resume()`` a brand-new fleet from the checkpoint files and
   verify the finished run is bit-identical to the uninterrupted one.

Exits non-zero when the resumed run is not bit-identical, so it doubles as
an end-to-end check.

Run with:  PYTHONPATH=src python examples/fleet_training.py [--iterations N]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

from repro import Instant3DConfig, SceneFleet
from repro.datasets import nerf_synthetic_like
from repro.grid.hash_encoding import HashGridConfig


def run_fleet(datasets, config, label: str, n_iterations: int):
    fleet = SceneFleet(datasets, config, seed=0)
    print(f"Training {len(datasets)} scenes x {n_iterations} iterations "
          f"[{label}] (round-robin)...")
    result = fleet.train(n_iterations, eval_views=1)
    print(f"  wall-clock: {result.wall_clock_s:.1f}s   "
          f"throughput: {result.scenes_per_hour:.1f} scenes/hour")
    for name, scene_result in zip(result.scene_names, result.results):
        occupancy = scene_result.final_occupancy_fraction
        kept = scene_result.queries_kept / max(scene_result.queries_total, 1)
        print(f"    {name:8s} RGB PSNR {scene_result.rgb_psnr:6.2f} dB | "
              f"depth PSNR {scene_result.depth_psnr:6.2f} dB | "
              f"occupancy {occupancy:5.1%} | samples queried {kept:5.1%} | "
              f"{scene_result.density_updates} density / "
              f"{scene_result.color_updates} color updates")
    return result


def demo_preemption(datasets, config, baseline, n_iterations: int) -> bool:
    """Interrupt a checkpointed fleet halfway and resume it; return whether
    the resumed run is bit-identical to the uninterrupted ``baseline``."""
    interrupt_at = max(1, n_iterations // 2)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_dir = Path(tmp) / "fleet-ckpts"
        print(f"\nPreemptible run: interrupt at {interrupt_at}/{n_iterations} "
              f"iterations, max_resident_scenes=1 (others evicted to disk)...")
        worker_a = SceneFleet(datasets, config, seed=0,
                              checkpoint_every=interrupt_at,
                              checkpoint_dir=ckpt_dir, max_resident_scenes=1)
        worker_a.train(interrupt_at, eval_views=1)
        files = sorted(p.name for p in ckpt_dir.glob("*.ckpt.npz"))
        total_kb = sum(p.stat().st_size for p in ckpt_dir.glob("*.ckpt.npz")) / 1024
        print(f"  'worker restart': {len(files)} checkpoint files "
              f"({total_kb:.0f} KB total), {worker_a.evictions} evictions")
        # A brand-new fleet (fresh process in real deployments) picks up the
        # files and finishes the run.
        worker_b = SceneFleet(datasets, config, seed=0,
                              checkpoint_dir=ckpt_dir, max_resident_scenes=1)
        resumed = worker_b.resume(n_iterations, eval_views=1)
        identical = all(
            res.history.losses == ref.history.losses
            and res.rgb_psnr == ref.rgb_psnr
            for ref, res in zip(baseline.results, resumed.results)
        )
        print(f"  resumed mean RGB PSNR: {resumed.mean_rgb_psnr:.2f} dB   "
              f"bit-identical to uninterrupted run: {identical}")
    return identical


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=120)
    parser.add_argument("--dense-only", action="store_true",
                        help="skip the occupancy-culled comparison run")
    parser.add_argument("--skip-preemption", action="store_true",
                        help="skip the checkpoint/resume demonstration")
    args = parser.parse_args()

    scene_names = ["lego", "ficus", "chair"]
    print(f"Building {len(scene_names)} NeRF-Synthetic-like datasets...")
    datasets = nerf_synthetic_like(scene_names, n_train_views=8, n_test_views=2,
                                   image_size=28)

    grid = HashGridConfig(n_levels=6, n_features_per_level=2,
                          log2_hashmap_size=12, base_resolution=8,
                          finest_resolution=96)
    dense_config = Instant3DConfig.instant_3d(
        grid=grid, batch_pixels=192, n_samples_per_ray=24,
        mlp_hidden_width=32, mlp_hidden_layers=2,
    )

    dense = run_fleet(datasets, dense_config, "dense", args.iterations)
    print(f"  fleet mean RGB PSNR: {dense.mean_rgb_psnr:.2f} dB")
    if not args.skip_preemption and not demo_preemption(
            datasets, dense_config, dense, args.iterations):
        sys.exit("resumed fleet diverged from the uninterrupted run")
    if args.dense_only:
        return

    culled_config = dataclasses.replace(
        dense_config,
        culling_enabled=True,          # occupancy-culled sample compaction
    )
    culled = run_fleet(datasets, culled_config, "culled", args.iterations)
    print(f"  fleet mean RGB PSNR: {culled.mean_rgb_psnr:.2f} dB")

    speedup = culled.scenes_per_hour / max(dense.scenes_per_hour, 1e-9)
    print(f"\nculling: {speedup:.2f}x scenes/hour "
          f"({dense.scenes_per_hour:.1f} -> {culled.scenes_per_hour:.1f}), "
          f"samples queried {culled.mean_keep_fraction:.1%} of dense, "
          f"mean occupancy {culled.mean_occupancy_fraction:.1%}, "
          f"PSNR gap {culled.mean_rgb_psnr - dense.mean_rgb_psnr:+.2f} dB")


if __name__ == "__main__":
    main()
