"""Shared fixtures for the test suite.

The heavy objects (rendered datasets, extracted memory traces) are built once
per session at deliberately tiny scale so the full suite stays fast while
still exercising the real code paths end to end.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.datasets import make_synthetic_scene, nerf_synthetic_like
from repro.datasets.dataset import build_dataset
from repro.grid.hash_encoding import HashGridConfig
from repro.utils.seeding import new_rng

#: CI numerics leg: REPRO_STRICT_NUMERICS=1 runs every test under
#: ``np.errstate(invalid="raise", divide="raise")`` so silent invalid-value
#: arithmetic in the hot paths fails loudly instead of producing NaNs.
#: Tests that *deliberately* create non-finite values (the health-watchdog
#: suite, fault-injection drills) opt out with ``@pytest.mark.nonfinite``.
_STRICT_NUMERICS = os.environ.get("REPRO_STRICT_NUMERICS", "") not in ("", "0")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "nonfinite: test deliberately produces NaN/inf values; excluded "
        "from the REPRO_STRICT_NUMERICS=1 errstate-raise leg")


@pytest.fixture(autouse=True)
def strict_numerics(request):
    if not _STRICT_NUMERICS or request.node.get_closest_marker("nonfinite"):
        yield
        return
    with np.errstate(invalid="raise", divide="raise"):
        yield


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return new_rng(1234)


@pytest.fixture(scope="session")
def tiny_grid_config() -> HashGridConfig:
    """A small multiresolution grid used across unit tests."""
    return HashGridConfig(
        n_levels=4,
        n_features_per_level=2,
        log2_hashmap_size=10,
        base_resolution=4,
        finest_resolution=32,
    )


@pytest.fixture(scope="session")
def tiny_config(tiny_grid_config) -> Instant3DConfig:
    """A reduced-scale Instant-3D configuration for fast training tests."""
    return Instant3DConfig.instant_3d(
        grid=tiny_grid_config,
        batch_pixels=64,
        n_samples_per_ray=16,
        mlp_hidden_width=16,
        mlp_hidden_layers=1,
    )


@pytest.fixture(scope="session")
def baseline_tiny_config(tiny_grid_config) -> Instant3DConfig:
    """The Instant-NGP-baseline counterpart of ``tiny_config``."""
    return Instant3DConfig.instant_ngp_baseline(
        grid=tiny_grid_config,
        batch_pixels=64,
        n_samples_per_ray=16,
        mlp_hidden_width=16,
        mlp_hidden_layers=1,
    )


@pytest.fixture(scope="session")
def bench_scale_config() -> Instant3DConfig:
    """The benchmarks' reduced-scale learning configuration.

    Equal to ``benchmarks.common.bench_config(0.25, 0.5)``: a 6-level
    2^12-entry density grid, a color grid a quarter that size updated on
    every other iteration, 192-pixel batches of 24 samples.  Tests that pin
    a figure measured at benchmark scale (merge rates, query reductions,
    allocation ledgers) start from it.
    """
    return Instant3DConfig(
        grid=HashGridConfig(n_levels=6, n_features_per_level=2,
                            log2_hashmap_size=12, base_resolution=8,
                            finest_resolution=96),
        color_size_ratio=0.25,
        color_update_freq=0.5,
        mlp_hidden_width=32,
        mlp_hidden_layers=2,
        batch_pixels=192,
        n_samples_per_ray=24,
        learning_rate=1e-2,
    )


@pytest.fixture(scope="session")
def bench_lego_20px():
    """The benchmark-scale lego scene: 6 train views, 1 test view, 20 px."""
    return nerf_synthetic_like(["lego"], n_train_views=6, n_test_views=1,
                               image_size=20)[0]


@pytest.fixture(scope="session")
def tiny_dataset():
    """A tiny rendered dataset of the lego-like scene (built once per session)."""
    scene = make_synthetic_scene("lego")
    return build_dataset(scene, n_train_views=4, n_test_views=2, image_size=20,
                         seed=0, suite="nerf_synthetic", gt_samples=48)


@pytest.fixture(scope="session")
def tiny_model(tiny_config) -> DecoupledRadianceField:
    """An untrained model matching ``tiny_config`` (do not mutate in tests)."""
    return DecoupledRadianceField(tiny_config, seed=0)


@pytest.fixture(scope="session")
def tiny_trace(tiny_model, tiny_dataset):
    """A memory trace extracted from one query batch of the tiny model."""
    from repro.accelerator.trace import extract_training_trace

    return extract_training_trace(tiny_model, tiny_dataset,
                                  batch_pixels=32, samples_per_ray=8, seed=0)
