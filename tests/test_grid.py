"""Tests for the multiresolution hash-grid encoding."""

import dataclasses

import numpy as np
import pytest

from repro.core.model import DecoupledRadianceField
from repro.grid import (
    CORNER_OFFSETS,
    HashGridConfig,
    MultiResHashGrid,
    PI2,
    PI3,
    dense_index,
    spatial_hash,
    trilinear_weights,
)
from repro.grid.interpolation import interpolate, interpolate_backward
from repro.nerf import pipeline as pipeline_module
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.pipeline import RenderPipeline
from repro.training.metrics import render_view
from repro.training.trainer import Trainer
from repro.utils.seeding import new_rng

from gradcheck import numerical_gradient
from helpers import occupy
from oracles import per_level_loop


class TestSpatialHash:
    def test_range(self):
        coords = new_rng(0).integers(0, 1000, size=(100, 3))
        h = spatial_hash(coords, table_size=512)
        assert np.all(h >= 0) and np.all(h < 512)

    def test_deterministic(self):
        coords = np.array([[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(spatial_hash(coords, 1024),
                                      spatial_hash(coords, 1024))

    def test_x_locality(self):
        """Differences along x translate directly into small address deltas."""
        table = 1 << 20
        a = spatial_hash(np.array([[100, 7, 9]]), table)[0]
        b = spatial_hash(np.array([[101, 7, 9]]), table)[0]
        assert abs(int(a) - int(b)) <= 1 or abs(abs(int(a) - int(b)) - table) <= 1

    def test_y_z_remoteness(self):
        """Differences along y or z are amplified by the large primes."""
        table = 1 << 20
        base = spatial_hash(np.array([[100, 7, 9]]), table)[0]
        y_next = spatial_hash(np.array([[100, 8, 9]]), table)[0]
        z_next = spatial_hash(np.array([[100, 7, 10]]), table)[0]
        assert abs(int(base) - int(y_next)) > 100
        assert abs(int(base) - int(z_next)) > 100

    def test_matches_reference_formula(self):
        coords = np.array([[3, 5, 7]])
        expected = (np.uint64(3) ^ (np.uint64(5) * PI2 & np.uint64(0xFFFFFFFF))
                    ^ (np.uint64(7) * PI3 & np.uint64(0xFFFFFFFF))) % np.uint64(997)
        assert spatial_hash(coords, 997)[0] == int(expected)

    def test_invalid_table_size(self):
        with pytest.raises(ValueError):
            spatial_hash(np.zeros((1, 3), dtype=int), 0)

    def test_negative_coordinates_rejected(self):
        """Regression: negative coordinates used to wrap through the uint64
        cast into valid-looking but wrong addresses."""
        with pytest.raises(ValueError, match="non-negative"):
            spatial_hash(np.array([[-1, 2, 3]]), 1024)
        with pytest.raises(ValueError):
            spatial_hash(np.array([[1, 2, 3], [4, -5, 6]]), 1024)
        with pytest.raises(ValueError):
            spatial_hash(np.array([[-1.0, 2.0, 3.0]]), 1024)   # float coords too

    def test_validate_opt_out_for_structurally_safe_callers(self):
        coords = np.array([[3, 5, 7]])
        np.testing.assert_array_equal(
            spatial_hash(coords, 997, validate=False), spatial_hash(coords, 997)
        )


class TestDenseIndex:
    def test_bijective_on_grid(self):
        res = 4
        coords = np.stack(np.meshgrid(*[np.arange(res + 1)] * 3, indexing="ij"),
                          axis=-1).reshape(-1, 3)
        idx = dense_index(coords, res)
        assert len(np.unique(idx)) == (res + 1) ** 3
        assert idx.min() == 0 and idx.max() == (res + 1) ** 3 - 1

    def test_x_is_fastest_axis(self):
        assert dense_index(np.array([1, 0, 0]), 4) - dense_index(np.array([0, 0, 0]), 4) == 1


class TestTrilinearWeights:
    def test_weights_sum_to_one(self):
        frac = new_rng(1).uniform(size=(50, 3))
        w = trilinear_weights(frac)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_corner_exactness(self):
        """At a corner, all weight concentrates on that corner."""
        for corner_idx, offset in enumerate(CORNER_OFFSETS):
            w = trilinear_weights(offset[None, :].astype(float))
            assert np.isclose(w[0, corner_idx], 1.0)
            assert np.isclose(w[0].sum(), 1.0)

    def test_center_is_uniform(self):
        w = trilinear_weights(np.full((1, 3), 0.5))
        np.testing.assert_allclose(w, 1.0 / 8.0)

    def test_interpolate_constant_field(self):
        values = np.ones((5, 8, 2)) * 3.0
        w = trilinear_weights(new_rng(2).uniform(size=(5, 3)))
        out = interpolate(values, w)
        np.testing.assert_allclose(out, 3.0)

    def test_interpolate_backward_shapes_and_values(self):
        w = trilinear_weights(np.full((2, 3), 0.5))
        grad = interpolate_backward(np.ones((2, 3)), w)
        assert grad.shape == (2, 8, 3)
        np.testing.assert_allclose(grad, 1.0 / 8.0)


class TestHashGridConfig:
    def test_per_level_scale(self, tiny_grid_config):
        cfg = tiny_grid_config
        assert cfg.level_resolution(0) == cfg.base_resolution
        assert cfg.level_resolution(cfg.n_levels - 1) <= cfg.finest_resolution
        assert cfg.per_level_scale > 1.0

    def test_scaled_reduces_entries(self, tiny_grid_config):
        scaled = tiny_grid_config.scaled(0.25)
        assert scaled.max_table_entries < tiny_grid_config.max_table_entries
        assert scaled.n_levels == tiny_grid_config.n_levels

    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError):
            HashGridConfig(n_levels=0)
        with pytest.raises(ValueError):
            HashGridConfig(size_scale=0.0)
        with pytest.raises(ValueError):
            HashGridConfig(base_resolution=32, finest_resolution=16)


class TestMultiResHashGrid:
    def test_forward_shape(self, tiny_grid_config):
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        points = new_rng(1).uniform(size=(17, 3))
        out = grid.forward(points)
        assert out.shape == (17, tiny_grid_config.n_output_features)

    def test_coarse_levels_are_dense(self, tiny_grid_config):
        coarsest = tiny_grid_config.layout[0]
        assert coarsest.dense
        assert coarsest.size == (tiny_grid_config.base_resolution + 1) ** 3

    def test_access_record_populated(self, tiny_grid_config):
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        points = new_rng(2).uniform(size=(9, 3))
        grid.forward(points)
        record = grid.last_access
        assert record is not None
        assert record.n_points == 9
        assert record.n_levels == tiny_grid_config.n_levels
        assert record.address_planes.size == 9 * 8 * tiny_grid_config.n_levels
        flat = record.flat_addresses()
        assert flat.size == record.address_planes.size
        assert flat.max() < grid.table.shape[0]

    def test_backward_before_forward_raises(self, tiny_grid_config):
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        with pytest.raises(RuntimeError):
            grid.backward(np.zeros((3, tiny_grid_config.n_output_features)))

    def test_backward_scatters_gradients(self, tiny_grid_config):
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        points = new_rng(3).uniform(size=(5, 3))
        out = grid.forward(points)
        grid.backward(np.ones_like(out))
        assert np.any(grid.table.grad != 0.0)

    def test_backward_matches_numerical_for_single_level(self):
        config = HashGridConfig(n_levels=1, n_features_per_level=2,
                                log2_hashmap_size=8, base_resolution=4,
                                finest_resolution=4)
        grid = MultiResHashGrid(config, rng=new_rng(4))
        points = new_rng(5).uniform(0.1, 0.9, size=(3, 3))
        table = grid.table

        def loss_for_table(t):
            saved = table.data.copy()
            table.data[...] = t.astype(np.float32)
            out = grid.forward(points)
            table.data[...] = saved
            return float(np.sum(out ** 2))

        out = grid.forward(points)
        grid.zero_grad()
        grid.backward(2.0 * out)
        numeric = numerical_gradient(loss_for_table, table.data.astype(np.float64))
        np.testing.assert_allclose(table.grad, numeric, rtol=2e-2, atol=2e-2)

    def test_points_outside_unit_cube_are_clamped(self, tiny_grid_config):
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        out = grid.forward(np.array([[-0.5, 1.5, 0.5], [2.0, -1.0, 3.0]]))
        assert np.all(np.isfinite(out))

    def test_storage_and_access_accounting(self, tiny_grid_config):
        """8 recorded reads per level per point; the table rows are
        checked by ``test_grid_storage_follows_config_layout``."""
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        grid.forward(new_rng(1).uniform(size=(5, 3)))
        assert (grid.last_access.address_planes.size
                == 5 * 8 * tiny_grid_config.n_levels)

    def test_invalid_points_shape_raises(self, tiny_grid_config):
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        with pytest.raises(ValueError):
            grid.forward(np.zeros((3, 2)))


def _boundary_points(rng, n_random=40):
    """Query points including every exact-corner combination of 0.0 / 1.0."""
    corners = np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    )
    edges = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.5], [0.5, 1.0, 0.0]])
    return np.concatenate([corners, edges, rng.uniform(size=(n_random, 3))])


class TestFusedEngine:
    """The grid engine vs the frozen per-level loop oracle (``oracles.py``)."""

    CONFIGS = {
        "tiny": HashGridConfig(n_levels=4, n_features_per_level=2,
                               log2_hashmap_size=10, base_resolution=4,
                               finest_resolution=32),
        # A smaller power-of-two table (2**11 * 0.25 = 512 rows).
        "scaled": HashGridConfig(n_levels=5, n_features_per_level=2,
                                 log2_hashmap_size=11, base_resolution=4,
                                 finest_resolution=48, size_scale=0.25),
        # Non-power-of-two tables (round(2**11 * 0.3) = 614 rows) take the
        # modulo path.
        "nonpow2": HashGridConfig(n_levels=5, n_features_per_level=2,
                                  log2_hashmap_size=11, base_resolution=4,
                                  finest_resolution=48, size_scale=0.3),
        # finest_resolution >= 2**24 selects the wide lattice (int64 base
        # coordinates, uint64 hash with explicit 32-bit masking), with
        # power-of-two and non-power-of-two (round(2**10 * 0.3)) tables.
        "wide": HashGridConfig(n_levels=3, n_features_per_level=2,
                               log2_hashmap_size=10, base_resolution=4,
                               finest_resolution=2 ** 24),
        "wide_nonpow2": HashGridConfig(n_levels=3, n_features_per_level=2,
                                       log2_hashmap_size=10, base_resolution=4,
                                       finest_resolution=2 ** 24,
                                       size_scale=0.3),
        # F != 2 exercises the generic (non-complex) gather path.
        "f3": HashGridConfig(n_levels=3, n_features_per_level=3,
                             log2_hashmap_size=9, base_resolution=4,
                             finest_resolution=16),
    }

    @pytest.mark.parametrize("key,lattice,pow2", [
        ("tiny", np.int32, True), ("scaled", np.int32, True),
        ("nonpow2", np.int32, False), ("wide", np.int64, True),
        ("wide_nonpow2", np.int64, False)])
    def test_configs_reach_each_lattice_and_hash_path(self, key, lattice, pow2):
        grid = MultiResHashGrid(self.CONFIGS[key], rng=new_rng(7))
        assert grid._base_dtype == lattice
        assert grid._hash_all_pow2 == pow2
        assert grid._hash_idx.size > 0

    @pytest.mark.parametrize("key", sorted(CONFIGS))
    def test_forward_matches_loop(self, key):
        grid = MultiResHashGrid(self.CONFIGS[key], rng=new_rng(7))
        points = _boundary_points(new_rng(8))
        out = grid.forward(points)
        out_loop, _, _ = per_level_loop(grid, points)
        np.testing.assert_allclose(out.astype(np.float64),
                                   out_loop.astype(np.float64), atol=1e-10)

    @pytest.mark.parametrize("key", sorted(CONFIGS))
    def test_access_traces_bit_identical(self, key):
        config = self.CONFIGS[key]
        grid = MultiResHashGrid(config, rng=new_rng(7))
        points = _boundary_points(new_rng(9))
        grid.forward(points)
        _, rec_l, _ = per_level_loop(grid, points)
        rec_f = grid.last_access
        assert rec_f.level_offsets == rec_l.level_offsets
        assert rec_f.table_sizes == rec_l.table_sizes
        np.testing.assert_array_equal(rec_f.flat_addresses(), rec_l.flat_addresses())
        for level in range(config.n_levels):
            np.testing.assert_array_equal(rec_f.addresses[level],
                                          rec_l.addresses[level])
            np.testing.assert_array_equal(
                rec_f.weight_planes[:, level, :].T, rec_l.weights[level])
            np.testing.assert_array_equal(rec_f.flat_addresses(level),
                                          rec_l.flat_addresses(level))

    @pytest.mark.parametrize("key", sorted(CONFIGS))
    def test_backward_matches_loop(self, key):
        grid = MultiResHashGrid(self.CONFIGS[key], rng=new_rng(7))
        points = _boundary_points(new_rng(10))
        out = grid.forward(points)
        grad = new_rng(11).normal(size=out.shape)
        _, _, grad_loop = per_level_loop(grid, points, grad)
        grid.backward(grad)
        np.testing.assert_allclose(grid.table.grad, grad_loop,
                                   rtol=1e-5, atol=1e-7)

    def test_backward_adds_into_the_existing_gradient(self):
        """The dense backward adds over the whole table: rows no corner
        touched keep their bits, touched rows gain the loop's gradient."""
        grid = MultiResHashGrid(self.CONFIGS["tiny"], rng=new_rng(7))
        points = new_rng(10).uniform(0.2, 0.4, size=(16, 3))
        out = grid.forward(points)
        grad = new_rng(11).normal(size=out.shape)
        _, _, grad_loop = per_level_loop(grid, points, grad)
        prior = new_rng(12).normal(size=grid.table.grad.shape).astype(np.float32)
        prior[::7] = 0.0
        grid.table.grad[...] = prior
        grid.backward(grad)
        untouched = ~np.any(grad_loop != 0.0, axis=1)
        assert 0 < untouched.sum() < untouched.size
        assert np.array_equal(grid.table.grad[untouched].view(np.uint32),
                              prior[untouched].view(np.uint32))
        np.testing.assert_allclose(grid.table.grad, prior + grad_loop,
                                   rtol=1e-5, atol=1e-6)

    def test_gradcheck_at_cube_boundaries(self):
        """Finite-difference gradcheck with points exactly at 0.0 and 1.0."""
        config = HashGridConfig(n_levels=1, n_features_per_level=2,
                                log2_hashmap_size=8, base_resolution=4,
                                finest_resolution=4)
        grid = MultiResHashGrid(config, rng=new_rng(5))
        points = np.array([
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 0.5],
            [1.0, 0.3, 0.0],
        ])
        table = grid.table

        def loss_for_table(t):
            saved = table.data.copy()
            table.data[...] = t.astype(np.float32)
            out = grid.forward(points)
            table.data[...] = saved
            return float(np.sum(out ** 2))

        out = grid.forward(points)
        grid.zero_grad()
        grid.backward(2.0 * out)
        numeric = numerical_gradient(loss_for_table, table.data.astype(np.float64))
        np.testing.assert_allclose(table.grad, numeric, rtol=2e-2, atol=2e-2)


class TestRenderChunks:
    """``render_view`` streams a view through ``render_coalesced``'s
    ``DEFAULT_CHUNK_POINTS`` chunks: no buffer beyond a training step's,
    and the colors of one whole-view query to BLAS rounding."""

    def test_render_grows_no_arena_buffer(self, tiny_config, tiny_dataset):
        """After a dense step of at least one chunk of points, a dense
        32x32 render (48 samples, 49,152 points) allocates nothing in the
        trainer's arena."""
        config = dataclasses.replace(tiny_config, batch_pixels=256)
        assert (config.batch_pixels * config.n_samples_per_ray
                >= pipeline_module.DEFAULT_CHUNK_POINTS)
        trainer = Trainer(DecoupledRadianceField(config, seed=0),
                          tiny_dataset, config=config, seed=0)
        trainer.train_step()

        def backing():
            return {key: array.size
                    for key, array in trainer.arena._backing.items()}

        before = backing()
        camera = tiny_dataset.test_views[0].camera
        camera = dataclasses.replace(
            camera, width=32, height=32,
            focal=camera.focal * 32 / camera.width)
        render_view(trainer.model, camera, tiny_dataset.scene_bound,
                    n_samples=48, policy=trainer.policy)
        assert backing() == before

    @pytest.mark.parametrize("culled", [False, True])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_chunks_match_one_whole_view_query(self, monkeypatch, tiny_config,
                                               tiny_dataset, dtype, culled):
        config = dataclasses.replace(tiny_config, compute_dtype=dtype)
        model = DecoupledRadianceField(config, seed=0)
        occupancy = None
        if culled:
            occupancy = OccupancyGrid(seed=0)
            occupy(occupancy, new_rng(0).uniform(0.3, 0.7, size=(2048, 3)))
        camera = tiny_dataset.test_views[0].camera
        whole = RenderPipeline(
            model, tiny_dataset.scene_bound, n_samples=48,
            occupancy=occupancy, policy=model.policy,
        ).render_rays(camera.all_rays(), rng=None)
        # 250 points per chunk: boundaries fall inside rays.
        monkeypatch.setattr(pipeline_module, "DEFAULT_CHUNK_POINTS", 250)
        chunks = []
        query = model.query

        def counting(points, dirs):
            chunks.append(points.shape[0])
            return query(points, dirs)

        monkeypatch.setattr(model, "query", counting)
        rgb, depth = render_view(model, camera, tiny_dataset.scene_bound,
                                 n_samples=48, occupancy=occupancy,
                                 policy=model.policy)
        assert len(chunks) > 2 and max(chunks) == 250
        assert sum(chunks) == whole.n_queried
        assert (whole.n_queried < whole.n_total) == culled
        np.testing.assert_allclose(
            rgb.reshape(-1, 3), np.clip(whole.render.colors, 0.0, 1.0),
            rtol=0, atol=1e-6)
        np.testing.assert_allclose(depth.reshape(-1), whole.render.depth,
                                   rtol=0, atol=1e-6)


class TestInstantNGPEquations:
    """The encoding re-derived from the Instant-NGP paper's equations alone
    (no library helper), compared with :meth:`MultiResHashGrid.forward`.

    * growth factor ``b = exp((ln N_max - ln N_min) / (L - 1))`` and level
      resolution ``N_l = floor(N_min * b**l)``;
    * a level whose dense grid needs at most ``T`` entries,
      ``(N_l + 1)**3 <= T``, maps vertices 1:1 (x fastest); finer levels
      use ``h(x) = (x1*pi1 XOR x2*pi2 XOR x3*pi3) mod T`` with 32-bit
      wrapping products, pi1 = 1, pi2 = 2654435761, pi3 = 805459861;
    * each level trilinearly interpolates its 8 corner features, and the
      levels' features are concatenated.
    """

    PRIMES = (1, 2654435761, 805459861)

    @pytest.mark.parametrize("config", [
        HashGridConfig(n_levels=5, n_features_per_level=2,
                       log2_hashmap_size=10, base_resolution=4,
                       finest_resolution=48),
        HashGridConfig(n_levels=3, n_features_per_level=3,
                       log2_hashmap_size=9, base_resolution=6,
                       finest_resolution=30, size_scale=0.77),
    ], ids=["f2-pow2", "f3-scaled"])
    def test_forward_matches_the_equations(self, config):
        grid = MultiResHashGrid(config, rng=new_rng(0))
        # Features of order one, so float32 output rounding is the only
        # difference left.
        grid.table.data[...] = new_rng(1).standard_normal(grid.table.shape)
        points = np.concatenate([new_rng(2).random((300, 3)),
                                 [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
        n_min, n_max, n_levels = (config.base_resolution,
                                  config.finest_resolution, config.n_levels)
        b = np.exp((np.log(n_max) - np.log(n_min)) / (n_levels - 1))
        t_max = int(round(2 ** config.log2_hashmap_size * config.size_scale))
        expected = []
        for level in range(n_levels):
            res = int(np.floor(n_min * b ** level))
            stored = config.layout[level]
            assert stored.resolution == res
            dense = (res + 1) ** 3 <= t_max
            table = grid.table.data[stored.offset:stored.offset + stored.size]
            table = table.astype(np.float64)
            assert table.shape[0] == ((res + 1) ** 3 if dense else t_max)
            scaled = points * res
            # The upper cube face belongs to the last cell (weight 1).
            base = np.minimum(np.floor(scaled).astype(np.int64), res - 1)
            frac = scaled - base
            features = np.zeros((len(points), table.shape[1]))
            for dx in (0, 1):
                for dy in (0, 1):
                    for dz in (0, 1):
                        vx, vy, vz = (base + [dx, dy, dz]).T
                        if dense:
                            index = vx + vy * (res + 1) + vz * (res + 1) ** 2
                        else:
                            index = np.array([
                                ((x * self.PRIMES[0]) ^ (y * self.PRIMES[1])
                                 ^ (z * self.PRIMES[2])) % 2 ** 32 % t_max
                                for x, y, z in zip(vx.tolist(), vy.tolist(),
                                                   vz.tolist())])
                        weight = np.prod(np.where([dx, dy, dz], frac,
                                                  1.0 - frac), axis=1)
                        features += weight[:, None] * table[index]
            expected.append(features)
        got = grid.forward(points).astype(np.float64)
        np.testing.assert_allclose(got, np.concatenate(expected, axis=1),
                                   rtol=1e-6, atol=1e-6)
