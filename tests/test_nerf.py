"""Tests for the NeRF substrate: cameras, sampling, volume rendering, losses."""

import numpy as np
import pytest

from repro.nerf import (
    PinholeCamera,
    RayBundle,
    VolumeRenderer,
    mse_loss,
    mse_to_psnr,
    psnr,
    sample_pixel_batch,
    spherical_harmonics_encoding,
    stratified_samples,
    ray_points,
)
from repro.nerf.encoding import spherical_harmonics_dim
from repro.nerf.sampling import normalize_points_to_unit_cube
from repro.utils.math3d import look_at_pose
from repro.utils.seeding import new_rng

from gradcheck import numerical_gradient


def _camera(width=8, height=6, near=0.5, far=3.0):
    pose = look_at_pose(eye=[0.0, -2.0, 0.0], target=[0.0, 0.0, 0.0])
    return PinholeCamera(width=width, height=height, focal=10.0, pose=pose,
                         near=near, far=far)


class TestPinholeCamera:
    def test_all_rays_count_and_unit_directions(self):
        cam = _camera()
        bundle = cam.all_rays()
        assert bundle.n_rays == cam.n_pixels
        np.testing.assert_allclose(np.linalg.norm(bundle.directions, axis=1), 1.0)

    def test_rays_originate_at_camera_center(self):
        cam = _camera()
        bundle = cam.all_rays()
        np.testing.assert_allclose(
            bundle.origins, np.tile(cam.pose[:3, 3], (bundle.n_rays, 1)))

    def test_center_pixel_looks_forward(self):
        cam = _camera(width=9, height=9)
        bundle = cam.rays_for_pixels(np.array([4]), np.array([4]))
        forward = -cam.pose[:3, 2]
        assert np.dot(bundle.directions[0], forward) > 0.99

    def test_invalid_camera_raises(self):
        with pytest.raises(ValueError):
            PinholeCamera(width=0, height=4, focal=5.0, pose=np.eye(4))
        with pytest.raises(ValueError):
            PinholeCamera(width=4, height=4, focal=5.0, pose=np.eye(3))

    def test_ray_bundle_validation(self):
        with pytest.raises(ValueError):
            RayBundle(origins=np.zeros((2, 3)), directions=np.zeros((3, 3)),
                      near=0.1, far=1.0)
        with pytest.raises(ValueError):
            RayBundle(origins=np.zeros((2, 3)), directions=np.zeros((2, 3)),
                      near=1.0, far=0.5)


class TestSamplePixelBatch:
    def test_shapes_and_targets_match_images(self):
        cam = _camera()
        image = new_rng(0).uniform(size=(cam.height, cam.width, 3))
        bundle, targets = sample_pixel_batch([cam], [image], batch_size=32,
                                             rng=new_rng(1))
        assert bundle.n_rays == 32 and targets.shape == (32, 3)
        assert np.all((targets >= 0.0) & (targets <= 1.0))

    def test_multiple_views_are_sampled(self):
        cams = [_camera(), _camera()]
        images = [np.zeros((6, 8, 3)), np.ones((6, 8, 3))]
        _bundle, targets = sample_pixel_batch(cams, images, batch_size=200,
                                              rng=new_rng(2))
        assert np.any(targets == 0.0) and np.any(targets == 1.0)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            sample_pixel_batch([], [], batch_size=4, rng=new_rng(0))


class TestStratifiedSamples:
    def test_samples_within_bounds_and_sorted(self):
        bundle = _camera().all_rays()
        t_vals, deltas = stratified_samples(bundle, 16, rng=new_rng(0))
        assert t_vals.shape == (bundle.n_rays, 16)
        assert np.all(t_vals >= bundle.near) and np.all(t_vals <= bundle.far)
        assert np.all(np.diff(t_vals, axis=1) > 0)
        assert np.all(deltas > 0)

    def test_deterministic_without_rng(self):
        bundle = _camera().all_rays()
        a, _ = stratified_samples(bundle, 8, rng=None)
        b, _ = stratified_samples(bundle, 8, rng=None)
        np.testing.assert_array_equal(a, b)

    def test_ray_points_shapes(self):
        bundle = _camera().all_rays()
        t_vals, _ = stratified_samples(bundle, 4, rng=None)
        points, dirs = ray_points(bundle, t_vals)
        assert points.shape == (bundle.n_rays * 4, 3)
        assert dirs.shape == points.shape

    def test_ray_points_lie_on_rays(self):
        bundle = _camera().all_rays()
        t_vals, _ = stratified_samples(bundle, 3, rng=None)
        points, _ = ray_points(bundle, t_vals)
        first = points[0]
        expected = bundle.origins[0] + t_vals[0, 0] * bundle.directions[0]
        np.testing.assert_allclose(first, expected)

    def test_normalize_points_to_unit_cube(self):
        pts = np.array([[-1.0, 0.0, 1.0], [2.0, -2.0, 0.0]])
        unit = normalize_points_to_unit_cube(pts, scene_bound=1.0)
        assert np.all(unit >= 0.0) and np.all(unit <= 1.0)
        np.testing.assert_allclose(unit[0], [0.0, 0.5, 1.0])

    def test_interior_deltas_floored_when_jitter_hits_bin_edges(self):
        """Regression: jitter landing on adjacent bin edges used to emit
        zero-width interior deltas (only the last delta was floored)."""

        class _EdgeJitter:
            def random(self, out):
                out.fill(0.0)
                out[:, 0::2] = 1.0        # bin k at its upper edge,
                return out                # bin k+1 at its lower edge

        bundle = _camera().all_rays()
        t_vals, deltas = stratified_samples(bundle, 6, rng=_EdgeJitter())
        raw = np.diff(t_vals, axis=1)
        assert np.any(raw == 0.0)         # the degenerate case actually occurs
        assert np.all(deltas >= 1e-6)

    def test_single_sample_per_ray(self):
        bundle = _camera().all_rays()

        class _FarEdgeJitter:
            def random(self, out):
                out.fill(1.0)             # sample lands exactly on ``far``
                return out

        t_vals, deltas = stratified_samples(bundle, 1, rng=_FarEdgeJitter())
        assert t_vals.shape == (bundle.n_rays, 1)
        assert deltas.shape == (bundle.n_rays, 1)
        np.testing.assert_allclose(t_vals[:, 0], bundle.far)
        np.testing.assert_allclose(deltas, 1e-6)
        # Deterministic midpoint variant stays positive as well.
        _, mid_deltas = stratified_samples(bundle, 1, rng=None)
        assert np.all(mid_deltas > 0.0)


class TestVolumeRenderer:
    def _random_inputs(self, n_rays=4, n_samples=8, seed=0):
        rng = new_rng(seed)
        sigmas = rng.uniform(0.0, 5.0, size=(n_rays, n_samples))
        rgbs = rng.uniform(size=(n_rays, n_samples, 3))
        t_vals = np.sort(rng.uniform(0.1, 2.0, size=(n_rays, n_samples)), axis=1)
        deltas = np.diff(t_vals, axis=1)
        deltas = np.concatenate([deltas, np.full((n_rays, 1), 0.05)], axis=1)
        return sigmas, rgbs, deltas, t_vals

    def test_weights_are_valid_distribution(self):
        renderer = VolumeRenderer(white_background=False)
        sigmas, rgbs, deltas, t_vals = self._random_inputs()
        out = renderer.forward(sigmas, rgbs, deltas, t_vals)
        assert np.all(out.weights >= 0.0)
        assert np.all(out.accumulation <= 1.0 + 1e-9)

    def test_empty_space_renders_background(self):
        renderer = VolumeRenderer(white_background=True)
        n_rays, n_samples = 3, 6
        out = renderer.forward(np.zeros((n_rays, n_samples)),
                               np.zeros((n_rays, n_samples, 3)),
                               np.full((n_rays, n_samples), 0.1),
                               np.linspace(0.1, 1.0, n_samples)[None, :].repeat(n_rays, 0))
        np.testing.assert_allclose(out.colors, 1.0)

    def test_opaque_first_sample_dominates(self):
        renderer = VolumeRenderer(white_background=False)
        sigmas = np.array([[1000.0, 1000.0]])
        rgbs = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        deltas = np.array([[0.5, 0.5]])
        t_vals = np.array([[0.5, 1.0]])
        out = renderer.forward(sigmas, rgbs, deltas, t_vals)
        np.testing.assert_allclose(out.colors, [[1.0, 0.0, 0.0]], atol=1e-6)
        assert np.isclose(out.depth[0], 0.5, atol=1e-3)

    @pytest.mark.parametrize("white_background", [False, True])
    def test_backward_matches_numerical(self, white_background):
        renderer = VolumeRenderer(white_background=white_background)
        sigmas, rgbs, deltas, t_vals = self._random_inputs(n_rays=2, n_samples=5, seed=3)
        target = new_rng(4).uniform(size=(2, 3))

        def loss_from_sigmas(s):
            fresh = VolumeRenderer(white_background=white_background)
            out = fresh.forward(s, rgbs, deltas, t_vals)
            return float(np.sum((out.colors - target) ** 2))

        def loss_from_rgbs(c):
            fresh = VolumeRenderer(white_background=white_background)
            out = fresh.forward(sigmas, c.reshape(rgbs.shape), deltas, t_vals)
            return float(np.sum((out.colors - target) ** 2))

        out = renderer.forward(sigmas, rgbs, deltas, t_vals)
        grad_colors = 2.0 * (out.colors - target)
        grad_sigmas, grad_rgbs = renderer.backward(grad_colors)
        num_sigma = numerical_gradient(loss_from_sigmas, sigmas.copy())
        num_rgb = numerical_gradient(loss_from_rgbs, rgbs.copy().reshape(-1)).reshape(rgbs.shape)
        np.testing.assert_allclose(grad_sigmas, num_sigma, rtol=1e-3, atol=1e-5)
        np.testing.assert_allclose(grad_rgbs, num_rgb, rtol=1e-3, atol=1e-5)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            VolumeRenderer().backward(np.zeros((1, 3)))

    def test_shape_validation(self):
        renderer = VolumeRenderer()
        with pytest.raises(ValueError):
            renderer.forward(np.zeros((2, 3)), np.zeros((2, 3, 3)),
                             np.zeros((2, 4)), np.zeros((2, 3)))


class TestLossesAndEncodings:
    def test_mse_loss_and_gradient(self):
        pred = np.array([[0.5, 0.5, 0.5]])
        target = np.array([[1.0, 0.0, 0.5]])
        loss, grad = mse_loss(pred, target)
        assert np.isclose(loss, (0.25 + 0.25) / 3)
        numeric = numerical_gradient(lambda p: mse_loss(p, target)[0], pred.copy())
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-6)

    def test_psnr_perfect_and_noisy(self):
        img = new_rng(0).uniform(size=(4, 4, 3))
        assert psnr(img, img) > 100.0
        assert psnr(img, np.clip(img + 0.1, 0, 1)) < psnr(img, img)

    def test_mse_to_psnr_monotonic(self):
        assert mse_to_psnr(0.01) > mse_to_psnr(0.1)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_spherical_harmonics_dim(self, degree):
        dirs = new_rng(degree).normal(size=(7, 3))
        out = spherical_harmonics_encoding(dirs, degree=degree)
        assert out.shape == (7, spherical_harmonics_dim(degree))
        assert np.all(np.isfinite(out))

    def test_spherical_harmonics_rotation_invariance_of_l0(self):
        dirs = new_rng(9).normal(size=(10, 3))
        out = spherical_harmonics_encoding(dirs, degree=2)
        np.testing.assert_allclose(out[:, 0], 0.28209479177387814)
