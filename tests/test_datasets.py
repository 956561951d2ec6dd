"""Tests for the analytic scenes, ground-truth renderer and dataset suites."""

import numpy as np
import pytest

from repro.datasets import (
    AnalyticScene,
    Box,
    Cylinder,
    DatasetValidationError,
    validate_dataset,
    validate_view,
    GroundPlane,
    GroundTruthRenderer,
    NERF_SYNTHETIC_SCENES,
    SCANNET_SCENES,
    SILVR_SCENES,
    Sphere,
    build_dataset,
    make_scannet_scene,
    make_silvr_scene,
    make_synthetic_scene,
    nerf_synthetic_like,
    scannet_like,
    silvr_like,
)
from repro.datasets.scene import checker_color, gradient_color
from repro.nerf.cameras import PinholeCamera
from repro.utils.math3d import look_at_pose


class TestPrimitives:
    def test_sphere_density_inside_outside(self):
        sphere = Sphere(center=(0, 0, 0), radius=0.5, density=40.0)
        inside = sphere.density_at(np.array([[0.0, 0.0, 0.0]]))
        outside = sphere.density_at(np.array([[2.0, 0.0, 0.0]]))
        assert inside[0] > 0.9 * 40.0
        assert outside[0] < 1e-3

    def test_box_signed_distance_signs(self):
        box = Box(center=(0, 0, 0), half_extents=(1, 1, 1))
        assert box.signed_distance(np.array([[0.0, 0.0, 0.0]]))[0] < 0
        assert box.signed_distance(np.array([[2.0, 0.0, 0.0]]))[0] > 0

    def test_cylinder_contains_axis_point(self):
        cyl = Cylinder(center=(0, 0, 0), radius=0.3, half_height=0.5)
        assert cyl.density_at(np.array([[0.0, 0.0, 0.2]]))[0] > 1.0
        assert cyl.density_at(np.array([[0.0, 0.0, 1.0]]))[0] < 1e-2

    def test_ground_plane_slab(self):
        plane = GroundPlane(height=0.0, thickness=0.2)
        assert plane.density_at(np.array([[0.0, 0.0, -0.1]]))[0] > 1.0
        assert plane.density_at(np.array([[0.0, 0.0, 0.5]]))[0] < 1e-2
        assert plane.density_at(np.array([[0.0, 0.0, -0.5]]))[0] < 1e-2

    def test_invalid_primitives_raise(self):
        with pytest.raises(ValueError):
            Sphere(center=(0, 0, 0), radius=-1.0)
        with pytest.raises(ValueError):
            Box(center=(0, 0, 0), half_extents=(0, 1, 1))
        with pytest.raises(ValueError):
            Sphere(center=(0, 0, 0), radius=1.0, density=0.0)

    def test_color_functions(self):
        checker = checker_color((1, 1, 1), (0, 0, 0), scale=1.0)
        grad = gradient_color((0, 0, 0), (1, 1, 1), axis=2, low=0.0, high=1.0)
        pts = np.array([[0.1, 0.1, 0.0], [1.1, 0.1, 1.0]])
        c = checker(pts)
        g = grad(pts)
        assert c.shape == (2, 3) and g.shape == (2, 3)
        assert not np.allclose(c[0], c[1])
        np.testing.assert_allclose(g[0], 0.0)
        np.testing.assert_allclose(g[1], 1.0)


class TestAnalyticScene:
    def test_empty_scene_is_vacuum(self):
        scene = AnalyticScene(name="empty")
        pts = np.zeros((4, 3))
        np.testing.assert_allclose(scene.density_at(pts), 0.0)
        np.testing.assert_allclose(scene.color_at(pts), 0.0)

    def test_color_blend_is_density_weighted(self):
        scene = AnalyticScene(name="two")
        scene.add(Sphere(center=(0, 0, 0), radius=0.5, color=(1.0, 0.0, 0.0)))
        scene.add(Sphere(center=(2, 0, 0), radius=0.5, color=(0.0, 1.0, 0.0)))
        color = scene.color_at(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(color, [[1.0, 0.0, 0.0]], atol=1e-3)

    def test_query_interface(self):
        scene = make_synthetic_scene("mic")
        sigma, rgb = scene.query(np.zeros((3, 3)), np.ones((3, 3)))
        assert sigma.shape == (3,)
        assert rgb.shape == (3, 3)

    def test_invalid_scene_bound(self):
        with pytest.raises(ValueError):
            AnalyticScene(name="bad", scene_bound=0.0)


class TestSceneBuilders:
    @pytest.mark.parametrize("name", NERF_SYNTHETIC_SCENES)
    def test_all_synthetic_scenes_build_and_have_content(self, name):
        scene = make_synthetic_scene(name)
        assert scene.name == name
        assert len(scene.primitives) >= 3
        # Every scene should have some occupied volume near the origin region.
        probe = np.random.default_rng(0).uniform(-0.6, 0.6, size=(500, 3))
        assert scene.density_at(probe).max() > 1.0

    @pytest.mark.parametrize("name", SILVR_SCENES)
    def test_silvr_scenes_are_large_volume(self, name):
        scene = make_silvr_scene(name)
        assert scene.scene_bound >= 2.0
        assert len(scene.primitives) >= 3

    @pytest.mark.parametrize("name", SCANNET_SCENES)
    def test_scannet_scenes_have_room_shell(self, name):
        scene = make_scannet_scene(name)
        # Floor should be occupied near the bottom of the room.
        assert scene.density_at(np.array([[0.0, 0.0, -1.4]]))[0] > 1.0

    def test_unknown_scene_names_raise(self):
        with pytest.raises(ValueError):
            make_synthetic_scene("nonexistent")
        with pytest.raises(ValueError):
            make_silvr_scene("nonexistent")
        with pytest.raises(ValueError):
            make_scannet_scene("nonexistent")


class TestGroundTruthRenderer:
    def test_rendering_produces_object_and_background(self):
        scene = AnalyticScene(name="ball")
        scene.add(Sphere(center=(0, 0, 0), radius=0.4, color=(1.0, 0.0, 0.0)))
        camera = PinholeCamera(
            width=16, height=16, focal=18.0,
            pose=look_at_pose(eye=[0.0, -2.0, 0.3], target=[0.0, 0.0, 0.0]),
            near=0.5, far=4.0,
        )
        rgb, depth = GroundTruthRenderer(n_samples=96).render(scene, camera)
        assert rgb.shape == (16, 16, 3) and depth.shape == (16, 16)
        center = rgb[8, 8]
        corner = rgb[0, 0]
        assert center[0] > 0.6 and center[1] < 0.4       # red object in the middle
        np.testing.assert_allclose(corner, 1.0, atol=1e-2)  # white background
        assert depth[8, 8] < depth[0, 0] + 1e-6 or depth[0, 0] == pytest.approx(0, abs=1e9)

    def test_invalid_settings_raise(self):
        with pytest.raises(ValueError):
            GroundTruthRenderer(n_samples=1)


class TestDatasetBuilders:
    def test_tiny_dataset_fixture(self, tiny_dataset):
        assert tiny_dataset.n_train_views == 4
        assert tiny_dataset.n_test_views == 2
        view = tiny_dataset.train_views[0]
        assert view.rgb.shape == (20, 20, 3)
        assert np.all((view.rgb >= 0.0) & (view.rgb <= 1.0))

    def test_build_dataset_deterministic(self):
        scene = make_synthetic_scene("mic")
        a = build_dataset(scene, n_train_views=2, n_test_views=1, image_size=12,
                          seed=3, gt_samples=32)
        b = build_dataset(scene, n_train_views=2, n_test_views=1, image_size=12,
                          seed=3, gt_samples=32)
        np.testing.assert_allclose(a.train_views[0].rgb, b.train_views[0].rgb)

    def test_nerf_synthetic_like_subset(self):
        datasets = nerf_synthetic_like(["chair"], n_train_views=2, n_test_views=1,
                                       image_size=12)
        assert len(datasets) == 1 and datasets[0].name == "chair"

    def test_scannet_like_interior_cameras(self):
        datasets = scannet_like(["scene0000_office"], n_train_views=2, n_test_views=1,
                                image_size=12)
        dataset = datasets[0]
        # Interior rig: camera centres lie well inside the room bound.
        for view in dataset.train_views:
            assert np.linalg.norm(view.camera.pose[:3, 3]) < dataset.scene_bound

    def test_invalid_split_sizes_raise(self):
        scene = make_synthetic_scene("chair")
        with pytest.raises(ValueError):
            build_dataset(scene, n_train_views=0, n_test_views=1, image_size=8)


# -- loader contracts (scannet.py / silvr.py) ---------------------------------
#
# Rendered once per module at tiny scale; the tests below assert the shape,
# intrinsics and ray-direction contracts the trainer relies on.

_LOADER_IMAGE_SIZE = 16


@pytest.fixture(scope="module")
def scannet_dataset():
    (dataset,) = scannet_like(["scene0001_bedroom"], n_train_views=3,
                              n_test_views=2, image_size=_LOADER_IMAGE_SIZE,
                              seed=0)
    return dataset


@pytest.fixture(scope="module")
def silvr_dataset():
    (dataset,) = silvr_like(["garden"], n_train_views=3, n_test_views=2,
                            image_size=_LOADER_IMAGE_SIZE, seed=0)
    return dataset


def _all_cameras(dataset):
    return [view.camera for view in dataset.train_views + dataset.test_views]


def _assert_view_shapes(dataset, image_size):
    for view in dataset.train_views + dataset.test_views:
        assert view.rgb.shape == (image_size, image_size, 3)
        assert view.depth.shape == (image_size, image_size)
        assert np.all((view.rgb >= 0.0) & (view.rgb <= 1.0))
        assert view.camera.width == view.camera.height == image_size


def _assert_ray_contracts(dataset):
    for view in dataset.train_views:
        camera = view.camera
        bundle = camera.all_rays()
        assert bundle.n_rays == camera.n_pixels
        assert bundle.near == camera.near and bundle.far == camera.far
        # Unit-length directions, all originating at the camera centre.
        np.testing.assert_allclose(
            np.linalg.norm(bundle.directions, axis=-1), 1.0, atol=1e-12)
        assert np.all(bundle.origins == camera.pose[:3, 3])
        # The centre-pixel ray points down the camera's -z axis.
        half = camera.width // 2
        center = camera.rays_for_pixels(np.array([half]), np.array([half]))
        optical_axis = -camera.pose[:3, 2]
        assert float(center.directions[0] @ optical_axis) > 0.99


class TestScannetLoader:
    def test_suite_and_split_sizes(self, scannet_dataset):
        assert scannet_dataset.name == "scene0001_bedroom"
        assert scannet_dataset.n_train_views == 3
        assert scannet_dataset.n_test_views == 2
        assert len(scannet_dataset.train_cameras) == 3
        assert len(scannet_dataset.train_images) == 3

    def test_view_shapes(self, scannet_dataset):
        _assert_view_shapes(scannet_dataset, _LOADER_IMAGE_SIZE)

    def test_intrinsics(self, scannet_dataset):
        bound = scannet_dataset.scene_bound
        for camera in _all_cameras(scannet_dataset):
            assert camera.focal == pytest.approx(0.9 * _LOADER_IMAGE_SIZE)
            assert camera.near == pytest.approx(0.05)
            assert camera.far == pytest.approx(2.0 * bound * 1.8)

    def test_interior_camera_rig(self, scannet_dataset):
        # Interior rig: every camera centre sits inside the room bound.
        for camera in _all_cameras(scannet_dataset):
            assert np.linalg.norm(camera.pose[:3, 3]) < scannet_dataset.scene_bound

    def test_ray_contracts(self, scannet_dataset):
        _assert_ray_contracts(scannet_dataset)

    def test_default_scene_list(self):
        assert SCANNET_SCENES == ("scene0000_office", "scene0001_bedroom",
                                  "scene0002_kitchen", "scene0003_lounge")

    def test_deterministic_in_seed(self):
        a = scannet_like(["scene0000_office"], n_train_views=1, n_test_views=1,
                         image_size=8, seed=7)[0]
        b = scannet_like(["scene0000_office"], n_train_views=1, n_test_views=1,
                         image_size=8, seed=7)[0]
        np.testing.assert_array_equal(a.train_views[0].rgb, b.train_views[0].rgb)
        np.testing.assert_array_equal(a.train_views[0].camera.pose,
                                      b.train_views[0].camera.pose)


class TestSilvrLoader:
    def test_suite_and_split_sizes(self, silvr_dataset):
        assert silvr_dataset.name == "garden"
        assert silvr_dataset.n_train_views == 3
        assert silvr_dataset.n_test_views == 2

    def test_view_shapes(self, silvr_dataset):
        _assert_view_shapes(silvr_dataset, _LOADER_IMAGE_SIZE)

    def test_large_volume_camera_radius(self, silvr_dataset):
        # silvr_like widens the rig to 1.9x the (>= 2.0) scene bound.
        bound = silvr_dataset.scene_bound
        assert bound >= 2.0
        for camera in _all_cameras(silvr_dataset):
            assert np.linalg.norm(camera.pose[:3, 3]) == pytest.approx(1.9 * bound)

    def test_ray_contracts(self, silvr_dataset):
        _assert_ray_contracts(silvr_dataset)

    def test_default_scene_list(self):
        assert SILVR_SCENES == ("garden", "agora", "zen_garden")


class TestDatasetValidation:
    """Loader contract: malformed views fail loudly at load time.

    ``scannet_like`` / ``silvr_like`` route their rendered output through
    :func:`validate_dataset`, so a NaN pixel or sheared pose is rejected
    with a named view instead of surfacing as a NaN mid-training.
    """

    @pytest.fixture()
    def valid_dataset(self):
        return build_dataset(make_synthetic_scene("lego"), n_train_views=2,
                             n_test_views=1, image_size=8, seed=0,
                             gt_samples=16)

    def test_loaders_emit_valid_datasets(self, scannet_dataset,
                                         silvr_dataset):
        assert validate_dataset(scannet_dataset) is scannet_dataset
        assert validate_dataset(silvr_dataset) is silvr_dataset

    @pytest.mark.nonfinite
    def test_nan_pixel_rejected(self, valid_dataset):
        valid_dataset.train_views[1].rgb[3, 3, 0] = np.nan
        with pytest.raises(DatasetValidationError,
                           match=r"train view 1.*non-finite pixels"):
            validate_dataset(valid_dataset)

    @pytest.mark.nonfinite
    def test_nan_depth_rejected(self, valid_dataset):
        valid_dataset.test_views[0].depth[0, 0] = np.inf
        with pytest.raises(DatasetValidationError,
                           match=r"test view 0.*non-finite"):
            validate_dataset(valid_dataset)

    @pytest.mark.nonfinite
    def test_nan_pose_rejected(self, valid_dataset):
        view = valid_dataset.train_views[0]
        view.camera.pose[0, 3] = np.nan
        with pytest.raises(DatasetValidationError, match="pose"):
            validate_view(view)

    def test_bad_focal_rejected(self, valid_dataset):
        view = valid_dataset.train_views[0]
        view.camera.focal = 0.0
        with pytest.raises(DatasetValidationError, match="focal"):
            validate_view(view)

    def test_wrong_image_shape_rejected(self, valid_dataset):
        view = valid_dataset.train_views[0]
        view.rgb = view.rgb[:-1]
        with pytest.raises(DatasetValidationError, match="rgb shape"):
            validate_view(view)

    def test_sheared_pose_rejected(self, valid_dataset):
        # Scale one rotation column: the ray generator would re-normalize
        # the lengths, silently bending orientations — the validator must
        # reject the block itself.
        view = valid_dataset.train_views[0]
        view.camera.pose[:3, 0] *= 1.5
        with pytest.raises(DatasetValidationError, match="orthonormal"):
            validate_view(view)
