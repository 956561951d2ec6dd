"""Tests for repro.utils: 3-D math, RNG derivation and table formatting."""

import numpy as np
import pytest

from repro.utils import (
    derive_rng,
    format_table,
    look_at_pose,
    new_rng,
    normalize,
    spherical_pose,
    transform_directions,
)


def _rotation(axis: int, angle: float) -> np.ndarray:
    """4x4 homogeneous rotation about world axis ``axis`` by ``angle``."""
    i, j = [k for k in range(3) if k != axis]
    c, s = np.cos(angle), np.sin(angle)
    m = np.eye(4)
    m[i, i], m[i, j] = c, -s
    m[j, i], m[j, j] = s, c
    return m


def rotation_x(angle: float) -> np.ndarray:
    return _rotation(0, angle)


def rotation_y(angle: float) -> np.ndarray:
    # About y the sign of sin flips: z -> x is the positive turn.
    return _rotation(1, -angle)


def rotation_z(angle: float) -> np.ndarray:
    return _rotation(2, angle)


class TestNormalize:
    def test_unit_length(self):
        v = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        out = normalize(v)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0)

    def test_zero_vector_does_not_nan(self):
        out = normalize(np.zeros(3))
        assert not np.any(np.isnan(out))

    def test_direction_preserved(self):
        v = np.array([2.0, 0.0, 0.0])
        np.testing.assert_allclose(normalize(v), [1.0, 0.0, 0.0])


class TestRotations:
    """``transform_directions`` under rotations built by the helpers above."""

    @pytest.mark.parametrize("rot", [rotation_x, rotation_y, rotation_z])
    def test_rotation_is_orthonormal(self, rot):
        m = rot(0.7)[:3, :3]
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(m), 1.0)
        dirs = normalize(new_rng(0).normal(size=(16, 3)))
        out = transform_directions(rot(0.7), dirs)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0)
        np.testing.assert_allclose(out @ out.T, dirs @ dirs.T, atol=1e-12)

    def test_rotation_z_quarter_turn(self):
        out = transform_directions(rotation_z(np.pi / 2),
                                   np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)


class TestLookAtPose:
    def test_camera_position(self):
        pose = look_at_pose(eye=[0.0, -3.0, 1.0], target=[0.0, 0.0, 0.0])
        np.testing.assert_allclose(pose[:3, 3], [0.0, -3.0, 1.0])

    def test_camera_looks_at_target(self):
        eye = np.array([2.0, -3.0, 1.5])
        pose = look_at_pose(eye=eye, target=[0.0, 0.0, 0.0])
        # Camera -z axis (third column negated) should point from eye to target.
        forward_world = -pose[:3, 2]
        expected = -eye / np.linalg.norm(eye)
        np.testing.assert_allclose(forward_world, expected, atol=1e-12)

    def test_rotation_block_is_orthonormal(self):
        pose = look_at_pose(eye=[1.0, 2.0, 3.0], target=[0.0, 0.5, 0.0])
        r = pose[:3, :3]
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)


class TestSphericalPose:
    def test_radius_respected(self):
        pose = spherical_pose(radius=2.5, theta=0.3, phi=0.4)
        assert np.isclose(np.linalg.norm(pose[:3, 3]), 2.5)

    def test_elevation_sets_z(self):
        pose = spherical_pose(radius=1.0, theta=0.0, phi=np.pi / 2)
        np.testing.assert_allclose(pose[:3, 3], [0.0, 0.0, 1.0], atol=1e-12)


class TestTransforms:
    def test_transform_directions_ignores_translation(self):
        pose = np.eye(4)
        pose[:3, 3] = [5.0, 5.0, 5.0]
        out = transform_directions(pose, np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 1.0]])


class TestSeeding:
    def test_new_rng_deterministic(self):
        assert new_rng(7).integers(0, 1000) == new_rng(7).integers(0, 1000)

    def test_derive_rng_differs_by_key(self):
        a = derive_rng(0, "pixels").integers(0, 10**9)
        b = derive_rng(0, "weights").integers(0, 10**9)
        assert a != b

    def test_derive_rng_reproducible(self):
        assert (derive_rng(3, "x").integers(0, 10**9)
                == derive_rng(3, "x").integers(0, 10**9))


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 3]], title="T")
        assert "T" in out and "a" in out and "bb" in out and "2.500" in out

    def test_row_alignment(self):
        out = format_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = out.splitlines()
        assert len(set(len(line) for line in lines[2:])) == 1
