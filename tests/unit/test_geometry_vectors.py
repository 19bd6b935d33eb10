"""Unit tests for elementary vector/angle operations."""

import math

import numpy as np
import pytest

from repro.geometry.vectors import (
    angle_between,
    angle_difference,
    dihedral_angle,
    dihedral_angles_batch,
    normalize,
    wrap_angle,
)


class TestNormalize:
    def test_unit_length(self):
        v = normalize(np.array([3.0, 4.0, 0.0]))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_zero_vector_unchanged(self):
        v = normalize(np.zeros(3))
        np.testing.assert_array_equal(v, np.zeros(3))

    def test_batched_normalisation(self):
        vs = normalize(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 5.0]]))
        np.testing.assert_allclose(np.linalg.norm(vs, axis=1), [1.0, 1.0])


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi, math.pi),
            (2 * math.pi, 0.0),
            (math.pi + 0.1, -math.pi + 0.1),
        ],
    )
    def test_scalar_wrapping(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)

    def test_scalar_input_returns_float(self):
        assert isinstance(wrap_angle(7.0), float)
        assert isinstance(wrap_angle(np.float64(7.0)), float)

    @pytest.mark.parametrize(
        "angle",
        [
            math.pi,
            -math.pi,
            3 * math.pi,
            -3 * math.pi,
            5 * math.pi,
            -7 * math.pi,
            math.nextafter(math.pi, 0.0),
            math.nextafter(-math.pi, 0.0),
            0.0,
            -0.0,
            1e300,
            -1e300,
            math.nan,
            math.inf,
            -math.inf,
        ],
    )
    def test_scalar_path_matches_array_path(self, angle):
        """The Python-float fast path returns the array path's bytes."""
        with np.errstate(invalid="ignore"):
            expected = wrap_angle(np.asarray(angle))
            results = [wrap_angle(angle), wrap_angle(np.float64(angle))]
        for got in results:
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_scalar_path_matches_array_path_on_grid(self):
        angles = np.concatenate(
            [np.linspace(-50.0, 50.0, 2001), np.arange(-9, 10) * np.pi]
        )
        wrapped = wrap_angle(angles)
        scalars = np.array([wrap_angle(float(a)) for a in angles])
        assert scalars.tobytes() == wrapped.tobytes()

    def test_array_wrapping_in_range(self):
        angles = np.linspace(-10.0, 10.0, 101)
        wrapped = wrap_angle(angles)
        assert np.all(wrapped > -math.pi)
        assert np.all(wrapped <= math.pi)

    def test_wrapping_preserves_angle_modulo_two_pi(self):
        angles = np.linspace(-10.0, 10.0, 101)
        wrapped = wrap_angle(angles)
        np.testing.assert_allclose(np.cos(wrapped), np.cos(angles), atol=1e-12)
        np.testing.assert_allclose(np.sin(wrapped), np.sin(angles), atol=1e-12)


class TestAngleDifference:
    def test_simple_difference(self):
        assert angle_difference(0.5, 0.2) == pytest.approx(0.3)

    def test_wraps_across_boundary(self):
        assert angle_difference(math.pi - 0.1, -math.pi + 0.1) == pytest.approx(-0.2)

    def test_elementwise(self):
        out = angle_difference(np.array([0.0, math.pi]), np.array([0.1, -math.pi]))
        assert out.shape == (2,)
        assert out[1] == pytest.approx(0.0, abs=1e-12)


class TestAngleBetween:
    def test_right_angle(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.zeros(3)
        c = np.array([0.0, 1.0, 0.0])
        assert angle_between(a, b, c) == pytest.approx(math.pi / 2)

    def test_straight_line(self):
        a = np.array([-1.0, 0.0, 0.0])
        b = np.zeros(3)
        c = np.array([1.0, 0.0, 0.0])
        assert angle_between(a, b, c) == pytest.approx(math.pi)


class TestDihedralAngle:
    def test_cis_is_zero(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        c = np.array([0.0, 0.0, 0.0])
        d = np.array([0.0, 1.0, 0.0])
        assert dihedral_angle(a, b, c, d) == pytest.approx(0.0, abs=1e-12)

    def test_trans_is_pi(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        c = np.array([0.0, 0.0, 0.0])
        d = np.array([0.0, -1.0, 0.0])
        assert abs(dihedral_angle(a, b, c, d)) == pytest.approx(math.pi)

    def test_right_handed_sign(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        c = np.array([0.0, 0.0, 0.0])
        d = np.array([0.0, 0.0, 1.0])
        angle = dihedral_angle(a, b, c, d)
        assert angle == pytest.approx(-math.pi / 2) or angle == pytest.approx(math.pi / 2)
        # The batch version must agree in sign with the scalar version.
        batch = dihedral_angles_batch(a[None], b[None], c[None], d[None])[0]
        assert batch == pytest.approx(angle)

    def test_batch_matches_scalar(self, rng):
        points = rng.normal(size=(20, 4, 3))
        scalar = np.array(
            [dihedral_angle(p[0], p[1], p[2], p[3]) for p in points]
        )
        batch = dihedral_angles_batch(
            points[:, 0], points[:, 1], points[:, 2], points[:, 3]
        )
        np.testing.assert_allclose(batch, scalar, atol=1e-10)

    def test_batch_shape_preserved(self, rng):
        pts = rng.normal(size=(3, 5, 3))
        out = dihedral_angles_batch(pts, pts + 1.0, pts + 2.0, pts * 2.0 + 3.0)
        assert out.shape == (3, 5)
