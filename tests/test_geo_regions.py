"""Tests for the IA / NIB regions (Definitions 6-7 and the §4.3 areas)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import MBR, InfluenceArcsRegion, NonInfluenceBoundary
from repro.geo.regions import _circle_corner_area, expected_validation_fraction


def monte_carlo_area(contains, bbox, rng, samples=200_000):
    xs = rng.uniform(bbox.min_x, bbox.max_x, samples)
    ys = rng.uniform(bbox.min_y, bbox.max_y, samples)
    hits = np.count_nonzero(contains(np.column_stack([xs, ys])))
    return hits / samples * bbox.area


class TestCircleCornerArea:
    def test_zero_offsets_give_quarter_circle(self):
        assert _circle_corner_area(2.0, 0.0, 0.0) == pytest.approx(np.pi, rel=1e-9)

    def test_out_of_reach_is_zero(self):
        assert _circle_corner_area(1.0, 0.8, 0.8) == 0.0

    def test_matches_numeric_integration(self):
        r, a, b = 3.0, 1.0, 0.5
        us = np.linspace(a, np.sqrt(r * r - b * b), 100_001)
        numeric = np.trapezoid(np.sqrt(r * r - us * us) - b, us)
        assert _circle_corner_area(r, a, b) == pytest.approx(numeric, rel=1e-6)


class TestInfluenceArcsRegion:
    def test_empty_when_radius_below_half_diagonal(self):
        mbr = MBR(0, 0, 6, 8)  # half diagonal 5
        assert InfluenceArcsRegion(mbr, 4.9).is_empty()
        assert not InfluenceArcsRegion(mbr, 5.1).is_empty()

    def test_center_membership(self):
        mbr = MBR(0, 0, 6, 8)
        region = InfluenceArcsRegion(mbr, 5.0)
        assert region.contains(3, 4)  # center: maxDist == half diagonal == 5

    def test_contains_iff_maxdist_leq_radius(self):
        mbr = MBR(1, 2, 5, 4)
        region = InfluenceArcsRegion(mbr, 6.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 12, size=(500, 2))
        expected = mbr.max_dist_many(pts) <= 6.0
        np.testing.assert_array_equal(region.contains_many(pts), expected)

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            InfluenceArcsRegion(MBR(0, 0, 1, 1), -0.5)

    def test_area_zero_when_empty(self):
        assert InfluenceArcsRegion(MBR(0, 0, 6, 8), 3.0).area() == 0.0

    def test_area_matches_monte_carlo(self):
        mbr = MBR(0, 0, 4, 2)
        region = InfluenceArcsRegion(mbr, 4.0)
        rng = np.random.default_rng(1)
        bbox = mbr.expanded(4.0)
        mc = monte_carlo_area(region.contains_many, bbox, rng)
        assert region.area() == pytest.approx(mc, rel=0.02)

    def test_area_of_point_mbr_is_circle(self):
        region = InfluenceArcsRegion(MBR(1, 1, 1, 1), 2.0)
        assert region.area() == pytest.approx(np.pi * 4.0, rel=1e-9)

    def test_boundary_points_lie_on_level_set(self):
        mbr = MBR(0, 0, 4, 2)
        region = InfluenceArcsRegion(mbr, 4.0)
        boundary = region.boundary(samples_per_arc=32)
        assert boundary.shape[0] == 4 * 32
        max_d = mbr.max_dist_many(boundary)
        np.testing.assert_allclose(max_d, 4.0, atol=1e-9)

    def test_boundary_empty_region(self):
        assert InfluenceArcsRegion(MBR(0, 0, 6, 8), 1.0).boundary().size == 0

    def test_boundary_of_point_at_radius_zero(self):
        # a point MBR at radius 0 is not empty: the region is the point
        region = InfluenceArcsRegion(MBR(2, 3, 2, 3), 0.0)
        assert not region.is_empty()
        np.testing.assert_array_equal(region.boundary(), [[2.0, 3.0]])

    @settings(max_examples=40)
    @given(
        st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.05, 20),
        st.floats(-25, 25), st.floats(-25, 25),
    )
    def test_ia_subset_of_nib(self, w, h, radius, qx, qy):
        mbr = MBR(0, 0, w, h)
        ia = InfluenceArcsRegion(mbr, radius)
        nib = NonInfluenceBoundary(mbr, radius)
        if ia.contains(qx, qy):
            assert nib.contains(qx, qy)


class TestNonInfluenceBoundary:
    def test_contains_iff_mindist_leq_radius(self):
        mbr = MBR(1, 2, 5, 4)
        region = NonInfluenceBoundary(mbr, 3.0)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-8, 14, size=(500, 2))
        expected = mbr.min_dist_many(pts) <= 3.0
        np.testing.assert_array_equal(region.contains_many(pts), expected)

    def test_inside_mbr_always_contained(self):
        region = NonInfluenceBoundary(MBR(0, 0, 2, 2), 0.5)
        assert region.contains(1, 1)

    def test_area_formula(self):
        # S_N = pi r^2 + wh + 2(w+h)r  (paper §4.3)
        region = NonInfluenceBoundary(MBR(0, 0, 4, 2), 1.5)
        expected = np.pi * 1.5**2 + 8 + 2 * 6 * 1.5
        assert region.area() == pytest.approx(expected, rel=1e-12)

    def test_area_matches_monte_carlo(self):
        mbr = MBR(0, 0, 3, 5)
        region = NonInfluenceBoundary(mbr, 2.0)
        rng = np.random.default_rng(3)
        mc = monte_carlo_area(region.contains_many, mbr.expanded(2.0), rng)
        assert region.area() == pytest.approx(mc, rel=0.02)

    def test_bounding_mbr(self):
        region = NonInfluenceBoundary(MBR(1, 1, 2, 2), 0.5)
        assert region.bounding_mbr().as_tuple() == (0.5, 0.5, 2.5, 2.5)

    def test_boundary_on_level_set(self):
        mbr = MBR(0, 0, 4, 2)
        region = NonInfluenceBoundary(mbr, 2.5)
        boundary = region.boundary(samples_per_arc=16)
        min_d = mbr.min_dist_many(boundary)
        np.testing.assert_allclose(min_d, 2.5, atol=1e-9)

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            NonInfluenceBoundary(MBR(0, 0, 1, 1), -1.0)


class TestValidationFraction:
    def test_nonnegative(self):
        assert expected_validation_fraction(MBR(0, 0, 1, 1), 0.1) >= 0.0

    def test_equals_area_difference(self):
        mbr = MBR(0, 0, 2, 3)
        radius = 4.0
        ia = InfluenceArcsRegion(mbr, radius).area()
        nib = NonInfluenceBoundary(mbr, radius).area()
        assert expected_validation_fraction(mbr, radius) == pytest.approx(nib - ia)
