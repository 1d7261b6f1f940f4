"""The influence-arcs (IA) and non-influence-boundary (NIB) regions.

Definitions 6 and 7 of the paper construct two closed regions around
the MBR of a moving object, both parameterised by
``minMaxRadius(τ, n)`` (written ``μ`` below):

* **IA region** (Definition 6, Lemma 2): candidates inside it certainly
  influence the object.  Geometrically it is the set
  ``{q : maxDist(q, MBR) ≤ μ}`` — equivalently, the intersection of the
  four disks of radius ``μ`` centred at the MBR corners, whose boundary
  is exactly the paper's four influence arcs.
* **NIB region** (Definition 7, Lemma 3): candidates outside it
  certainly do *not* influence the object.  It is the set
  ``{q : minDist(q, MBR) ≤ μ}`` — the Minkowski sum of the MBR with a
  disk of radius ``μ`` (a rounded rectangle).

Membership tests therefore reduce to the ``maxDist``/``minDist`` bounds
of :class:`repro.geo.mbr.MBR`, which is both faster and more robust than
testing against arc polylines.  The arc geometry is still exposed
(``boundary``) for visualisation, and closed-form areas are provided for
the analytic pruning model of the paper's §4.3 Remark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.mbr import MBR


def _circle_corner_area(radius: float, a: float, b: float) -> float:
    """Area of ``{(u, v) : u ≥ a, v ≥ b, u² + v² ≤ radius²}`` for a, b ≥ 0.

    The building block for the IA region area: one quadrant of the
    four-disk intersection.
    """
    if a * a + b * b >= radius * radius:
        return 0.0
    upper = math.sqrt(radius * radius - b * b)

    def antiderivative(u: float) -> float:
        # ∫ sqrt(r² − u²) du
        return 0.5 * (u * math.sqrt(radius * radius - u * u)
                      + radius * radius * math.asin(u / radius))

    return antiderivative(upper) - antiderivative(a) - b * (upper - a)


@dataclass(frozen=True, slots=True)
class InfluenceArcsRegion:
    """The region bounded by the four influence arcs of an MBR.

    A candidate location inside this region influences the owning
    moving object with probability at least ``τ`` (Lemma 2).
    """

    mbr: MBR
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def is_empty(self) -> bool:
        """True when no point is within ``radius`` of all four corners."""
        return self.radius < self.mbr.half_diagonal

    def contains(self, x: float, y: float) -> bool:
        """Whether a candidate at ``(x, y)`` certainly influences the object."""
        return self.mbr.max_dist(x, y) <= self.radius

    def contains_many(self, xy: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` over rows of a ``(k, 2)`` array."""
        return self.mbr.max_dist_many(xy) <= self.radius

    def area(self) -> float:
        """Closed-form area of the region (the paper's ``S_I``)."""
        a = self.mbr.width / 2
        b = self.mbr.height / 2
        return 4.0 * _circle_corner_area(self.radius, a, b)

    def boundary(self, samples_per_arc: int = 64) -> np.ndarray:
        """Sampled boundary polyline (the four arcs), shape ``(k, 2)``.

        Returns an empty array when the region is empty, and the MBR's
        single point when the radius is 0 (a point MBR: the region is
        that point, as at radius == half-diagonal).  Points are in
        counter-clockwise order starting in quadrant I.
        """
        if self.is_empty():
            return np.empty((0, 2), dtype=float)
        cx, cy = self.mbr.center.as_tuple()
        if self.radius == 0:
            return np.array([[cx, cy]])
        a = self.mbr.width / 2
        b = self.mbr.height / 2
        # In MBR-centred coordinates the boundary is the level set
        # (|x| + a)² + (|y| + b)² = μ².  In quadrant I it is the arc
        # centred at the opposite corner (−a, −b):
        #   x = μ·cos t − a,  y = μ·sin t − b,
        # swept between the axis crossings t ∈ [asin(b/μ), acos(a/μ)].
        t0 = math.asin(b / self.radius)
        t1 = math.acos(a / self.radius)
        ts = np.linspace(t0, t1, samples_per_arc)
        qx = self.radius * np.cos(ts) - a
        qy = self.radius * np.sin(ts) - b
        # Mirror quadrant I counter-clockwise into the other quadrants.
        xs = np.concatenate([qx, -qx[::-1], -qx, qx[::-1]])
        ys = np.concatenate([qy, qy[::-1], -qy, -qy[::-1]])
        return np.stack([cx + xs, cy + ys], axis=1)


@dataclass(frozen=True, slots=True)
class NonInfluenceBoundary:
    """The rounded rectangle bounding all possibly influencing candidates.

    A candidate outside this region certainly does not influence the
    owning moving object (Lemma 3).
    """

    mbr: MBR
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def contains(self, x: float, y: float) -> bool:
        """Whether a candidate at ``(x, y)`` may still influence the object."""
        return self.mbr.min_dist(x, y) <= self.radius

    def contains_many(self, xy: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` over rows of a ``(k, 2)`` array."""
        return self.mbr.min_dist_many(xy) <= self.radius

    def bounding_mbr(self) -> MBR:
        """The MBR of the region (the paper uses this rectangle to
        drive the R-tree range query over candidates)."""
        return self.mbr.expanded(self.radius)

    def area(self) -> float:
        """Closed-form area (the paper's ``S_N = πμ² + wh + 2(w + h)μ``)."""
        w = self.mbr.width
        h = self.mbr.height
        return math.pi * self.radius**2 + w * h + 2 * (w + h) * self.radius

    def boundary(self, samples_per_arc: int = 64) -> np.ndarray:
        """Sampled boundary polyline (rounded rectangle), ``(k, 2)``."""
        cx, cy = self.mbr.center.as_tuple()
        a = self.mbr.width / 2
        b = self.mbr.height / 2
        points: list[tuple[float, float]] = []
        corner_angles = [
            (a, b, 0.0),
            (-a, b, math.pi / 2),
            (-a, -b, math.pi),
            (a, -b, 3 * math.pi / 2),
        ]
        for corner_x, corner_y, angle0 in corner_angles:
            ts = np.linspace(angle0, angle0 + math.pi / 2, samples_per_arc)
            points.extend(
                zip(cx + corner_x + self.radius * np.cos(ts),
                    cy + corner_y + self.radius * np.sin(ts))
            )
        return np.asarray(points, dtype=float)


def expected_validation_fraction(mbr: MBR, radius: float) -> float:
    """The paper's analytic estimate of the surviving candidate fraction.

    §4.3 Remark: with candidates uniform over an area ``S_C``, the
    fraction needing validation is ``(S_N − S_I) / S_C`` clipped to
    ``[0, 1]``.  Here we return ``S_N − S_I`` (km²); divide by the
    candidate-region area to get the fraction.
    """
    ia = InfluenceArcsRegion(mbr, radius)
    nib = NonInfluenceBoundary(mbr, radius)
    return max(0.0, nib.area() - ia.area())
