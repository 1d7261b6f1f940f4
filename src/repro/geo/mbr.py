"""Minimum bounding rectangles with ``minDist``/``maxDist``.

The paper models each moving object by the MBR of its positions (§3.1)
and prunes candidates with the two classic geometric bounds of
Roussopoulos et al. [33]:

* ``minDist(q, MBR)`` — the smallest possible distance between ``q``
  and any point inside the rectangle, and
* ``maxDist(q, MBR)`` — the largest distance from ``q`` to a corner of
  the rectangle, an upper bound on the distance to any enclosed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.geo.point import Point


@dataclass(frozen=True, slots=True)
class MBR:
    """An axis-aligned rectangle ``[min_x, max_x] × [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"degenerate MBR bounds: ({self.min_x}, {self.min_y}, "
                f"{self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "MBR":
        """Tightest MBR enclosing ``points`` (must be non-empty)."""
        xs, ys = [], []
        for p in points:
            xs.append(p.x)
            ys.append(p.y)
        if not xs:
            raise ValueError("cannot build an MBR from zero points")
        return cls(min(xs), min(ys), max(xs), max(ys))

    @classmethod
    def from_array(cls, xy: np.ndarray) -> "MBR":
        """Tightest MBR enclosing the rows of a ``(n, 2)`` array."""
        xy = np.asarray(xy, dtype=float)
        if xy.size == 0:
            raise ValueError("cannot build an MBR from zero points")
        mins = xy.min(axis=0)
        maxs = xy.max(axis=0)
        return cls(float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1]))

    @classmethod
    def from_point(cls, p: Point) -> "MBR":
        """A degenerate (zero-area) MBR containing a single point."""
        return cls(p.x, p.y, p.x, p.y)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2, (self.min_y + self.max_y) / 2)

    @property
    def half_diagonal(self) -> float:
        """Distance from the center to a corner."""
        return math.hypot(self.width, self.height) / 2

    def corners(self) -> list[Point]:
        """The four corners, counter-clockwise from the lower-left."""
        return [
            Point(self.min_x, self.min_y),
            Point(self.max_x, self.min_y),
            Point(self.max_x, self.max_y),
            Point(self.min_x, self.max_y),
        ]

    def is_point(self) -> bool:
        """True when the rectangle has degenerated to a single point."""
        return self.width == 0.0 and self.height == 0.0

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, x: float, y: float) -> bool:
        """Closed-boundary point containment."""
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def contains_mbr(self, other: "MBR") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "MBR") -> bool:
        """Closed-boundary rectangle overlap (touching counts)."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def union(self, other: "MBR") -> "MBR":
        """The smallest rectangle covering both."""
        return MBR(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "MBR":
        """The rectangle grown by ``margin`` on every side.

        Used to bound the NIB region: a candidate outside
        ``MBR.expanded(minMaxRadius)`` has ``minDist > minMaxRadius``.
        """
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        return MBR(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def enlargement(self, other: "MBR") -> float:
        """Area growth if ``other`` were merged in (R-tree insertion cost)."""
        return self.union(other).area - self.area

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_dist(self, x: float, y: float) -> float:
        """Smallest distance from ``(x, y)`` to any point of the rectangle.

        Zero when the point lies inside.
        """
        dx = max(self.min_x - x, 0.0, x - self.max_x)
        dy = max(self.min_y - y, 0.0, y - self.max_y)
        return math.hypot(dx, dy)

    def max_dist(self, x: float, y: float) -> float:
        """Largest distance from ``(x, y)`` to a corner of the rectangle."""
        dx = max(abs(x - self.min_x), abs(x - self.max_x))
        dy = max(abs(y - self.min_y), abs(y - self.max_y))
        return math.hypot(dx, dy)

    def min_dist_many(self, xy: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`min_dist` for rows of a ``(n, 2)`` array."""
        x = xy[:, 0]
        y = xy[:, 1]
        dx = np.maximum(np.maximum(self.min_x - x, 0.0), x - self.max_x)
        dy = np.maximum(np.maximum(self.min_y - y, 0.0), y - self.max_y)
        return np.hypot(dx, dy)

    def max_dist_many(self, xy: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`max_dist` for rows of a ``(n, 2)`` array."""
        x = xy[:, 0]
        y = xy[:, 1]
        dx = np.maximum(np.abs(x - self.min_x), np.abs(x - self.max_x))
        dy = np.maximum(np.abs(y - self.min_y), np.abs(y - self.max_y))
        return np.hypot(dx, dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)``."""
        return (self.min_x, self.min_y, self.max_x, self.max_y)
