"""A moving object: a set of discrete positions (§3.1).

The paper models each object ``O = {p₁, …, pₙ}`` as the set of its
observed positions (check-ins or discretised trajectory samples) and
summarises its activity region by ``MBR(O)``.
"""

from __future__ import annotations

import numpy as np

from repro.geo.mbr import MBR


class MovingObject:
    """A moving object with an integer id and an ``(n, 2)`` position array.

    Positions are planar kilometres (see :mod:`repro.geo.distance`).
    The MBR is computed lazily and cached; the position array is made
    read-only to keep the cache coherent.
    """

    __slots__ = ("object_id", "positions", "_mbr")

    def __init__(self, object_id: int, positions: np.ndarray):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"positions must have shape (n, 2), got {positions.shape}"
            )
        if positions.shape[0] == 0:
            raise ValueError("a moving object needs at least one position")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        positions = positions.copy()
        positions.setflags(write=False)
        self.object_id = int(object_id)
        self.positions = positions
        self._mbr: MBR | None = None

    @property
    def n_positions(self) -> int:
        """The paper's ``n`` — how many positions the object has."""
        return self.positions.shape[0]

    @property
    def mbr(self) -> MBR:
        """The minimal bounding rectangle of all positions (cached)."""
        if self._mbr is None:
            self._mbr = MBR.from_array(self.positions)
        return self._mbr

    def subsample(self, k: int, rng: np.random.Generator) -> "MovingObject":
        """A new instance with ``k`` positions drawn without replacement.

        Used by the paper's Fig 11b / Fig 13 experiments, which compare
        the same objects at different ``n``.
        """
        if not 1 <= k <= self.n_positions:
            raise ValueError(
                f"k must be in [1, {self.n_positions}], got {k}"
            )
        idx = rng.choice(self.n_positions, size=k, replace=False)
        return MovingObject(self.object_id, self.positions[np.sort(idx)])

    def __len__(self) -> int:
        return self.n_positions

    def __repr__(self) -> str:
        return f"MovingObject(id={self.object_id}, n={self.n_positions})"
