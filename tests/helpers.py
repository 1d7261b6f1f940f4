"""Random-instance builders shared across test modules."""

from __future__ import annotations

import numpy as np

from repro.core.minmax_radius import min_max_radius
from repro.model import Candidate, MovingObject
from repro.prob import (
    ConcavePF,
    ConvexPF,
    ExponentialPF,
    LinearPF,
    LogsigPF,
    PowerLawPF,
)


def make_objects(
    rng: np.random.Generator,
    count: int,
    extent: float = 30.0,
    n_range: tuple[int, int] = (1, 40),
    spread: float = 4.0,
) -> list[MovingObject]:
    """Random moving objects with anchored position clouds."""
    objects = []
    for oid in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        anchor = rng.uniform(0.0, extent, size=2)
        positions = anchor + rng.normal(0.0, spread, size=(n, 2))
        objects.append(MovingObject(oid, positions))
    return objects


def make_candidates(
    rng: np.random.Generator, count: int, extent: float = 30.0
) -> list[Candidate]:
    """Random candidate locations, uniform over the extent."""
    return [
        Candidate(j, float(x), float(y))
        for j, (x, y) in enumerate(rng.uniform(0.0, extent, size=(count, 2)))
    ]


#: a 1-position object cannot reach τ = 0.7 under this PF (it is
#: dead), while objects of four or more positions can
DEAD_ROWS_PF = LinearPF(rho=0.5, scale=10.0)


def dead_row_fleet(dead_at: str) -> tuple[list, list]:
    """``(fleet, live)`` for :data:`DEAD_ROWS_PF` at τ = 0.7.

    ``live`` is three objects of 30, 4 and 17 positions; ``fleet`` adds
    two dead 1-position objects ``"first"``, in the ``"middle"`` (after
    the first live object) or ``"last"``.
    """
    rng = np.random.default_rng(0)
    live = [
        MovingObject(oid, rng.uniform(0, 5, size=(n, 2)))
        for oid, n in [(10, 30), (11, 4), (12, 17)]
    ]
    dead = [
        MovingObject(oid, rng.uniform(0, 5, size=(1, 2)))
        for oid in (20, 21)
    ]
    fleet = {
        "first": dead + live,
        "middle": live[:1] + dead + live[1:],
        "last": live + dead,
    }[dead_at]
    return fleet, live


#: every shipped PF at its defaults, by name
SHIPPED_PFS = {
    "powerlaw": PowerLawPF(),
    "exponential": ExponentialPF(),
    "linear": LinearPF(),
    "logsig": LogsigPF(),
    "convex": ConvexPF(),
    "concave": ConcavePF(),
}


def boundary_placements(pf, tau, count, seed):
    """Objects of 1-5 identical positions in a 30 km square, each with
    one candidate at exactly ``minMaxRadius`` in a random direction."""
    rng = np.random.default_rng(seed)
    objects, candidates = [], []
    for n in rng.integers(1, 6, size=count).tolist():
        radius = min_max_radius(pf, tau, n)
        if radius is None:
            continue
        i = len(objects)
        px, py = rng.uniform(0.0, 30.0, size=2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        objects.append(MovingObject(i, np.array([[px, py]] * n)))
        candidates.append(
            Candidate(
                i,
                float(px + radius * np.cos(theta)),
                float(py + radius * np.sin(theta)),
            )
        )
    return objects, candidates
