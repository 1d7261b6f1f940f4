"""Seeded inputs for the four benchmark workloads.

Every input is generated here from the workload seed with numpy, so the
benchmark does not depend on ``repro.datasets`` or the older benchmark
scripts: those can change without moving what this benchmark measures.
Each kind of input draws from its own stream (``default_rng([seed,
stream])``), so the server and the client of ``http-steady`` rebuild the
same fleet and the same candidate sets independently.

Sizes are divided by ``SMOKE_DIVISOR`` in smoke mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject

SMOKE_DIVISOR = 20

#: threshold values the query workloads cycle through
QUERY_TAUS = (0.6, 0.7, 0.8)
#: threshold values of the standing queries, assigned round-robin
SUB_TAUS = (0.6, 0.7, 0.8, 0.9)

# input streams; one generator per kind of input
FLEET, CANDIDATES, SCHEDULE, UPDATES, WINDOWS = range(5)


def stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), which])


def extent_km(n_objects: int) -> float:
    """Side of the square world; grows with sqrt(n) for constant density."""
    return 30.0 * math.sqrt(n_objects / 1_000.0)


def _objects(counts: np.ndarray, positions: np.ndarray) -> list[MovingObject]:
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return [
        MovingObject(i, positions[offsets[i]:offsets[i + 1]])
        for i in range(counts.size)
    ]


def uniform_fleet(seed: int, n_objects: int) -> list[MovingObject]:
    """4-16 positions per object, normal (sigma 1.5 km) around a uniform
    anchor: the constant-density world of the pruning workloads."""
    rng = stream(seed, FLEET)
    extent = extent_km(n_objects)
    counts = rng.integers(4, 17, size=n_objects)
    anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
    positions = np.repeat(anchors, counts, axis=0) + rng.normal(
        0.0, 1.5, size=(int(counts.sum()), 2)
    )
    return _objects(counts, positions)


def checkin_fleet(seed: int, n_objects: int) -> list[MovingObject]:
    """Check-in users: heavy-tailed position counts (lognormal, median
    20, p99 about 250) and per-user travel radii (median 2.5 km), so a
    few users carry most positions and validation dominates a query."""
    rng = stream(seed, FLEET)
    extent = extent_km(n_objects)
    counts = np.clip(
        np.rint(rng.lognormal(math.log(20.0), 1.086, size=n_objects)),
        1, 2_000,
    ).astype(np.int64)
    anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
    spread = rng.lognormal(math.log(2.5), 0.5, size=n_objects)
    jitter = rng.normal(0.0, 1.0, size=(int(counts.sum()), 2))
    positions = (
        np.repeat(anchors, counts, axis=0)
        + jitter * np.repeat(spread, counts)[:, None]
    )
    return _objects(counts, positions)


def candidate_set(rng: np.random.Generator, m: int, extent: float
                  ) -> list[Candidate]:
    """``m`` candidates uniform over the world."""
    xy = rng.uniform(0.0, extent, size=(m, 2))
    return [Candidate(j, float(x), float(y)) for j, (x, y) in enumerate(xy)]


def poisson_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets of a Poisson process conditioned on its count.

    ``round(rate * seconds)`` arrivals placed as sorted uniform points
    over the window: the Poisson process given its number of arrivals.
    Fixing the count keeps the offered load equal across seeds, so seeds
    vary burstiness but not volume.
    """
    n = max(1, int(round(rate * seconds)))
    return np.sort(stream(seed, SCHEDULE).uniform(0.0, seconds, size=n))


#: ``ingest-mixed``: positions kept per object, candidates per standing
#: query, updates per ingest round, and the update mix: a share of jumpy
#: updates (mostly boundary crossings) among calm ones (mostly absorbed
#: by safe regions), as jitter sigmas around each object's anchor in km
WINDOW = 8
CANDS_PER_SUB = 4
ROUND_UPDATES = 256
JUMPY_SHARE = 0.2
CALM_SIGMA = 0.04
JUMPY_SIGMA = 2.0


@dataclass
class StreamWorld:
    """Inputs of ``ingest-mixed``: object anchors and standing queries."""

    anchors: np.ndarray
    subscriptions: list[tuple[list[tuple[float, float]], float]]


def stream_world(seed: int, n_objects: int, n_subs: int) -> StreamWorld:
    rng = stream(seed, FLEET)
    extent = extent_km(n_objects)
    anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
    crng = stream(seed, CANDIDATES)
    subs = []
    for i in range(n_subs):
        xy = crng.uniform(0.0, extent, size=(CANDS_PER_SUB, 2))
        subs.append((
            [(float(x), float(y)) for x, y in xy],
            SUB_TAUS[i % len(SUB_TAUS)],
        ))
    return StreamWorld(anchors, subs)


def seed_rounds(world: StreamWorld, seed: int):
    """The fill-the-window updates: ``WINDOW`` rounds, one calm position
    per object each, so every object has a full window (and its final
    minMaxRadius) before any standing query is scored."""
    rng = stream(seed, WINDOWS)
    n = world.anchors.shape[0]
    for _ in range(WINDOW):
        xy = world.anchors + rng.normal(0.0, CALM_SIGMA, size=(n, 2))
        yield [(i, float(xy[i, 0]), float(xy[i, 1])) for i in range(n)]


def update_rounds(world: StreamWorld, seed: int):
    """Endless rounds of ``ROUND_UPDATES`` updates to uniformly drawn
    objects, each calm or, with probability ``JUMPY_SHARE``, jumpy."""
    rng = stream(seed, UPDATES)
    n = world.anchors.shape[0]
    while True:
        oids = rng.integers(0, n, size=ROUND_UPDATES)
        sigma = np.where(rng.random(ROUND_UPDATES) < JUMPY_SHARE,
                         JUMPY_SIGMA, CALM_SIGMA)
        xy = world.anchors[oids] + rng.normal(
            0.0, 1.0, size=(ROUND_UPDATES, 2)
        ) * sigma[:, None]
        yield [
            (int(oids[k]), float(xy[k, 0]), float(xy[k, 1]))
            for k in range(ROUND_UPDATES)
        ]
