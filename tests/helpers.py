"""Random-instance builders shared across test modules."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.influence import distances, log1m_safe
from repro.core.minmax_radius import min_max_radius
from repro.core.result import Instrumentation
from repro.model import Candidate, MovingObject
from repro.prob import (
    ConcavePF,
    ConvexPF,
    ExponentialPF,
    LinearPF,
    LogsigPF,
    PowerLawPF,
)
from repro.prob.base import ProbabilityFunction


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


def batch_validate_objects(
    pf: ProbabilityFunction,
    positions_list: list[np.ndarray],
    cx: float,
    cy: float,
    log_threshold: float,
    counters: Instrumentation | None = None,
    head: int = 16,
) -> np.ndarray:
    """List-based reference for ``batch_validate_spans``.

    The same two-phase Strategy-2 evaluation over a list of ``(n, 2)``
    position arrays: first the leading ``head`` positions of every
    object in one concatenated kernel, then the undecided objects'
    tails in a second.  The tests check the columnar kernel against
    it, answers and counters alike.

    Returns a boolean array aligned with ``positions_list``.
    """
    k = len(positions_list)
    lengths = np.array([p.shape[0] for p in positions_list])
    if counters is not None:
        counters.pairs_validated += k
        counters.positions_total += int(lengths.sum())

    heads = [p[:head] for p in positions_list]
    head_lengths = np.minimum(lengths, head)
    head_xy = np.concatenate(heads, axis=0)
    offsets = np.concatenate([[0], np.cumsum(head_lengths)[:-1]])
    d = distances(head_xy[:, 0], head_xy[:, 1], cx, cy)
    s_head = np.add.reduceat(log1m_safe(pf(d)), offsets)
    if counters is not None:
        counters.positions_evaluated += int(head_lengths.sum())

    influenced = s_head <= log_threshold
    undecided = ~influenced & (lengths > head)
    if counters is not None:
        counters.early_stops += int(np.count_nonzero(influenced & (lengths > head)))
    if np.any(undecided):
        idx = np.nonzero(undecided)[0]
        tails = [positions_list[i][head:] for i in idx]
        tail_lengths = lengths[idx] - head
        tail_xy = np.concatenate(tails, axis=0)
        tail_offsets = np.concatenate([[0], np.cumsum(tail_lengths)[:-1]])
        d = distances(tail_xy[:, 0], tail_xy[:, 1], cx, cy)
        s_tail = np.add.reduceat(log1m_safe(pf(d)), tail_offsets)
        if counters is not None:
            counters.positions_evaluated += int(tail_lengths.sum())
        influenced[idx] = (s_head[idx] + s_tail) <= log_threshold
    return influenced


def shm_entries() -> set[str]:
    """Names under ``/dev/shm``.  The engine and its pool create none,
    so a test compares a snapshot taken before its pooled work with
    one taken during or after it."""
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()
