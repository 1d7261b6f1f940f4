"""PINOCCHIO: probabilistic influence-based location selection (PRIME-LS).

A faithful reproduction of

    Wang, Li, Cui, Deng, Bhowmick, Dong —
    "PINOCCHIO: Probabilistic Influence-Based Location Selection over
    Moving Objects", TKDE 28(11), 2016 (ICDE 2017).

Quickstart::

    from repro import select_location
    from repro.datasets import tiny_demo

    world = tiny_demo()
    candidates, _ = world.dataset.sample_candidates(
        50, __import__("numpy").random.default_rng(0))
    result = select_location(world.dataset.objects, candidates, tau=0.7)
    print(result.best_candidate, result.best_influence)
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines import BRNNStar, RangeBaseline
from repro.core import (
    GridPartitionLS,
    LSResult,
    NaiveAlgorithm,
    Pinocchio,
    PinocchioVO,
    PinocchioVOStar,
    TopKPrimeLS,
    min_max_radius,
    top_k_locations,
)
from repro.model import Candidate, CheckinDataset, MovingObject
from repro.prob import PowerLawPF, ProbabilityFunction

__version__ = "1.0.0"

__all__ = [
    "select_location",
    "rank_candidates",
    "QueryEngine",
    "ALGORITHMS",
    "make_algorithm",
    "MovingObject",
    "Candidate",
    "CheckinDataset",
    "LSResult",
    "NaiveAlgorithm",
    "Pinocchio",
    "PinocchioVO",
    "PinocchioVOStar",
    "BRNNStar",
    "RangeBaseline",
    "TopKPrimeLS",
    "top_k_locations",
    "PowerLawPF",
    "min_max_radius",
]

#: Algorithm registry used by the CLI and the experiment drivers.
ALGORITHMS = {
    "NA": NaiveAlgorithm,
    "PIN": Pinocchio,
    "PIN-VO": PinocchioVO,
    "PIN-VO*": PinocchioVOStar,
    "GRID": GridPartitionLS,
    "BRNN*": BRNNStar,
    "RANGE": RangeBaseline,
}


def make_algorithm(name: str, **kwargs):
    """Instantiate an algorithm from the registry by its paper name."""
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return cls(**kwargs)


def select_location(
    objects: Sequence[MovingObject],
    candidates: Sequence[Candidate],
    pf: ProbabilityFunction | None = None,
    tau: float = 0.7,
    algorithm: str = "PIN-VO",
    **algorithm_kwargs,
) -> LSResult:
    """Solve PRIME-LS: the candidate influencing the most moving objects.

    ``pf`` defaults to the paper's power-law probability function with
    ρ = 0.9, λ = 1.0; ``tau`` defaults to the paper's default threshold
    0.7; ``algorithm`` defaults to PINOCCHIO-VO, the fastest exact
    solver.
    """
    if pf is None:
        pf = PowerLawPF()
    solver = make_algorithm(algorithm, **algorithm_kwargs)
    return solver.select(objects, candidates, pf, tau)


def rank_candidates(
    objects: Sequence[MovingObject],
    candidates: Sequence[Candidate],
    pf: ProbabilityFunction | None = None,
    tau: float = 0.7,
    algorithm: str = "PIN",
    **algorithm_kwargs,
) -> list[tuple[int, int]]:
    """Exact influence ranking of all candidates (descending).

    Defaults to PINOCCHIO, which — unlike PIN-VO — computes the full
    influence table while still pruning pairs.
    """
    if algorithm in ("PIN-VO", "PIN-VO*"):
        raise ValueError(
            "PIN-VO terminates once the winner is certain and does not "
            "produce a full ranking; use 'PIN' or 'NA'"
        )
    result = select_location(
        objects, candidates, pf, tau, algorithm=algorithm, **algorithm_kwargs
    )
    return result.ranking()


# Imported last: the engine package builds on select_location and the
# registry above (it re-imports repro at query time).
from repro.engine import QueryEngine  # noqa: E402
