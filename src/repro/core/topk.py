"""Top-k PRIME-LS: the k most influential candidate locations.

A natural generalisation the paper's related work motivates (Huang et
al. [6] and Zhan et al. [13] study top-k influential facilities for
static/uncertain objects): return the ``k`` candidates with the largest
influence, in order, with exact influence values.

The algorithm is PINOCCHIO-VO with Strategy 1 generalised: instead of
the single best certified influence, ``maxminInf`` becomes the *k-th
best* certified lower bound across candidates (:attr:`PinocchioVO.k`).
A candidate is abandoned once its upper bound drops below that bound —
with ``k = 1`` this is Algorithm 3 exactly.
"""

from __future__ import annotations

from repro.core.pinocchio_vo import PinocchioVO
from repro.core.result import LSResult
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


class TopKPrimeLS(PinocchioVO):
    """Exact top-k PRIME-LS via generalised Strategy-1 bounds.

    ``select`` returns an :class:`LSResult` whose ``influences`` map
    contains (at least) the top-k candidates with exact values;
    :meth:`top_k_of` extracts the ordered list.
    """

    name = "TOP-K"

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        super().__init__()
        self.k = k

    def top_k_of(self, result: LSResult) -> list[tuple[int, int]]:
        """The ordered ``(candidate_index, influence)`` top-k list."""
        return result.ranking()[: self.k]


def top_k_locations(
    objects: list[MovingObject],
    candidates: list[Candidate],
    pf: ProbabilityFunction,
    tau: float,
    k: int = 5,
) -> list[tuple[Candidate, int]]:
    """Convenience wrapper: the k most influential candidates, in order."""
    solver = TopKPrimeLS(k=k)
    result = solver.select(objects, candidates, pf, tau)
    return [
        (candidates[idx], influence)
        for idx, influence in solver.top_k_of(result)
    ]
