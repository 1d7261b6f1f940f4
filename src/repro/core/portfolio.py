"""Multi-location PRIME-LS: choose k sites that together influence the
most objects.

Xu et al. [11] (related work, §2.1) study *group location selection*
— covering objects with multiple facilities.  The PRIME-LS version:
pick a set ``S`` of ``k`` candidates maximising

``coverage(S) = |{O : ∃ c ∈ S, Pr_c(O) ≥ τ}|``.

Coverage is monotone submodular, so the classic greedy algorithm is a
``(1 − 1/e)``-approximation (Nemhauser et al.), and with CELF-style
lazy evaluation the marginal-gain recomputations collapse.  Influence
sets are extracted exactly by PINOCCHIO's influence pass
(:meth:`repro.core.pinocchio.Pinocchio.influence_blocks`), after which
greedy runs on bitsets.

For small ``k``/``m`` an exact branch-and-bound is also provided to
quantify the greedy gap in tests and benches.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.core.base import candidates_to_array
from repro.core.object_table import ObjectTable
from repro.core.pinocchio import Pinocchio
from repro.core.result import Instrumentation
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


def influence_bitsets(
    objects: Sequence[MovingObject],
    candidates: Sequence[Candidate],
    pf: ProbabilityFunction,
    tau: float,
    counters: Instrumentation | None = None,
) -> list[np.ndarray]:
    """Per-candidate boolean masks over live objects: who influences whom.

    Exact, computed by PINOCCHIO's influence pass; dead objects
    (uninfluenceable at this τ) are excluded from the universe.
    """
    counters = counters if counters is not None else Instrumentation()
    table = ObjectTable(list(objects), pf, tau)
    counters.dead_objects = table.dead_objects
    cand_xy = candidates_to_array(list(candidates))
    m = cand_xy.shape[0]
    r = table.live_count
    counters.pairs_total = r * m
    masks = np.zeros((m, r), dtype=bool)
    for rows, cols, influenced in Pinocchio().influence_blocks(
        table, cand_xy, pf, tau, counters
    ):
        masks[np.ix_(cols, rows)] = influenced.T
    return [masks[j] for j in range(m)]


def greedy_portfolio(
    objects: Sequence[MovingObject],
    candidates: Sequence[Candidate],
    pf: ProbabilityFunction,
    tau: float,
    k: int,
) -> tuple[list[int], int]:
    """Greedy ``(1 − 1/e)``-approximate k-location selection.

    Returns ``(chosen_candidate_indexes, covered_objects)`` with
    candidates in pick order.  Uses CELF lazy evaluation: stale
    marginal gains are re-scored only when they reach the heap top
    (valid because coverage is submodular: gains only shrink).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    masks = influence_bitsets(objects, candidates, pf, tau)
    m = len(masks)
    covered = np.zeros(masks[0].shape, dtype=bool) if m else np.zeros(0, bool)
    chosen: list[int] = []
    # heap of (-gain, round_evaluated, candidate)
    heap = [
        (-int(np.count_nonzero(mask)), 0, j) for j, mask in enumerate(masks)
    ]
    heapq.heapify(heap)
    current_round = 0
    while heap and len(chosen) < min(k, m):
        neg_gain, evaluated_at, j = heapq.heappop(heap)
        if evaluated_at < current_round:
            fresh = int(np.count_nonzero(masks[j] & ~covered))
            heapq.heappush(heap, (-fresh, current_round, j))
            continue
        if -neg_gain == 0:
            break  # nothing left to gain
        chosen.append(j)
        covered |= masks[j]
        current_round += 1
    return chosen, int(np.count_nonzero(covered))


def exact_portfolio(
    objects: Sequence[MovingObject],
    candidates: Sequence[Candidate],
    pf: ProbabilityFunction,
    tau: float,
    k: int,
) -> tuple[list[int], int]:
    """Exact optimum by exhaustive subset search — exponential in ``k``.

    Intended for tests/benches that quantify the greedy gap on small
    instances (``C(m, k)`` subsets are enumerated).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    masks = influence_bitsets(objects, candidates, pf, tau)
    m = len(masks)
    best_set: list[int] = []
    best_cover = -1
    for subset in combinations(range(m), min(k, m)):
        covered = np.zeros(masks[0].shape, dtype=bool)
        for j in subset:
            covered |= masks[j]
        count = int(np.count_nonzero(covered))
        if count > best_cover:
            best_cover = count
            best_set = list(subset)
    return best_set, best_cover
