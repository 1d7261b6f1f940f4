"""Top-k PRIME-LS: the k most influential candidate locations.

A natural generalisation the paper's related work motivates (Huang et
al. [6] and Zhan et al. [13] study top-k influential facilities for
static/uncertain objects): return the ``k`` candidates with the largest
influence, in order, with exact influence values.

The algorithm generalises PINOCCHIO-VO's Strategy 1: instead of the
single best certified influence, ``maxminInf`` becomes the *k-th best*
certified lower bound, maintained in a size-k min-heap.  A candidate is
abandoned once its upper bound drops below that k-th best bound — with
``k = 1`` this degenerates to Algorithm 3 exactly.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.base import LocationSelector, candidates_to_array
from repro.core.influence import batch_validate_spans, influence_threshold_log
from repro.core.pinocchio_vo import PinocchioVO
from repro.core.result import Instrumentation, LSResult
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.core.object_table import ObjectTable
from repro.prob.base import ProbabilityFunction


def _kth_best_lower_bound(min_inf: np.ndarray, k: int) -> int:
    """The k-th largest certified lower bound across distinct candidates.

    A candidate whose upper bound falls strictly below this value cannot
    be in the top-k: k *other* candidates are certified to beat it.  The
    bound must be taken over candidates, not over a stream of offered
    values — a candidate whose lower bound is offered once at seeding
    and again after validation would count twice, inflating the
    threshold and wrongly abandoning true top-k members.  With fewer
    than k candidates nothing may ever be abandoned.
    """
    m = min_inf.shape[0]
    if m < k:
        return 0
    return int(np.partition(min_inf, m - k)[m - k])


class TopKPrimeLS(LocationSelector):
    """Exact top-k PRIME-LS via generalised Strategy-1 bounds.

    ``select`` returns an :class:`LSResult` whose ``influences`` map
    contains (at least) the top-k candidates with exact values;
    :meth:`top_k_of` extracts the ordered list.
    """

    name = "TOP-K"

    BATCH_OBJECTS = PinocchioVO.BATCH_OBJECTS

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k

    def _run(
        self,
        objects: list[MovingObject],
        candidates: list[Candidate],
        pf: ProbabilityFunction,
        tau: float,
    ) -> LSResult:
        counters = Instrumentation()
        table = ObjectTable(objects, pf, tau)
        counters.dead_objects = table.dead_objects
        cand_xy = candidates_to_array(candidates)
        m = cand_xy.shape[0]
        counters.pairs_total = table.live_count * m
        log_threshold = influence_threshold_log(tau)

        # Reuse PIN-VO's pruning phase verbatim.
        pruner = PinocchioVO()
        min_inf, vs_indexes = pruner.pruning_phase(table, cand_xy, counters)
        max_inf = min_inf + np.array([v.size for v in vs_indexes], dtype=int)

        # ``min_inf`` doubles as the per-candidate certified lower bound
        # and rises in place during validation, so the Strategy-1 stop
        # threshold is always the k-th largest entry of ``min_inf``.
        fully_validated: dict[int, int] = {}
        heap = [(-int(max_inf[j]), -int(min_inf[j]), j) for j in range(m)]
        heapq.heapify(heap)
        xy, offsets = table.positions_offsets()

        while heap:
            _, _, j = heapq.heappop(heap)
            counters.heap_pops += 1
            threshold = _kth_best_lower_bound(min_inf, self.k)
            if max_inf[j] < threshold and len(fully_validated) >= self.k:
                counters.candidates_skipped_strategy1 += 1 + len(heap)
                break
            aborted = False
            vs = vs_indexes[j]
            for start in range(0, vs.size, self.BATCH_OBJECTS):
                batch = vs[start : start + self.BATCH_OBJECTS]
                influenced = batch_validate_spans(
                    pf,
                    xy,
                    offsets,
                    batch,
                    cand_xy[j, 0],
                    cand_xy[j, 1],
                    log_threshold,
                    counters=counters,
                )
                hits = int(np.count_nonzero(influenced))
                min_inf[j] += hits
                max_inf[j] -= batch.size - hits
                if (
                    max_inf[j] < _kth_best_lower_bound(min_inf, self.k)
                    and len(fully_validated) >= self.k
                ):
                    counters.candidates_skipped_strategy1 += 1
                    aborted = True
                    break
            if aborted:
                continue
            counters.candidates_fully_validated += 1
            fully_validated[j] = int(min_inf[j])

        ordered = sorted(fully_validated.items(), key=lambda kv: (-kv[1], kv[0]))
        best_idx, best_influence = ordered[0]
        return LSResult(
            algorithm=self.name,
            best_candidate=candidates[best_idx],
            best_influence=best_influence,
            influences=fully_validated,
            elapsed_seconds=0.0,
            instrumentation=counters,
        )

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
