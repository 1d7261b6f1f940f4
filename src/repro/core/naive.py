"""NA — the exhaustive baseline (§6.1).

Computes the cumulative influence probability for *every*
object-candidate pair and picks the candidate with the largest
influence.  Correct by construction; the reference every other
algorithm is tested against.

The vector kernel concatenates all object positions into one array and
resolves a candidate against all objects with a single segmented
log-space reduction (``np.add.reduceat``), which keeps the baseline
honest: it is slow because it does all the work, not because it is
badly implemented.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LocationSelector, candidates_to_array
from repro.core.influence import (
    cumulative_probability,
    distances,
    influence_threshold_log,
    log1m_safe,
    log_non_influence,
    validate_pair,
)
from repro.core.result import Instrumentation, LSResult, full_table_result
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


class NaiveAlgorithm(LocationSelector):
    """Exhaustive PRIME-LS: test all object-candidate pairs."""

    name = "NA"

    def __init__(self, kernel: str = "vector"):
        if kernel not in ("vector", "scalar"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.kernel = kernel

    def _run(
        self,
        objects: list[MovingObject],
        candidates: list[Candidate],
        pf: ProbabilityFunction,
        tau: float,
    ) -> LSResult:
        counters = Instrumentation()
        counters.pairs_total = len(objects) * len(candidates)
        cand_xy = candidates_to_array(candidates)
        if self.kernel == "vector":
            influence = self.compute_influence(objects, cand_xy, pf, tau, counters)
        else:
            log_threshold = influence_threshold_log(tau)
            influence = self._run_scalar(
                objects, candidates, pf, log_threshold, counters
            )
        return full_table_result(self.name, candidates, influence, counters)

    def compute_influence(
        self,
        objects: list[MovingObject],
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        counters: Instrumentation,
    ) -> np.ndarray:
        """Exhaustive influence counts for every column of ``cand_xy``.

        Candidate columns are independent, so the serving engine shards
        this across worker processes and concatenates the results
        (bit-identical to a full-width call).  NA has no pruning phase:
        all its time lands in ``validation_seconds``.
        """
        x, y = np.concatenate([o.positions.T for o in objects], axis=1)
        lengths = np.array([o.n_positions for o in objects])
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        log_threshold = influence_threshold_log(tau)
        m = cand_xy.shape[0]
        influence = np.zeros(m, dtype=int)
        n_total = x.shape[0]
        with counters.phase("validation"):
            for j in range(m):
                d = distances(x, y, cand_xy[j, 0], cand_xy[j, 1])
                logs = log1m_safe(pf(d))
                per_object = np.add.reduceat(logs, offsets)
                influence[j] = int(np.count_nonzero(per_object <= log_threshold))
                counters.pairs_validated += len(objects)
                counters.positions_total += n_total
                counters.positions_evaluated += n_total
        return influence

    def _run_scalar(
        self,
        objects: list[MovingObject],
        candidates: list[Candidate],
        pf: ProbabilityFunction,
        log_threshold: float,
        counters: Instrumentation,
    ) -> dict[int, int]:
        influences: dict[int, int] = {}
        with counters.phase("validation"):
            for j, cand in enumerate(candidates):
                count = 0
                for obj in objects:
                    influenced = validate_pair(
                        pf,
                        obj.positions,
                        cand.x,
                        cand.y,
                        log_threshold,
                        counters=counters,
                        kernel="scalar",
                        early_stop=False,
                    )
                    if influenced:
                        count += 1
                influences[j] = count
        return influences


def exact_influence(
    objects: list[MovingObject],
    cand_x: float,
    cand_y: float,
    pf: ProbabilityFunction,
    tau: float,
) -> int:
    """Influence of a single location, exhaustively (test helper)."""
    log_threshold = influence_threshold_log(tau)
    return sum(
        log_non_influence(pf, obj.positions, cand_x, cand_y) <= log_threshold
        for obj in objects
    )


def exact_probability(
    obj: MovingObject, cand_x: float, cand_y: float, pf: ProbabilityFunction
) -> float:
    """``Pr_c(O)`` for one pair (test helper)."""
    return cumulative_probability(pf, obj.positions, cand_x, cand_y)
