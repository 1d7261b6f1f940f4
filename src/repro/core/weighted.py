"""Weighted PRIME-LS: objects carry importance weights.

Xia et al. [1] (related work, §2.1) define a location's influence as
the *total weight* of its reverse nearest neighbours.  The same
generalisation applies verbatim to PRIME-LS: given a weight ``w_O`` per
moving object (customer value, animal conservation status, ...),

``inf(c) = Σ { w_O : Pr_c(O) ≥ τ }``.

Every pruning rule carries over unchanged — the IA rule adds ``w_O``
instead of 1, the NIB rule skips the pair — so this is PINOCCHIO with
float accumulation: it reads PINOCCHIO's influence pass
(:meth:`repro.core.pinocchio.Pinocchio.influence_blocks`) and sums each
block's weights.  With unit weights it reduces exactly to
:class:`repro.core.pinocchio.Pinocchio` (asserted by tests).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.base import LocationSelector, candidates_to_array
from repro.core.object_table import ObjectTable
from repro.core.pinocchio import Pinocchio
from repro.core.result import Instrumentation, LSResult
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


class WeightedPrimeLS(LocationSelector):
    """PINOCCHIO with per-object non-negative weights."""

    name = "WEIGHTED"

    def __init__(self, weights: Sequence[float] | dict[int, float]):
        """``weights`` is either a sequence aligned with the object list
        passed to :meth:`select`, or a mapping from ``object_id``."""
        self.weights = weights

    def _weight_of(self, position: int, obj: MovingObject) -> float:
        if isinstance(self.weights, dict):
            weight = float(self.weights.get(obj.object_id, 1.0))
        else:
            weight = float(self.weights[position])
        if weight < 0.0:
            raise ValueError(
                f"weights must be non-negative, got {weight} for object "
                f"{obj.object_id}"
            )
        return weight

    def _run(
        self,
        objects: list[MovingObject],
        candidates: list[Candidate],
        pf: ProbabilityFunction,
        tau: float,
    ) -> LSResult:
        if not isinstance(self.weights, dict) and len(self.weights) != len(objects):
            raise ValueError(
                f"{len(self.weights)} weights for {len(objects)} objects"
            )
        weight_by_id = {
            obj.object_id: self._weight_of(i, obj)
            for i, obj in enumerate(objects)
        }
        counters = Instrumentation()
        table = ObjectTable(objects, pf, tau)
        counters.dead_objects = table.dead_objects
        cand_xy = candidates_to_array(candidates)
        m = cand_xy.shape[0]
        counters.pairs_total = table.live_count * m
        influence = np.zeros(m, dtype=float)
        weights = np.array(
            [
                weight_by_id[oid]
                for oid in table.fleet.object_ids[table.rows].tolist()
            ],
            dtype=float,
        )
        for rows, cols, influenced in Pinocchio().influence_blocks(
            table, cand_xy, pf, tau, counters
        ):
            influence[cols] += weights[rows] @ influenced

        influences = {j: float(influence[j]) for j in range(m)}
        best_idx = max(influences, key=lambda idx: (influences[idx], -idx))
        return LSResult(
            algorithm=self.name,
            best_candidate=candidates[best_idx],
            best_influence=influences[best_idx],
            influences=influences,
            elapsed_seconds=0.0,
            instrumentation=counters,
        )
