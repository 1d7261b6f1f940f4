"""Competitive PRIME-LS: location selection against existing facilities.

Huang et al. [6] (related work, §2.1) study MAX-INF location selection
*with existing facilities*: a new facility only gains the customers it
serves better than the incumbents.  This module adapts that setting to
PRIME-LS semantics:

an object ``O`` counts toward candidate ``c``'s **marginal influence**
iff

* ``Pr_c(O) ≥ τ`` (c influences O, Definition 2), and
* ``Pr_c(O) ≥ max_f Pr_f(O)`` over the existing facilities ``f`` —
  the new site reaches O at least as credibly as every incumbent
  (ties count for the newcomer, keeping the test consistent with the
  closed-region pruning of Lemma 2; an incumbent that reaches O with
  probability exactly 1 is unbeatable and such objects are dropped).

The solver precomputes each object's best incumbent probability once
(one pass over facilities), turning the marginal test into a
per-object *effective threshold* ``τ_O = max(τ, bestIncumbent_O)``
— at which point the standard machinery applies per object with its own
threshold.  Pruning uses each object's ``minMaxRadius(τ_O, n)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import LocationSelector, candidates_to_array
from repro.core.influence import batch_log_non_influence, log_non_influence
from repro.core.minmax_radius import min_max_radius
from repro.core.result import Instrumentation, LSResult
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


class CompetitivePrimeLS(LocationSelector):
    """Marginal-influence location selection against incumbents."""

    name = "COMPETITIVE"

    def __init__(self, facilities: list[Candidate]):
        """``facilities`` are the existing sites competed against
        (may be empty, in which case this reduces to plain PRIME-LS)."""
        self.facilities = list(facilities)

    def _run(
        self,
        objects: list[MovingObject],
        candidates: list[Candidate],
        pf: ProbabilityFunction,
        tau: float,
    ) -> LSResult:
        counters = Instrumentation()
        cand_xy = candidates_to_array(candidates)
        m = cand_xy.shape[0]
        counters.pairs_total = len(objects) * m

        # Per-object effective log threshold:
        # log(1 − max(τ, best incumbent probability)).
        incumbent_xy = (
            np.array([(f.x, f.y) for f in self.facilities], dtype=float)
            if self.facilities
            else np.empty((0, 2))
        )
        influence = np.zeros(m, dtype=int)
        for obj in objects:
            log_thr = self._effective_log_threshold(
                obj, incumbent_xy, pf, tau, counters
            )
            if log_thr is None:
                counters.dead_objects += 1
                continue
            # Derive the per-object radius from the effective threshold
            # (strict inequality against incumbents is handled below).
            radius = self._radius_for(pf, obj.n_positions, log_thr)
            if radius is None:
                counters.dead_objects += 1
                continue
            mbr = obj.mbr
            max_d = mbr.max_dist_many(cand_xy)
            min_d = mbr.min_dist_many(cand_xy)
            ia = max_d <= radius
            band = ~ia & (min_d <= radius)
            counters.pairs_pruned_ia += int(np.count_nonzero(ia))
            counters.pairs_pruned_nib += int(
                m - np.count_nonzero(ia) - np.count_nonzero(band)
            )
            influence[ia] += 1
            band_idx = np.nonzero(band)[0]
            if band_idx.size:
                logs = batch_log_non_influence(
                    pf, obj.positions, cand_xy[band_idx]
                )
                influence[band_idx[logs <= log_thr]] += 1
                counters.pairs_validated += band_idx.size
                n = obj.n_positions
                counters.positions_total += n * band_idx.size
                counters.positions_evaluated += n * band_idx.size
        influences = {j: int(influence[j]) for j in range(m)}
        best_idx = max(influences, key=lambda idx: (influences[idx], -idx))
        return LSResult(
            algorithm=self.name,
            best_candidate=candidates[best_idx],
            best_influence=influences[best_idx],
            influences=influences,
            elapsed_seconds=0.0,
            instrumentation=counters,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _effective_log_threshold(
        obj: MovingObject,
        incumbent_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        counters: Instrumentation,
    ) -> float | None:
        """``log(1 − τ_O)`` with ``τ_O = max(τ, best incumbent)``.

        Returns ``None`` when an incumbent already influences the
        object with probability 1 (nothing can strictly beat it).
        """
        best_log = math.log1p(-tau)  # log(1 - tau)
        if incumbent_xy.shape[0]:
            logs = batch_log_non_influence(pf, obj.positions, incumbent_xy)
            counters.positions_evaluated += (
                obj.n_positions * incumbent_xy.shape[0]
            )
            incumbent_best = float(np.min(logs))  # smallest log-non-influence
            if incumbent_best == -math.inf:
                return None
            best_log = min(best_log, incumbent_best)
        return best_log

    @staticmethod
    def _radius_for(
        pf: ProbabilityFunction, n: int, log_threshold: float
    ) -> float | None:
        """``minMaxRadius`` at the effective threshold.

        ``log_threshold = log(1 − τ_O)`` ⇒ ``τ_O = 1 − e^{log_threshold}``.
        """
        tau_eff = -math.expm1(log_threshold)
        if tau_eff >= 1.0:
            return None
        if tau_eff <= 0.0:
            tau_eff = 1e-12
        return min_max_radius(pf, tau_eff, n)


def marginal_influence(
    obj: MovingObject,
    candidate: Candidate,
    facilities: list[Candidate],
    pf: ProbabilityFunction,
    tau: float,
) -> bool:
    """Reference predicate: does ``candidate`` win ``obj`` marginally?

    Used by tests; mirrors the definition without any pruning.
    """
    cand_log = log_non_influence(pf, obj.positions, candidate.x, candidate.y)
    if cand_log > math.log1p(-tau):  # Pr < tau
        return False
    best_incumbent = min(
        (log_non_influence(pf, obj.positions, f.x, f.y) for f in facilities),
        default=math.inf,
    )
    if best_incumbent == -math.inf:
        return False  # an incumbent reaches the object with certainty
    return cand_log <= best_incumbent
