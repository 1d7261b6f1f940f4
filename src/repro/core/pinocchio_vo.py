"""PINOCCHIO-VO — Algorithm 3 — and the PIN-VO* ablation.

On top of PINOCCHIO's pruning rules, the validation phase applies:

* **Strategy 1** (upper/lower influence bounds): candidates are
  organised in a max-heap ordered by ``maxInf`` then ``minInf``; once
  the top of the heap has ``maxInf < maxminInf`` no remaining candidate
  can win and validation stops.  During one candidate's validation the
  same test aborts it as soon as it is dominated.
* **Strategy 2** (early stopping, Lemma 4): a pair validation stops as
  soon as the running partial non-influence probability drops to
  ``≤ 1 − τ``.

Bookkeeping notes (all behaviour-preserving w.r.t. Algorithm 3):

* After the pruning phase ``maxInf(c) = minInf(c) + |VS(c)|`` — an
  object contributes to ``maxInf(c)`` only if it was IA-certified
  (already in ``minInf``) or still needs validation (in ``VS(c)``).
  This identity replaces the paper's explicit per-object ``maxInf``
  decrements (Algorithm 3 line 9).
* ``maxminInf`` is seeded with ``max_c minInf(c)`` rather than the
  paper's 0 — ``minInf`` is a certified lower bound after pruning, so
  this is sound and strictly tightens Strategy 1 from the first pop.
* In the default vector kernel, one candidate's verification set is
  validated in object batches with a two-phase early stop, gathered
  columnar from the table's x/y position block
  (:func:`repro.core.influence.batch_validate_spans`); Strategy 1
  aborts at batch boundaries.  The scalar kernel follows the paper's
  per-object/per-position loop exactly.

PIN-VO* (§6.1) is the ablation with the pruning phase disabled: every
live object of every candidate goes to validation, and only the two
strategies cut work.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core.base import LocationSelector, candidates_to_array
from repro.core.influence import (
    batch_validate_spans,
    influence_threshold_log,
    log1m_safe,
    validate_pair,
)
from repro.core.object_table import ObjectTable
from repro.core.pruning import classify_candidates, classify_table_chunks
from repro.core.result import Instrumentation, LSResult
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


class PinocchioVO(LocationSelector):
    """Algorithm 3: pruning + optimised validation (Strategies 1 and 2)."""

    name = "PIN-VO"

    #: whether the pruning phase runs (PIN-VO* turns it off)
    use_pruning = True

    #: objects validated per batched kernel call in vector mode
    BATCH_OBJECTS = 128

    def __init__(
        self,
        kernel: str = "vector",
        rtree_max_entries: int = 8,
        use_rtree: bool = False,
        fail_fast: bool = False,
    ):
        """``use_rtree=True`` reproduces the paper's candidate R-tree
        range queries; the default uses the equivalent chunked
        broadcast classification (see :class:`repro.core.Pinocchio`).
        ``fail_fast`` enables the sound reject-early bound described in
        DESIGN.md §5 (an extension beyond the paper, off by default).
        """
        if kernel not in ("vector", "scalar"):
            raise ValueError(f"unknown kernel {kernel!r}")
        if fail_fast and kernel != "scalar":
            raise ValueError(
                "fail_fast applies per position and requires kernel='scalar'"
            )
        self.kernel = kernel
        self.rtree_max_entries = rtree_max_entries
        self.use_rtree = use_rtree
        self.fail_fast = fail_fast

    def _run(
        self,
        objects: list[MovingObject],
        candidates: list[Candidate],
        pf: ProbabilityFunction,
        tau: float,
    ) -> LSResult:
        counters = Instrumentation()
        table = self._object_table(objects, pf, tau)
        counters.dead_objects = table.dead_objects
        cand_xy = candidates_to_array(candidates)
        counters.pairs_total = table.live_count * cand_xy.shape[0]

        with counters.phase("pruning"):
            min_inf, vs_indexes = self.pruning_phase(table, cand_xy, counters)
        return self.validation_phase(
            table, candidates, cand_xy, pf, tau, counters, min_inf, vs_indexes
        )

    def validation_phase(
        self,
        table: ObjectTable,
        candidates: list[Candidate],
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        counters: Instrumentation,
        min_inf: np.ndarray,
        vs_indexes: list[np.ndarray],
    ) -> LSResult:
        """Strategy-1/2 validation given the pruning phase's output.

        Split out so the serving engine can run the pruning phase
        sharded across worker processes (candidate columns are
        independent) and feed the merged ``minInf``/``VS`` arrays into
        the inherently sequential heap loop here.
        """
        m = cand_xy.shape[0]
        log_threshold = influence_threshold_log(tau)
        timer_started = time.perf_counter()

        # maxInf(c) = minInf(c) + |VS(c)| (see module docstring).
        max_inf = min_inf + np.array([v.size for v in vs_indexes], dtype=int)
        maxmin_inf = int(min_inf.max())
        best_idx = int(min_inf.argmax())
        fully_validated: dict[int, int] = {}

        heap = [(-int(max_inf[j]), -int(min_inf[j]), j) for j in range(m)]
        heapq.heapify(heap)

        while heap:
            _, _, j = heapq.heappop(heap)
            counters.heap_pops += 1
            if max_inf[j] < maxmin_inf:
                # Strategy 1: nothing left on the heap can beat the
                # best certified influence.
                counters.candidates_skipped_strategy1 += 1 + len(heap)
                break
            aborted = self._validate_candidate(
                pf, table, vs_indexes[j],
                cand_xy[j, 0], cand_xy[j, 1],
                log_threshold, counters, min_inf, max_inf, j, maxmin_inf,
            )
            if aborted:
                continue
            counters.candidates_fully_validated += 1
            fully_validated[j] = int(min_inf[j])
            if min_inf[j] > maxmin_inf or (
                min_inf[j] == maxmin_inf and best_idx not in fully_validated
            ):
                best_idx = j
            maxmin_inf = max(maxmin_inf, int(min_inf[j]))
        counters.validation_seconds += time.perf_counter() - timer_started

        # The winner is always fully validated by the time the loop
        # stops: a candidate holding the current maxminInf as a pure
        # lower bound still sits on the heap with maxInf >= maxminInf,
        # which blocks the Strategy-1 break until it has been popped —
        # and a popped bound-holder can never be aborted mid-validation
        # (its maxInf stays >= its own certified lower bound).
        best_influence = fully_validated.get(best_idx, int(min_inf[best_idx]))
        return LSResult(
            algorithm=self.name,
            best_candidate=candidates[best_idx],
            best_influence=best_influence,
            influences=fully_validated,
            elapsed_seconds=0.0,
            instrumentation=counters,
        )

    # ------------------------------------------------------------------
    # Pruning phase
    # ------------------------------------------------------------------
    def pruning_phase(
        self,
        table: ObjectTable,
        cand_xy: np.ndarray,
        counters: Instrumentation,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """IA/NIB pruning.

        Returns certified influence lower bounds (``minInf``) and, per
        candidate, the verification set as an array of indexes into
        ``table.entries``.
        """
        m = cand_xy.shape[0]
        min_inf = np.zeros(m, dtype=int)
        if not self.use_pruning:
            everything = np.arange(table.live_count)
            return min_inf, [everything] * m
        if self.use_rtree:
            return self._prune_with_rtree(table, cand_xy, counters, min_inf)
        stride = max(table.live_count, 1)
        keys: list[np.ndarray] = []
        for rows, cols, ia, band in classify_table_chunks(table, cand_xy):
            ia_count = int(np.count_nonzero(ia))
            band_count = int(np.count_nonzero(band))
            counters.pairs_pruned_ia += ia_count
            counters.pairs_pruned_nib += rows.size * m - ia_count - band_count
            min_inf[cols] += ia.sum(axis=0)
            band_rows, band_cols = np.nonzero(band)
            keys.append(cols[band_cols] * stride + rows[band_rows])
        # One sort of the (candidate, row) keys groups the band pairs by
        # candidate, each verification set in ascending row order
        # whatever order the chunks ran in.
        key = np.sort(np.concatenate(keys)) if keys else np.empty(0, dtype=int)
        boundaries = np.searchsorted(key, np.arange(m + 1) * stride)
        rows = key % stride
        vs_indexes = [
            rows[boundaries[j] : boundaries[j + 1]] for j in range(m)
        ]
        return min_inf, vs_indexes

    def _prune_with_rtree(
        self,
        table: ObjectTable,
        cand_xy: np.ndarray,
        counters: Instrumentation,
        min_inf: np.ndarray,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        m = cand_xy.shape[0]
        rtree = self._candidate_rtree(cand_xy, self.rtree_max_entries)
        sets: list[list[int]] = [[] for _ in range(m)]
        for i, entry in enumerate(table.entries):
            outcome = classify_candidates(entry, cand_xy, rtree)
            counters.pairs_pruned_ia += outcome.certain.size
            counters.pairs_pruned_nib += outcome.pruned_nib
            min_inf[outcome.certain] += 1
            for j in outcome.maybe.tolist():
                sets[j].append(i)
        return min_inf, [np.array(s, dtype=int) for s in sets]

    # ------------------------------------------------------------------
    # Validation phase
    # ------------------------------------------------------------------
    def _validate_candidate(
        self,
        pf: ProbabilityFunction,
        table: ObjectTable,
        vs: np.ndarray,
        cx: float,
        cy: float,
        log_threshold: float,
        counters: Instrumentation,
        min_inf: np.ndarray,
        max_inf: np.ndarray,
        j: int,
        maxmin_inf: int,
    ) -> bool:
        """Validate one candidate's verification set.

        Returns ``True`` when the candidate was abandoned by Strategy 1.
        """
        if self.kernel == "vector":
            # Columnar Strategy-2 kernel: each batch of the span is
            # gathered straight from the table's x/y position block —
            # no per-object arrays, no entry wrappers (pool workers
            # validate against the attached shared segment as-is).
            xy, offsets = table.positions_offsets()
            for start in range(0, vs.size, self.BATCH_OBJECTS):
                batch = vs[start : start + self.BATCH_OBJECTS]
                influenced = batch_validate_spans(
                    pf,
                    xy,
                    offsets,
                    batch,
                    cx,
                    cy,
                    log_threshold,
                    counters=counters,
                )
                hits = int(np.count_nonzero(influenced))
                min_inf[j] += hits
                max_inf[j] -= batch.size - hits
                if max_inf[j] < maxmin_inf:
                    counters.candidates_skipped_strategy1 += 1
                    return True
            return False
        entries = table.entries
        for i in vs.tolist():
            entry = entries[i]
            fail_fast_bound = None
            if self.fail_fast:
                p_ub = float(pf(entry.mbr.min_dist(cx, cy)))
                fail_fast_bound = float(log1m_safe(p_ub))
            influenced = validate_pair(
                pf,
                entry.obj.positions,
                cx,
                cy,
                log_threshold,
                counters=counters,
                kernel="scalar",
                early_stop=True,
                fail_fast_log_bound=fail_fast_bound,
            )
            if influenced:
                min_inf[j] += 1
            else:
                max_inf[j] -= 1
                if max_inf[j] < maxmin_inf:
                    counters.candidates_skipped_strategy1 += 1
                    return True
        return False


class PinocchioVOStar(PinocchioVO):
    """PIN-VO*: validation optimisations only, no pruning phase (§6.1)."""

    name = "PIN-VO*"
    use_pruning = False
