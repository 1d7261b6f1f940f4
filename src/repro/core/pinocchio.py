"""PINOCCHIO — Algorithm 2 of the paper.

Per object: prune candidates with the IA/NIB rules through the
candidate R-tree, then validate the surviving band exactly.  Produces
the full influence table (every candidate's exact influence), like NA
but with roughly two thirds of the object-candidate pairs never
touched (Fig 10).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.base import LocationSelector, candidates_to_array
from repro.core.influence import (
    batch_log_non_influence,
    influence_threshold_log,
    validate_pair,
)
from repro.core.object_table import ObjectTable
from repro.core.pruning import (
    band_by_row,
    classify_candidates,
    classify_table_chunks,
)
from repro.core.result import Instrumentation, LSResult, full_table_result
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


class Pinocchio(LocationSelector):
    """Algorithm 2: IA/NIB pruning + exhaustive validation of the band."""

    name = "PIN"

    def __init__(
        self,
        kernel: str = "vector",
        rtree_max_entries: int = 8,
        use_rtree: bool = False,
    ):
        """``use_rtree=True`` reproduces the paper's candidate R-tree
        range queries; the default classifies candidates with chunked
        broadcast scans, which is the faster analogue in NumPy (the
        split produced is identical — see the ablation bench)."""
        if kernel not in ("vector", "scalar"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.kernel = kernel
        self.rtree_max_entries = rtree_max_entries
        self.use_rtree = use_rtree

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
        influence = self.compute_influence(table, cand_xy, pf, tau, counters)
        return full_table_result(self.name, candidates, influence, counters)

    def compute_influence(
        self,
        table: ObjectTable,
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        counters: Instrumentation,
    ) -> np.ndarray:
        """Exact influence counts for every column of ``cand_xy``.

        Each candidate column is resolved independently of the others,
        so callers (the serving engine) may shard the candidate axis
        across worker processes and concatenate the returned arrays —
        the merged result is bit-identical to a single full-width call.
        ``counters`` receives this shard's work counts and per-phase
        times; ``pairs_total``/``dead_objects`` are the caller's job.
        """
        m = cand_xy.shape[0]
        log_threshold = influence_threshold_log(tau)
        influence = np.zeros(m, dtype=int)

        # Phase attribution, identical on both paths: validation
        # kernels are timed directly, and everything else in this call
        # — classification and its band bookkeeping — is charged to
        # pruning as (wall time − validation time).  By construction
        # the two phase columns always sum to the call's wall time.
        started = time.perf_counter()
        validation_before = counters.validation_seconds

        if self.use_rtree:
            rtree = self._candidate_rtree(cand_xy, self.rtree_max_entries)
            for entry in table:
                outcome = classify_candidates(entry, cand_xy, rtree)
                counters.pairs_pruned_ia += outcome.certain.size
                counters.pairs_pruned_nib += outcome.pruned_nib
                influence[outcome.certain] += 1
                if outcome.maybe.size:
                    with counters.phase("validation"):
                        self._validate_band(
                            entry.obj.positions, outcome.maybe, cand_xy,
                            pf, log_threshold, influence, counters,
                        )
        else:
            positions, offsets = table.positions_offsets()
            for rows, cols, ia, band in classify_table_chunks(table, cand_xy):
                ia_count = int(np.count_nonzero(ia))
                band_count = int(np.count_nonzero(band))
                counters.pairs_pruned_ia += ia_count
                counters.pairs_pruned_nib += (
                    rows.size * m - ia_count - band_count
                )
                influence[cols] += ia.sum(axis=0)
                work = list(band_by_row(rows, cols, band))
                with counters.phase("validation"):
                    for row, maybe in work:
                        self._validate_band(
                            positions[offsets[row] : offsets[row + 1]],
                            maybe, cand_xy, pf,
                            log_threshold, influence, counters,
                        )
        validation_delta = counters.validation_seconds - validation_before
        counters.pruning_seconds += (
            time.perf_counter() - started
        ) - validation_delta
        return influence

    def _validate_band(
        self,
        positions: np.ndarray,
        maybe: np.ndarray,
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        log_threshold: float,
        influence: np.ndarray,
        counters: Instrumentation,
    ) -> None:
        """Exact validation of one object's surviving candidate band.

        ``positions`` is the object's ``(n, 2)`` array — on the scan
        path a view into the table's flat columnar block.
        """
        if self.kernel == "vector":
            # One matrix kernel resolves the whole band of this object.
            logs = batch_log_non_influence(pf, positions, cand_xy[maybe])
            influenced = logs <= log_threshold
            influence[maybe[influenced]] += 1
            counters.pairs_validated += maybe.size
            n = positions.shape[0]
            counters.positions_total += n * maybe.size
            counters.positions_evaluated += n * maybe.size
        else:
            for j in maybe:
                influenced = validate_pair(
                    pf,
                    positions,
                    cand_xy[j, 0],
                    cand_xy[j, 1],
                    log_threshold,
                    counters=counters,
                    kernel="scalar",
                    early_stop=False,
                )
                if influenced:
                    influence[j] += 1
