"""PINOCCHIO — Algorithm 2 of the paper.

Per object: prune candidates with the IA/NIB rules, then validate the
surviving band exactly.  Produces the full influence table (every
candidate's exact influence), like NA but with roughly two thirds of
the object-candidate pairs never touched (Fig 10).

:meth:`Pinocchio.influence_blocks` is the one pass every exact
one-shot solver built on these rules reads: the weighted and portfolio
variants and GRID's cell resolution consume its blocks instead of
keeping loops of their own.
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
from repro.core.pruning import band_by_row, classify_table_chunks, rtree_blocks
from repro.core.result import Instrumentation, LSResult, full_table_result
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


def pruning_blocks(solver: LocationSelector, table: ObjectTable, cand_xy):
    """The ``(rows, cols, ia, band)`` IA/NIB blocks ``solver`` prunes with.

    The STR-chunked scan by default, or the paper's per-object range
    queries on the candidate R-tree when ``solver.use_rtree`` is set;
    the two yield the same split (see :mod:`repro.core.pruning`).
    """
    if solver.use_rtree:
        rtree = solver._candidate_rtree(cand_xy, solver.rtree_max_entries)
        return rtree_blocks(table, cand_xy, rtree)
    return classify_table_chunks(table, cand_xy)


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
        influence = np.zeros(cand_xy.shape[0], dtype=int)
        for _rows, cols, influenced in self.influence_blocks(
            table, cand_xy, pf, tau, counters
        ):
            influence[cols] += influenced.sum(axis=0)
        return influence

    def influence_blocks(
        self,
        table: ObjectTable,
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        counters: Instrumentation,
    ):
        """Yield each pruning block's exact influence relation.

        ``(rows, cols, influenced)``: table rows, candidate columns and
        the ``(rows.size, cols.size)`` boolean matrix of ``Pr_c(O) ≥
        τ`` — IA pairs by the rule, band pairs by this solver's kernel.
        Every row is in exactly one block and every pair outside the
        blocks is NIB-pruned, so the blocks hold the whole relation.
        ``counters`` gets the pruned and validated pairs and the phase
        times: validation is timed directly, and the rest of the pass,
        including the consumer's work between blocks, is charged to
        pruning, so the two phases sum to the pass's wall time.
        """
        m = cand_xy.shape[0]
        log_threshold = influence_threshold_log(tau)
        started = time.perf_counter()
        validation_before = counters.validation_seconds
        for rows, cols, ia, band in pruning_blocks(self, table, cand_xy):
            ia_count = int(np.count_nonzero(ia))
            band_count = int(np.count_nonzero(band))
            counters.pairs_pruned_ia += ia_count
            counters.pairs_pruned_nib += rows.size * m - ia_count - band_count
            # The band's verdicts are written into the IA matrix, which
            # the block source built fresh for this block.
            influenced = ia
            if band_count:
                work = list(band_by_row(band))
                with counters.phase("validation"):
                    for i, maybe in work:
                        influenced[i, maybe] = self._validate_band(
                            table.positions(rows[i]),
                            cand_xy[cols[maybe]], pf, log_threshold,
                            counters,
                        )
            yield rows, cols, influenced
        validation_delta = counters.validation_seconds - validation_before
        counters.pruning_seconds += (
            time.perf_counter() - started
        ) - validation_delta

    def _validate_band(
        self,
        positions: np.ndarray,
        band_xy: np.ndarray,
        pf: ProbabilityFunction,
        log_threshold: float,
        counters: Instrumentation,
    ) -> np.ndarray:
        """Exact verdicts for one object's band candidates ``band_xy``.

        ``positions`` is the object's ``(n, 2)`` view into the fleet's
        columnar x/y block.
        """
        if self.kernel == "vector":
            # One matrix kernel resolves the whole band of this object.
            logs = batch_log_non_influence(pf, positions, band_xy)
            k = band_xy.shape[0]
            counters.pairs_validated += k
            n = positions.shape[0]
            counters.positions_total += n * k
            counters.positions_evaluated += n * k
            return logs <= log_threshold
        return np.array(
            [
                validate_pair(
                    pf, positions, cx, cy, log_threshold,
                    counters=counters, kernel="scalar", early_stop=False,
                )
                for cx, cy in band_xy.tolist()
            ],
            dtype=bool,
        )
