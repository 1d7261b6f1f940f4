"""Grid-partition PRIME-LS in the spirit of MaxFirst / Yan et al.

The related-work grid techniques ([12], [17]) partition space, bound
the influence achievable inside each partition, and refine the most
promising partitions first.  This module adapts that playbook to
PRIME-LS over a *discrete* candidate set, yielding a third exact solver
with coarser pruning granularity than PINOCCHIO's per-object rules:

* candidates are bucketed into ``g × g`` grid cells;
* a cell's influence upper bound, shared by every candidate in it, is
  the number of objects whose padded NIB box
  (:func:`repro.core.pruning.nib_boxes`) meets the cell's bounding
  box — one vectorised count per cell;
* cells are processed by decreasing upper bound; a cell's candidates
  are resolved exactly by PINOCCHIO's influence pass
  (:meth:`repro.core.pinocchio.Pinocchio.compute_influence`), and
  processing stops when the best exact influence matches the remaining
  cells' upper bounds.

Exactness: the pass NIB-prunes every candidate outside an object's
padded box (the :func:`~repro.core.pruning.nib_boxes` proof), so only
objects whose box meets the cell can count toward a member's
influence; the upper bound dominates each member's exact influence and
the stop rule never discards the optimum — asserted against NA in the
tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import LocationSelector, candidates_to_array
from repro.core.object_table import ObjectTable
from repro.core.pinocchio import Pinocchio
from repro.core.pruning import nib_boxes
from repro.core.result import Instrumentation, LSResult
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


class GridPartitionLS(LocationSelector):
    """Exact PRIME-LS via best-first grid-cell refinement."""

    name = "GRID"

    def __init__(self, grid_size: int = 16):
        if grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {grid_size}")
        self.grid_size = grid_size

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
        counters.pairs_total = table.live_count * cand_xy.shape[0]

        cells = self._bucket_candidates(cand_xy)
        boxes = nib_boxes(*table.mbr_radius_arrays())
        upper = []
        for members in cells:
            lo = cand_xy[members].min(axis=0)
            hi = cand_xy[members].max(axis=0)
            meets = np.all(boxes[:, :2] <= hi, axis=1) & np.all(
                boxes[:, 2:] >= lo, axis=1
            )
            upper.append(int(np.count_nonzero(meets)))

        solver = Pinocchio()
        best_idx = 0
        best_influence = -1
        order = sorted(range(len(cells)), key=lambda c: upper[c], reverse=True)
        for rank, c in enumerate(order):
            if upper[c] <= best_influence:
                # No candidate in this (or any later) cell can win.
                counters.candidates_skipped_strategy1 += sum(
                    cells[i].size for i in order[rank:]
                )
                break
            members = cells[c]
            influences = solver.compute_influence(
                table, cand_xy[members], pf, tau, counters
            )
            local_best = int(np.argmax(influences))
            if influences[local_best] > best_influence:
                best_influence = int(influences[local_best])
                best_idx = int(members[local_best])
        return LSResult(
            algorithm=self.name,
            best_candidate=candidates[best_idx],
            best_influence=best_influence,
            influences={},  # grid refinement resolves only visited cells
            elapsed_seconds=0.0,
            instrumentation=counters,
        )

    # ------------------------------------------------------------------
    def _bucket_candidates(self, cand_xy: np.ndarray) -> list[np.ndarray]:
        """The candidate indexes of each non-empty grid cell."""
        min_x, min_y = cand_xy.min(axis=0)
        max_x, max_y = cand_xy.max(axis=0)
        span_x = max(max_x - min_x, 1e-9)
        span_y = max(max_y - min_y, 1e-9)
        g = self.grid_size
        col = np.minimum(((cand_xy[:, 0] - min_x) / span_x * g).astype(int), g - 1)
        row = np.minimum(((cand_xy[:, 1] - min_y) / span_y * g).astype(int), g - 1)
        key = row * g + col
        return [np.nonzero(key == cell_key)[0] for cell_key in np.unique(key)]


def optimal_grid_size(n_candidates: int) -> int:
    """A heuristic grid resolution: ~4 candidates per non-empty cell."""
    return max(1, int(math.sqrt(max(1, n_candidates) / 4)))
