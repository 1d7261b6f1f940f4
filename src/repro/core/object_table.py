"""The moving-object 2-D array ``A2D`` (Algorithm 1).

The paper builds ``A2D`` as one tuple ⟨A1D(O), IA(O), NIB(O)⟩ per
object.  Of these only ``minMaxRadius(τ, n)``, and with it the live
set, depends on ``(PF, τ)``.  So the positions, ids and MBRs live in
one fleet export (:class:`ColumnarTable`), built once per fleet, and
an :class:`ObjectTable` is a radius column over it: the ascending
fleet rows of its live objects, their ``minMaxRadius`` and their
MBRs.  The IA/NIB regions are derived from a row's ``(MBR, r)`` where
needed.  Objects whose ``minMaxRadius`` is undefined (uninfluenceable
at this ``τ``/``PF``) are excluded and counted, mirroring the paper's
observation that such objects contribute to no candidate's influence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.minmax_radius import MinMaxRadiusCache
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


@dataclass(frozen=True)
class ColumnarTable:
    """A fleet's flat, array-only export.

    Everything the pruning and validation kernels read about the
    objects, flattened into four dense arrays in fleet order:

    * ``xy`` — the C-contiguous ``(2, Σn)`` float64 position block:
      row 0 holds the x column, row 1 the y column, so a kernel
      gathers each from one contiguous array,
    * ``offsets`` — ``(count + 1,)`` int64 prefix offsets; object ``i``
      owns columns ``xy[:, offsets[i]:offsets[i+1]]``,
    * ``object_ids`` — ``(count,)`` int64,
    * ``mbrs`` — ``(count, 4)`` float64 rows ``(min_x, min_y, max_x,
      max_y)``.
    """

    xy: np.ndarray
    offsets: np.ndarray
    object_ids: np.ndarray
    mbrs: np.ndarray

    @property
    def count(self) -> int:
        return int(self.object_ids.shape[0])

    def object_positions(self, i: int) -> np.ndarray:
        """Object ``i``'s zero-copy ``(n, 2)`` view into the block."""
        return self.xy[:, self.offsets[i] : self.offsets[i + 1]].T


def export_fleet(objects: Sequence[MovingObject]) -> ColumnarTable:
    """Flatten a fleet into its columnar export, in one walk."""
    count = len(objects)
    lengths = np.array([obj.n_positions for obj in objects], dtype=np.int64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    xy = np.empty((2, int(offsets[-1])), dtype=np.float64)
    if count:
        # one pass: the rows land straight in the transposed block
        np.concatenate([obj.positions for obj in objects], axis=0, out=xy.T)
    return ColumnarTable(
        xy=xy,
        offsets=offsets,
        object_ids=np.array(
            [obj.object_id for obj in objects], dtype=np.int64
        ),
        mbrs=np.array(
            [obj.mbr.as_tuple() for obj in objects], dtype=np.float64
        ).reshape(count, 4),
    )


class ObjectTable:
    """``A2D`` for one ``(PF, τ)``: a radius column over a fleet export.

    Table row ``i`` is fleet row ``rows[i]``; ``rows`` ascends, so the
    live objects keep their fleet order.  The table holds ``radii``
    (``minMaxRadius`` per row) and ``mbrs`` (the rows' MBRs, gathered),
    which the blocked scan and the R-tree source read through
    :meth:`mbr_radius_arrays`; every position reader maps its table
    rows through ``rows`` into ``fleet``, which the table shares and
    never copies.  ``fleet`` is a :class:`ColumnarTable`, or a
    sequence of moving objects to export first.
    """

    def __init__(
        self,
        fleet: ColumnarTable | Sequence[MovingObject],
        pf: ProbabilityFunction,
        tau: float,
    ):
        if not isinstance(fleet, ColumnarTable):
            fleet = export_fleet(fleet)
        self.pf = pf
        self.tau = tau
        self.fleet = fleet
        # one minMaxRadius lookup per distinct position count
        radius_cache = MinMaxRadiusCache(pf, tau)
        lengths, inverse = np.unique(
            np.diff(fleet.offsets), return_inverse=True
        )
        resolved = [radius_cache.radius(int(n)) for n in lengths.tolist()]
        live = np.array([r is not None for r in resolved], dtype=bool)
        radius_of = np.array(
            [0.0 if r is None else r for r in resolved], dtype=np.float64
        )
        #: ascending fleet rows of the live objects
        self.rows = np.flatnonzero(live[inverse])
        self.radii = radius_of[inverse[self.rows]]
        self.mbrs = fleet.mbrs[self.rows]
        #: objects dropped because minMaxRadius was undefined
        self.dead_objects = fleet.count - int(self.rows.size)
        #: chunk size → the STR chunking of the rows that
        #: :func:`repro.core.pruning.classify_table_chunks` builds on
        #: first use (a row permutation plus one NIB box per chunk)
        self.classify_blocks: dict[int, tuple] = {}

    def mbr_radius_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(count, 4)`` MBR and ``(count,)`` radius arrays.

        Rows are ``(min_x, min_y, max_x, max_y)`` in table order.
        """
        return self.mbrs, self.radii

    def positions(self, i: int) -> np.ndarray:
        """Table row ``i``'s zero-copy ``(n, 2)`` view into the fleet."""
        return self.fleet.object_positions(int(self.rows[i]))

    @property
    def live_count(self) -> int:
        return int(self.rows.size)

    def __len__(self) -> int:
        return self.live_count
