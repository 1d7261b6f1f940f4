"""The moving-object 2-D array ``A2D`` (Algorithm 1).

The paper builds ``A2D`` as one tuple ⟨A1D(O), IA(O), NIB(O)⟩ per
object.  Here the table is one columnar export (:class:`ColumnarTable`):
row ``i`` holds the ``i``-th live object's id, positions, MBR and
``minMaxRadius``, and the IA/NIB regions are derived from a row's
``(MBR, r)`` where needed.  Objects whose ``minMaxRadius`` is undefined
(uninfluenceable at this ``τ``/``PF``) are excluded and counted,
mirroring the paper's observation that such objects contribute to no
candidate's influence.
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
    """A flat, array-only export of a table's live objects (or a fleet).

    Everything the pruning and validation kernels read, flattened into
    five dense arrays so the whole structure can live in one
    shared-memory block and be rebuilt zero-copy in another process:

    * ``xy`` — the C-contiguous ``(2, Σn)`` float64 position block
      of every (live) object, in fleet order: row 0 holds the x
      column, row 1 the y column, so a kernel gathers each from one
      contiguous array,
    * ``offsets`` — ``(count + 1,)`` int64 prefix offsets; object ``i``
      owns columns ``xy[:, offsets[i]:offsets[i+1]]``,
    * ``object_ids`` — ``(count,)`` int64,
    * ``mbrs`` — ``(count, 4)`` float64 rows ``(min_x, min_y, max_x,
      max_y)``, exported rather than recomputed so a rebuild is pure
      reads,
    * ``radii`` — ``(count,)`` float64 ``minMaxRadius`` per row, or
      ``None`` for a raw fleet export (no ``(PF, τ)`` attached).

    Reconstruction from these arrays is bit-identical to the original:
    float64 values round-trip exactly and every derived quantity
    (IA/NIB regions, distances, probabilities) is a deterministic
    function of them.
    """

    xy: np.ndarray
    offsets: np.ndarray
    object_ids: np.ndarray
    mbrs: np.ndarray
    radii: np.ndarray | None
    #: objects dropped because minMaxRadius was undefined (0 for fleets)
    dead_objects: int = 0

    @property
    def count(self) -> int:
        return int(self.object_ids.shape[0])

    def arrays(self) -> dict[str, np.ndarray]:
        """Name → array, for serialisation into a shared segment."""
        out = {
            "xy": self.xy,
            "offsets": self.offsets,
            "object_ids": self.object_ids,
            "mbrs": self.mbrs,
        }
        if self.radii is not None:
            out["radii"] = self.radii
        return out

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays().values())

    def object_positions(self, i: int) -> np.ndarray:
        """Object ``i``'s zero-copy ``(n, 2)`` view into the block."""
        return self.xy[:, self.offsets[i] : self.offsets[i + 1]].T


def _columnar(
    objects: Sequence[MovingObject],
    radii: list[float] | None,
    dead_objects: int,
) -> ColumnarTable:
    """Flatten ``objects`` (+ optional radii) into one export."""
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
        radii=(
            np.array(radii, dtype=np.float64) if radii is not None else None
        ),
        dead_objects=dead_objects,
    )


def fleet_to_columnar(objects: Sequence[MovingObject]) -> ColumnarTable:
    """Columnar export of a raw fleet (no ``(PF, τ)``, so no radii)."""
    return _columnar(objects, None, 0)


class ObjectTable:
    """``A2D`` for one ``(PF, τ)``: the live objects' columnar export.

    Every reader takes rows of the one :class:`ColumnarTable`: the
    blocked scan and the R-tree source read :meth:`mbr_radius_arrays`,
    the validation kernels :meth:`positions_offsets`, and the serving
    pool publishes :meth:`to_columnar` in shared memory and wraps the
    attached arrays again with :meth:`from_columnar`.
    """

    def __init__(
        self,
        objects: Sequence[MovingObject],
        pf: ProbabilityFunction,
        tau: float,
    ):
        radius_cache = MinMaxRadiusCache(pf, tau)
        live: list[MovingObject] = []
        radii: list[float] = []
        dead_objects = 0
        for obj in objects:
            radius = radius_cache.radius(obj.n_positions)
            if radius is None:
                dead_objects += 1
                continue
            live.append(obj)
            radii.append(radius)
        self._init(_columnar(live, radii, dead_objects), pf, tau)

    def _init(
        self, cols: ColumnarTable, pf: ProbabilityFunction, tau: float
    ) -> None:
        self.pf = pf
        self.tau = tau
        self._cols = cols
        self.dead_objects = int(cols.dead_objects)
        #: chunk size → the STR chunking of the rows that
        #: :func:`repro.core.pruning.classify_table_chunks` builds on
        #: first use (a row permutation plus one NIB box per chunk)
        self.classify_blocks: dict[int, tuple] = {}

    @classmethod
    def from_columnar(
        cls,
        cols: ColumnarTable,
        pf: ProbabilityFunction,
        tau: float,
    ) -> "ObjectTable":
        """Wrap a table export (possibly shared memory) as a table.

        Nothing is recomputed or copied: MBRs, radii and the dead-object
        count are read back, so the rebuilt table answers bit-identically.
        Requires ``cols.radii`` (a table export, not a raw fleet).
        """
        if cols.radii is None:
            raise ValueError(
                "cannot rebuild an ObjectTable from a fleet export "
                "(no radii)"
            )
        table = cls.__new__(cls)
        table._init(cols, pf, tau)
        return table

    def mbr_radius_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(count, 4)`` MBR and ``(count,)`` radius arrays.

        Rows are ``(min_x, min_y, max_x, max_y)`` in fleet order.
        """
        return self._cols.mbrs, self._cols.radii

    def positions_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(2, Σn)`` x/y position block and its prefix offsets.

        Object ``i`` owns columns ``xy[:, offsets[i]:offsets[i+1]]``.
        """
        return self._cols.xy, self._cols.offsets

    def to_columnar(self) -> ColumnarTable:
        """The table's columnar export, the same instance every call."""
        return self._cols

    @property
    def live_count(self) -> int:
        return self._cols.count

    def __len__(self) -> int:
        return self.live_count
