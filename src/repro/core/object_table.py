"""The moving-object 2-D array ``A2D`` (Algorithm 1).

One entry per live moving object bundles the ``A1D`` position array
with everything the pruning rules need: the activity MBR, the object's
``minMaxRadius``, and the derived IA/NIB regions.  Objects whose
``minMaxRadius`` is undefined (uninfluenceable at this ``τ``/``PF``)
are excluded and counted, mirroring the paper's observation that such
objects contribute to no candidate's influence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.minmax_radius import MinMaxRadiusCache
from repro.geo.mbr import MBR
from repro.geo.regions import InfluenceArcsRegion, NonInfluenceBoundary
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


@dataclass(frozen=True, slots=True)
class ObjectEntry:
    """One ``A2D`` tuple: ⟨A1D(O), IA(O), NIB(O)⟩ plus derived data."""

    obj: MovingObject
    radius: float            # minMaxRadius(τ, n)
    mbr: MBR

    @property
    def ia(self) -> InfluenceArcsRegion:
        """The influence-arcs region (Lemma 2)."""
        return InfluenceArcsRegion(self.mbr, self.radius)

    @property
    def nib(self) -> NonInfluenceBoundary:
        """The non-influence boundary region (Lemma 3)."""
        return NonInfluenceBoundary(self.mbr, self.radius)

    @property
    def nib_bbox(self) -> MBR:
        """MBR of the NIB region — drives the candidate R-tree query."""
        return self.mbr.expanded(self.radius)


@dataclass(frozen=True)
class ColumnarTable:
    """A flat, array-only export of a table's live entries (or a fleet).

    Everything the pruning and validation kernels read, flattened into
    five dense arrays so the whole structure can live in one
    shared-memory block and be rebuilt zero-copy in another process:

    * ``positions`` — the concatenated ``(Σn, 2)`` float64 position
      block of every (live) object, in entry order,
    * ``offsets`` — ``(count + 1,)`` int64 prefix offsets; object ``i``
      owns rows ``positions[offsets[i]:offsets[i+1]]``,
    * ``object_ids`` — ``(count,)`` int64,
    * ``mbrs`` — ``(count, 4)`` float64 rows ``(min_x, min_y, max_x,
      max_y)``, exported rather than recomputed so a rebuild is pure
      reads,
    * ``radii`` — ``(count,)`` float64 ``minMaxRadius`` per entry, or
      ``None`` for a raw fleet export (no ``(PF, τ)`` attached).

    Reconstruction from these arrays is bit-identical to the original:
    float64 values round-trip exactly and every derived quantity
    (IA/NIB regions, distances, probabilities) is a deterministic
    function of them.
    """

    positions: np.ndarray
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
            "positions": self.positions,
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
        """Object ``i``'s ``(n, 2)`` view into the position block."""
        return self.positions[self.offsets[i] : self.offsets[i + 1]]


def _columnar_from_parts(
    objects_mbrs: "list[tuple[MovingObject, MBR]]",
    radii: "list[float] | None",
    dead_objects: int,
) -> ColumnarTable:
    """Flatten ``(object, mbr)`` pairs (+ optional radii) into arrays."""
    count = len(objects_mbrs)
    lengths = np.array(
        [obj.n_positions for obj, _ in objects_mbrs], dtype=np.int64
    )
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    positions = (
        np.concatenate([obj.positions for obj, _ in objects_mbrs], axis=0)
        if count
        else np.empty((0, 2), dtype=np.float64)
    )
    return ColumnarTable(
        positions=np.ascontiguousarray(positions, dtype=np.float64),
        offsets=offsets,
        object_ids=np.array(
            [obj.object_id for obj, _ in objects_mbrs], dtype=np.int64
        ),
        mbrs=np.array(
            [mbr.as_tuple() for _, mbr in objects_mbrs], dtype=np.float64
        ).reshape(count, 4),
        radii=(
            np.array(radii, dtype=np.float64) if radii is not None else None
        ),
        dead_objects=dead_objects,
    )


def fleet_to_columnar(objects: Sequence[MovingObject]) -> ColumnarTable:
    """Columnar export of a raw fleet (no ``(PF, τ)``, so no radii)."""
    return _columnar_from_parts(
        [(obj, obj.mbr) for obj in objects], None, 0
    )


def fleet_from_columnar(cols: ColumnarTable) -> list[MovingObject]:
    """Rebuild the fleet as zero-copy views into ``cols.positions``."""
    objects = []
    for i in range(cols.count):
        view = cols.object_positions(i)
        view.setflags(write=False)
        mx0, my0, mx1, my1 = cols.mbrs[i]
        objects.append(
            MovingObject.from_readonly(
                int(cols.object_ids[i]),
                view,
                mbr=MBR(float(mx0), float(my0), float(mx1), float(my1)),
            )
        )
    return objects


class ObjectTable:
    """``A2D``: the per-object entries plus the shared radius memo.

    The table keeps two synchronised representations of its live
    objects:

    * ``entries`` — per-object :class:`ObjectEntry` wrappers, used by
      the R-tree path, the scalar kernels, and everything that wants
      Python-level access, and
    * the **columnar** arrays — ``(count, 4)`` MBRs, ``(count,)``
      radii, and the flat position block — which the broadcast
      classification and batched validation kernels read directly.

    Both are cached: the columnar arrays are built at most once per
    table (instead of on every query), and a table rebuilt from a
    shared-memory export (:meth:`from_columnar`) defers the entry
    wrappers until something actually asks for them — the pool's
    columnar kernels never do.
    """

    def __init__(
        self,
        objects: Sequence[MovingObject],
        pf: ProbabilityFunction,
        tau: float,
    ):
        self.pf = pf
        self.tau = tau
        self._radius_cache: MinMaxRadiusCache | None = MinMaxRadiusCache(
            pf, tau
        )
        entries: list[ObjectEntry] = []
        self.dead_objects = 0
        for obj in objects:
            radius = self._radius_cache.radius(obj.n_positions)
            if radius is None:
                self.dead_objects += 1
                continue
            entries.append(ObjectEntry(obj, radius, obj.mbr))
        self._entries: list[ObjectEntry] | None = entries
        self._cols: ColumnarTable | None = None
        self._mbrs: np.ndarray | None = None
        self._radii: np.ndarray | None = None
        #: chunk size → the STR chunking of the rows that
        #: :func:`repro.core.pruning.classify_table_chunks` builds on
        #: first use (a row permutation plus one NIB box per chunk)
        self.classify_blocks: dict[int, tuple] = {}

    @property
    def entries(self) -> list[ObjectEntry]:
        """The per-object wrappers, materialised on first use.

        A table built from :meth:`from_columnar` starts without them;
        touching this property rebuilds zero-copy views into the
        columnar position block (read-only, possibly shared memory).
        """
        if self._entries is None:
            cols = self._cols
            radii = cols.radii
            self._entries = [
                ObjectEntry(obj, float(radii[i]), obj.mbr)
                for i, obj in enumerate(fleet_from_columnar(cols))
            ]
        return self._entries

    @property
    def radius_cache(self) -> MinMaxRadiusCache:
        """The shared ``minMaxRadius`` memo, created on first use."""
        if self._radius_cache is None:
            self._radius_cache = MinMaxRadiusCache(self.pf, self.tau)
        return self._radius_cache

    def mbr_radius_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached ``(count, 4)`` MBR and ``(count,)`` radius arrays.

        Built once per table (or borrowed from an attached columnar
        export) so classification never rebuilds them per query; rows
        are ``(min_x, min_y, max_x, max_y)`` in entry order.
        """
        if self._mbrs is None:
            if self._cols is not None:
                self._mbrs = self._cols.mbrs
                self._radii = self._cols.radii
            else:
                entries = self._entries
                self._mbrs = np.array(
                    [e.mbr.as_tuple() for e in entries], dtype=np.float64
                ).reshape(len(entries), 4)
                self._radii = np.array(
                    [e.radius for e in entries], dtype=np.float64
                )
        return self._mbrs, self._radii

    def positions_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat ``(Σn, 2)`` position block and its prefix offsets.

        Object ``i`` owns ``positions[offsets[i]:offsets[i+1]]``; built
        (and cached) via :meth:`to_columnar`, so on a worker this is a
        pure read of the attached shared segment.
        """
        cols = self.to_columnar()
        return cols.positions, cols.offsets

    def to_columnar(self) -> ColumnarTable:
        """Flatten the live entries into a :class:`ColumnarTable`.

        The export carries everything a worker process needs to answer
        span tasks — positions, offsets, ids, MBRs, radii — so the
        serving pool can publish one table per ``(PF, τ)`` in shared
        memory and rebuild it with :meth:`from_columnar`.  Memoised:
        repeated calls (pool republish, validation kernels) return the
        same instance.
        """
        if self._cols is None:
            entries = self.entries
            self._cols = _columnar_from_parts(
                [(e.obj, e.mbr) for e in entries],
                [e.radius for e in entries],
                self.dead_objects,
            )
            self._mbrs = self._cols.mbrs
            self._radii = self._cols.radii
        return self._cols

    @classmethod
    def from_columnar(
        cls,
        cols: ColumnarTable,
        pf: ProbabilityFunction,
        tau: float,
    ) -> "ObjectTable":
        """Rebuild a table from a columnar export, bit-identically.

        The columnar arrays (which may live in shared memory) become
        the table's primary representation: the broadcast and batched
        kernels read them directly, and per-object ``ObjectEntry``
        wrappers — zero-copy read-only views into ``cols.positions`` —
        are only materialised if a legacy path asks for ``entries``.
        MBRs and radii are read back rather than recomputed, and the
        dead-object count is preserved.  Requires ``cols.radii`` (a
        table export, not a raw fleet).
        """
        if cols.radii is None:
            raise ValueError(
                "cannot rebuild an ObjectTable from a fleet export "
                "(no radii); use fleet_from_columnar"
            )
        table = cls.__new__(cls)
        table.pf = pf
        table.tau = tau
        table._radius_cache = None
        table.dead_objects = int(cols.dead_objects)
        table._entries = None
        table._cols = cols
        table._mbrs = cols.mbrs
        table._radii = cols.radii
        table.classify_blocks = {}
        return table

    @property
    def entries_materialised(self) -> bool:
        """Whether the per-object wrappers exist yet (test hook)."""
        return self._entries is not None

    @property
    def live_count(self) -> int:
        if self._entries is not None:
            return len(self._entries)
        return self._cols.count

    def __iter__(self) -> Iterator[ObjectEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return self.live_count
