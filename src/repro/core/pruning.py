"""Applying the IA and NIB pruning rules to a candidate set.

For one object (a table row), candidates split into three groups:

* ``certain`` — inside the IA region: influence counted immediately,
* ``maybe``   — inside the NIB region but not the IA region: must be
  validated exactly,
* everything else — outside the NIB region: certainly not influencing.

One kernel decides the split everywhere: :func:`classify_span`
compares squared ``maxDist``/``minDist`` bounds against the squared
``minMaxRadius`` of each object, with a relative guard band
(:data:`CLASSIFY_GUARD`): a pair is IA only if
``maxDist² <= r²·(1 − g)`` and band if ``minDist² <= r²·(1 + g)``, so a
pair within ``g`` of the boundary goes to exact validation instead of
being decided by the rounding of ``r``.

The whole-table scan, :func:`classify_table_chunks`, is the columnar
form of the paper's candidate range queries (Algorithm 2 lines 6/9).
It visits the table's rows in Sort-Tile-Recursive chunks (a cached
permutation; the rows are not reordered), takes each chunk's union NIB
box, picks the candidates inside that box from x-sorted candidate
columns, and runs the kernel on just that ``(chunk rows, candidates)``
block, so its work follows the number of nearby pairs rather than
``objects × candidates``.  The box only removes work: every candidate
outside it is NIB-pruned by the kernel itself (see :func:`nib_boxes`),
so the split, and every count derived from it, equals the dense scan's.
The paper's own form, :func:`rtree_blocks`, yields the same blocks one
row at a time: the candidate R-tree's hits inside the row's padded NIB
box, decided by the same kernel.  Solvers consume either source
through one loop, so the two cannot split differently.
"""

from __future__ import annotations

import numpy as np

from repro.core.object_table import ObjectTable
from repro.geo.mbr import MBR
from repro.index.rtree import RTree, str_groups


def classify_span(
    mbrs: np.ndarray,
    radii: np.ndarray,
    cand_xy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Columnar IA/NIB classification straight off the cached arrays.

    ``mbrs`` is ``(r, 4)`` rows ``(min_x, min_y, max_x, max_y)`` and
    ``radii`` is ``(r,)`` — rows of the table's columnar export
    (:meth:`repro.core.object_table.ObjectTable.mbr_radius_arrays`) —
    so nothing is rebuilt from Python objects per query.  Returns two
    boolean matrices of shape ``(r, m)``: ``ia`` (candidate certainly
    influences the object) and ``band`` (candidate needs exact
    validation); everything else is NIB-pruned.
    """
    return _classify_columns(
        np.ascontiguousarray(mbrs[:, 0])[:, None],
        np.ascontiguousarray(mbrs[:, 1])[:, None],
        np.ascontiguousarray(mbrs[:, 2])[:, None],
        np.ascontiguousarray(mbrs[:, 3])[:, None],
        radii[:, None],
        cand_xy,
    )


#: relative guard band of the IA/NIB tests on squared distances.  A
#: pair within ``g`` of ``r²`` is sent to exact validation, because
#: ``r = PF⁻¹(·)`` and the squared distance each carry a few ulps of
#: rounding that can put it on the wrong side.  One candidate at
#: exactly ``minMaxRadius`` from an object of 1-5 identical positions,
#: 20,000 placements for each of the six shipped PFs (at their
#: defaults) and τ ∈ {0.5, 0.7, 0.9}: the squared tests disagreed with
#: NA 50,995 times at g = 0, 1,843 times at 1e-15 and never at 1e-14,
#: the smallest power of ten that zeroes the sweep.  The worst of
#: 200,000 placements per PF and τ, in squares of 30 to 1,000 km,
#: needed g = 2.4e-15
CLASSIFY_GUARD = 1e-14
_IA_SCALE = 1.0 - CLASSIFY_GUARD
_BAND_SCALE = 1.0 + CLASSIFY_GUARD

#: relative pad of a NIB box, on ``max(1, |coordinates|, r)``: the
#: guard band plus ``16u`` (``eps = 2u``) for the rounding of the box
#: edge and of the kernel; the proof is in :func:`nib_boxes`
_BOX_PAD = CLASSIFY_GUARD + 8 * float(np.finfo(np.float64).eps)


#: float64 elements per ``(r, tile)`` broadcast temporary before the
#: candidate axis is tiled — several temporaries are live at once in
#: :func:`_classify_tile`, so 256 KB per temporary keeps the working
#: set L2-resident; measured fastest from 10³×10² up to 10⁶×10³ (the
#: 1 MB tile loses ~15% at the 10⁵×10³ rung)
CLASSIFY_TILE_ELEMS = 32_768


def _classify_columns(min_x, min_y, max_x, max_y, radius, cand_xy):
    """Tile :func:`_classify_tile` over the candidate axis.

    The object axis is already chunked by the callers; without a
    candidate-axis bound a ``1024 × m`` chunk at ``m = 10³`` burns
    ~8 MB per float64 temporary and the broadcast falls out of cache.
    The tile width adapts to the chunk height so ``rows × tile`` stays
    under :data:`CLASSIFY_TILE_ELEMS`.  Tiling is elementwise-exact:
    the assembled matrices are bit-identical to the untiled broadcast.
    """
    rows = radius.shape[0]
    m = cand_xy.shape[0]
    tile = max(1, CLASSIFY_TILE_ELEMS // max(1, rows))
    if tile >= m:
        return _classify_tile(min_x, min_y, max_x, max_y, radius, cand_xy)
    ia = np.empty((rows, m), dtype=bool)
    band = np.empty((rows, m), dtype=bool)
    for lo in range(0, m, tile):
        hi = min(lo + tile, m)
        ia[:, lo:hi], band[:, lo:hi] = _classify_tile(
            min_x, min_y, max_x, max_y, radius, cand_xy[lo:hi]
        )
    return ia, band


def _classify_tile(min_x, min_y, max_x, max_y, radius, cand_xy):
    x = cand_xy[:, 0][None, :]
    y = cand_xy[:, 1][None, :]
    dx = np.maximum(np.maximum(min_x - x, 0.0), x - max_x)
    dy = np.maximum(np.maximum(min_y - y, 0.0), y - max_y)
    min_d2 = dx * dx + dy * dy
    dx = np.maximum(np.abs(x - min_x), np.abs(x - max_x))
    dy = np.maximum(np.abs(y - min_y), np.abs(y - max_y))
    max_d2 = dx * dx + dy * dy
    r2 = radius * radius
    ia = max_d2 <= r2 * _IA_SCALE
    band = ~ia & (min_d2 <= r2 * _BAND_SCALE)
    return ia, band


#: objects per STR chunk of the blocked scan.  Smaller chunks have
#: tighter NIB boxes (fewer kernel pairs) but more per-chunk overhead.
#: Median PIN-VO pruning phase per query at 256/512/1024/2048 (2-vCPU
#: Xeon, 12 queries x 5 interleaved passes, uniform fleets of 4-16
#: positions): 30k objects x 128 candidates 28.5/24.6/24.5/32.6 ms;
#: 20k x 32 (one pool span) 9.6/7.3/6.8/7.8 ms; only 10⁵ x 10³ prefers
#: smaller chunks (148/151/189/262 ms)
CLASSIFY_CHUNK = 1024


def _check_chunk_size(chunk_size: int) -> None:
    # A zero size divides by zero in the STR grouping and a negative
    # one yields no chunks (an all-zero influence table downstream) —
    # fail loudly at the call site instead.
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


def nib_boxes(mbrs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Padded NIB boxes ``(min_x, min_y, max_x, max_y)``, one per row.

    Row ``i``'s box is its MBR grown by ``r + pad`` on every side, with
    ``pad = _BOX_PAD · s`` and ``s = max(1, |MBR coordinates|, r)``.
    **Every candidate outside the box is NIB-pruned by the kernel.**
    Say ``x`` lies left of the box, and let ``u = 2⁻⁵³``.  The edge
    ``fl(min_x − fl(r + fl(_BOX_PAD·s)))`` is within ``4u·s`` of its
    exact value, so ``D = min_x − x > r + (g + 12u)·s``.  Hence ``D²``
    exceeds both ``r²(1 + g + 24u)`` and ``(12u)²`` (it is a normal
    float).  The kernel's ``minDist²`` is at least
    ``fl(fl(min_x − x)²) ≥ D²(1 − u)³`` and its threshold
    ``fl(fl(r·r)·fl(1 + g))`` is at most ``r²(1 + g)(1 + u)³``, so
    ``minDist²`` is above the threshold: the pair is neither band nor
    IA (``maxDist² ≥ minDist²``).  The other three sides are symmetric.
    """
    scale = np.maximum(np.abs(mbrs).max(axis=1, initial=1.0), radii)
    grow = radii + _BOX_PAD * scale
    return np.column_stack(
        (
            mbrs[:, 0] - grow,
            mbrs[:, 1] - grow,
            mbrs[:, 2] + grow,
            mbrs[:, 3] + grow,
        )
    )


def _table_blocks(
    table: ObjectTable, chunk_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table's STR chunks: ``(order, starts, boxes)``, memoised.

    ``order[starts[b]:starts[b + 1]]`` are chunk ``b``'s rows and
    ``boxes[b]`` is the union of their :func:`nib_boxes`.  Depends only
    on the table's MBRs and radii, so it is built once per table and
    chunk size and cached on the table; only the permutation and the
    per-chunk boxes are kept, never a permuted copy of the MBRs.
    """
    blocks = table.classify_blocks.get(chunk_size)
    if blocks is None:
        mbrs, radii = table.mbr_radius_arrays()
        centres = (mbrs[:, :2] + mbrs[:, 2:]) * 0.5
        order, starts = str_groups(centres, chunk_size)
        boxes = nib_boxes(mbrs, radii)[order]
        heads = starts[:-1]
        chunk_boxes = np.column_stack(
            (
                np.minimum.reduceat(boxes[:, 0], heads),
                np.minimum.reduceat(boxes[:, 1], heads),
                np.maximum.reduceat(boxes[:, 2], heads),
                np.maximum.reduceat(boxes[:, 3], heads),
            )
        )
        blocks = (order, starts, chunk_boxes)
        table.classify_blocks[chunk_size] = blocks
    return blocks


def classify_table_chunks(
    table: ObjectTable,
    cand_xy: np.ndarray,
    chunk_size: int = CLASSIFY_CHUNK,
):
    """Yield ``(rows, cols, ia, band)`` over a table's STR chunks.

    ``rows`` are the chunk's table rows (every row yielded exactly
    once over the whole scan), ``cols`` the ascending
    indexes of the candidates inside the chunk's NIB box, and
    ``ia``/``band`` the ``(rows.size, cols.size)`` matrices of
    :func:`classify_span` on that block.  Every pair not in a block is
    NIB-pruned (:func:`nib_boxes`), so scattering the blocks into
    ``(live_count, m)`` matrices gives exactly the dense
    :func:`classify_span` result.
    """
    _check_chunk_size(chunk_size)
    mbrs, radii = table.mbr_radius_arrays()
    by_x = np.argsort(cand_xy[:, 0], kind="stable")
    xs = cand_xy[by_x, 0]
    ys = cand_xy[by_x, 1]

    def gen():
        order, starts, boxes = _table_blocks(table, chunk_size)
        lo = np.searchsorted(xs, boxes[:, 0], side="left")
        hi = np.searchsorted(xs, boxes[:, 2], side="right")
        for b in range(boxes.shape[0]):
            y = ys[lo[b] : hi[b]]
            inside = (y >= boxes[b, 1]) & (y <= boxes[b, 3])
            cols = np.sort(by_x[lo[b] : hi[b]][inside])
            rows = order[starts[b] : starts[b + 1]]
            ia, band = classify_span(mbrs[rows], radii[rows], cand_xy[cols])
            yield rows, cols, ia, band

    return gen()


def rtree_blocks(table: ObjectTable, cand_xy: np.ndarray, rtree: RTree):
    """Yield ``(rows, cols, ia, band)`` one table row at a time.

    The paper's candidate range queries (Algorithm 2 lines 6/9): for
    each live row, ``cols`` are the hits of ``rtree`` (built over
    ``cand_xy``) inside the row's padded NIB box (:func:`nib_boxes`),
    ascending, and ``ia``/``band`` are :func:`classify_span` on them.
    The contract is :func:`classify_table_chunks`'s — every row in
    exactly one block, every pair outside the blocks NIB-pruned — so
    the two sources split identically.
    """
    mbrs, radii = table.mbr_radius_arrays()
    for i, box in enumerate(nib_boxes(mbrs, radii).tolist()):
        cols = np.sort(np.asarray(rtree.query_rect(MBR(*box)), dtype=np.intp))
        ia, band = classify_span(
            mbrs[i : i + 1], radii[i : i + 1], cand_xy[cols]
        )
        yield np.array([i]), cols, ia, band


def band_by_row(band: np.ndarray):
    """Yield ``(i, maybe)`` for each row of a block with band pairs.

    ``i`` is the block row and ``maybe`` its band pairs' block columns
    in ascending order — one object's validation work.
    """
    for i in np.flatnonzero(band.any(axis=1)).tolist():
        yield i, np.flatnonzero(band[i])
