"""Safe regions for incremental PRIME-LS maintenance over moving objects.

The IA/NIB rules (Lemmas 2-3) resolve an (object, candidate) pair from
the object's activity MBR ``M`` and its ``minMaxRadius`` ``r`` alone:

* ``IA``   — ``maxDist(c, M) <= r``: certainly influenced,
* ``OUT``  — ``minDist(c, M) >  r``: certainly not influenced,
* band    — neither bound resolves: exact validation required.

A position update changes ``(M, r)``; the *safe region* of an object is
the set of ``(M', r')`` for which no candidate's side can change and no
candidate sits in the band — inside it, the update is absorbed with
**zero candidate work** (the influence marks stay exact by Lemmas 2-3,
because every candidate keeps a *certain* verdict).  This is the
safe-region idea of "Probabilistic Voronoi Diagrams for Probabilistic
Moving Nearest Neighbor Queries" transplanted onto the IA/NIB geometry:
maintenance cost scales with boundary *crossings*, not with
``n_candidates × n_updates``.

The region is kept as a single scalar **slack**: the smallest margin,
over all candidates, between the candidate's min/max distance and its
boundary.  Both ``minDist`` and ``maxDist`` are 1-Lipschitz in each MBR
side coordinate, so if every side moves by at most ``d`` (L-infinity on
the four coordinates) the distances move by at most ``d * sqrt(2)``;
adding the radius change gives the deformation bound

    sqrt(2) * max_side_delta + |r' - r|  <  slack   =>   no side flips.

A band candidate forces ``slack = 0`` — its exact verdict depends on
the actual positions, so any position change must revalidate it, and
the strict inequality then always reports a miss.

The pairs are decided with the guarded tests of the one-shot kernel
:func:`repro.core.pruning.classify_span` (the kernel itself when a
subscription scores the fleet, :func:`guarded_split` on
:func:`mbr_distances` when a round's crossing objects are recomputed
together) and the margins are measured to those guarded boundaries
(:func:`split_margins`, :func:`margins_span`), so a maintained verdict
is always one the one-shot engine would also reach.
The one maintainer built on these functions is
:class:`repro.engine.subscriptions.SubscriptionEngine`, which keeps the
slacks in columnar per-object arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core.pruning import CLASSIFY_GUARD

#: the guarded boundaries of :func:`repro.core.pruning.classify_span`
#: as distance ratios: a pair is IA only if ``maxDist <= r·sqrt(1 − g)``
#: and NIB-pruned only if ``minDist > r·sqrt(1 + g)``
_IA_RATIO = float(np.sqrt(1.0 - CLASSIFY_GUARD))
_OUT_RATIO = float(np.sqrt(1.0 + CLASSIFY_GUARD))


def mbr_distances(
    mbrs: np.ndarray, xy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(t, m)`` ``minDist``/``maxDist`` of MBR rows against points.

    ``mbrs`` is ``(t, 4)`` rows ``(min_x, min_y, max_x, max_y)`` and
    ``xy`` is ``(m, 2)``.  Row ``i`` is exactly
    ``MBR(*mbrs[i]).min_dist_many(xy)`` and ``.max_dist_many(xy)``:
    the same ``np.hypot`` arithmetic, broadcast over the MBR rows.
    """
    x = xy[:, 0]
    y = xy[:, 1]
    min_x = mbrs[:, 0][:, None]
    min_y = mbrs[:, 1][:, None]
    max_x = mbrs[:, 2][:, None]
    max_y = mbrs[:, 3][:, None]
    dx = np.maximum(np.maximum(min_x - x, 0.0), x - max_x)
    dy = np.maximum(np.maximum(min_y - y, 0.0), y - max_y)
    min_d = np.hypot(dx, dy)
    dx = np.maximum(np.abs(x - min_x), np.abs(x - max_x))
    dy = np.maximum(np.abs(y - min_y), np.abs(y - max_y))
    return min_d, np.hypot(dx, dy)


def guarded_split(
    min_d: np.ndarray, max_d: np.ndarray, radius
) -> tuple[np.ndarray, np.ndarray]:
    """The guarded IA/band split of ``sqrt``-form min/max distances.

    A pair is ``IA`` iff ``maxDist <= a·r`` and band iff not ``IA`` and
    ``minDist <= b·r``, with ``a = sqrt(1 − g)`` and ``b = sqrt(1 + g)``
    for the guard band ``g`` of :func:`repro.core.pruning.classify_span`.
    These are the kernel's squared tests up to a few ulps of rounding,
    far inside ``g``: a pair the two forms split differently sits on a
    guarded boundary, where the verdict of either side is the exact
    answer.
    """
    ia = max_d <= radius * _IA_RATIO
    band = ~ia & (min_d <= radius * _OUT_RATIO)
    return ia, band


def split_margins(
    min_d: np.ndarray,
    max_d: np.ndarray,
    radius,
    ia: np.ndarray,
    band: np.ndarray,
) -> np.ndarray:
    """Distance-to-flip margins of a guarded IA/band split.

    ``min_d``/``max_d`` are the pairs' min/max distances, ``radius``
    broadcasts against them, and ``ia``/``band`` are the split the
    caller acted on (:func:`repro.core.pruning.classify_span` or
    :func:`guarded_split`).  The margins are measured to the guarded
    boundaries (ratios ``a``, ``b`` as in :func:`guarded_split`):
    ``IA`` pairs get ``a·r − maxDist``, NIB-pruned pairs
    ``minDist / b − r`` and band pairs ``0``.

    Say the MBR sides then move by at most ``d`` and the radius to
    ``r'``, with ``sqrt(2)·d + |r' − r|`` under the margin.  An ``IA``
    pair keeps ``maxDist' < a·r − |r' − r| <= a·r'``.  A pruned pair
    keeps ``minDist' > minDist − margin + |r' − r|``, which is at least
    ``b·(r + |r' − r|) >= b·r'`` because ``minDist / b >= r + |r' − r|``.
    Either way the pair stays outside the guard band, so the verdict
    the split proved still holds.  A margin measured to ``r`` itself
    would let the pair drift into the band, where only exact
    validation may decide it because ``r`` carries rounding.
    """
    margins = min_d / _OUT_RATIO - radius
    np.subtract(radius * _IA_RATIO, max_d, out=margins, where=ia)
    margins[band] = 0.0
    return margins


def margins_span(
    mbrs: np.ndarray,
    radii: np.ndarray,
    cand_xy: np.ndarray,
    ia: np.ndarray,
    band: np.ndarray,
) -> np.ndarray:
    """Vectorised ``(r, m)`` :func:`split_margins` for a block of objects.

    ``mbrs`` is ``(r, 4)`` rows ``(min_x, min_y, max_x, max_y)``,
    ``radii`` ``(r,)`` and ``cand_xy`` ``(m, 2)`` — the same columnar
    layout as :func:`repro.core.pruning.classify_span` — and
    ``ia``/``band`` are that kernel's ``(r, m)`` split of the block.
    """
    x = cand_xy[:, 0][None, :]
    y = cand_xy[:, 1][None, :]
    min_x = mbrs[:, 0][:, None]
    min_y = mbrs[:, 1][:, None]
    max_x = mbrs[:, 2][:, None]
    max_y = mbrs[:, 3][:, None]
    dx = np.maximum(np.maximum(min_x - x, 0.0), x - max_x)
    dy = np.maximum(np.maximum(min_y - y, 0.0), y - max_y)
    min_d = np.sqrt(dx * dx + dy * dy)
    dx = np.maximum(np.abs(x - min_x), np.abs(x - max_x))
    dy = np.maximum(np.abs(y - min_y), np.abs(y - max_y))
    max_d = np.sqrt(dx * dx + dy * dy)
    return split_margins(min_d, max_d, radii[:, None], ia, band)
