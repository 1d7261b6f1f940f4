"""Compose a PRIME-LS scene (objects, regions, candidates) into SVG."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.core.object_table import ObjectTable
from repro.geo.mbr import MBR
from repro.geo.regions import InfluenceArcsRegion, NonInfluenceBoundary
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction
from repro.viz.svg import SVGCanvas

#: a small qualitative palette for per-object colouring
PALETTE = ["#1b6ca8", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b", "#008b8b"]


def render_scene(
    objects: Sequence[MovingObject],
    candidates: Sequence[Candidate],
    pf: ProbabilityFunction,
    tau: float,
    best: Candidate | None = None,
    show_regions: bool = True,
    width_px: int = 800,
) -> str:
    """Render objects, their IA/NIB regions and candidates to SVG text.

    Mirrors the paper's illustrative figures: position dots and the
    activity MBR per object, the influence-arcs region (solid) and
    non-influence boundary (dashed) when ``show_regions`` is set, every
    candidate as a grey dot, and the selected optimum as a red X.
    """
    if not objects:
        raise ValueError("need at least one object to render")
    table = ObjectTable(objects, pf, tau)
    rows = [
        (MBR(*mbr), radius)
        for mbr, radius in zip(table.mbrs.tolist(), table.radii.tolist())
    ]

    # Viewport: bound everything we are going to draw.
    min_x = min(o.mbr.min_x for o in objects)
    min_y = min(o.mbr.min_y for o in objects)
    max_x = max(o.mbr.max_x for o in objects)
    max_y = max(o.mbr.max_y for o in objects)
    if show_regions:
        for mbr, radius in rows:
            bbox = mbr.expanded(radius)
            min_x = min(min_x, bbox.min_x)
            min_y = min(min_y, bbox.min_y)
            max_x = max(max_x, bbox.max_x)
            max_y = max(max_y, bbox.max_y)
    for cand in candidates:
        min_x = min(min_x, cand.x)
        min_y = min(min_y, cand.y)
        max_x = max(max_x, cand.x)
        max_y = max(max_y, cand.y)
    pad = 0.03 * max(max_x - min_x, max_y - min_y, 1e-6)
    canvas = SVGCanvas(
        min_x - pad, min_y - pad, max_x + pad, max_y + pad, width_px=width_px
    )

    for k, (mbr, radius) in enumerate(rows):
        color = PALETTE[k % len(PALETTE)]
        for x, y in table.positions(k):
            canvas.circle(float(x), float(y), 2.5, fill=color, opacity=0.8)
        canvas.rect(*mbr.as_tuple(), stroke=color, stroke_width=1.0)
        if show_regions:
            ia_boundary = InfluenceArcsRegion(mbr, radius).boundary()
            if ia_boundary.size:
                canvas.polyline(
                    ia_boundary, stroke=color, stroke_width=1.2, closed=True
                )
            canvas.polyline(
                NonInfluenceBoundary(mbr, radius).boundary(),
                stroke=color, stroke_width=1.0, closed=True, dash="5,4",
            )

    for cand in candidates:
        canvas.circle(cand.x, cand.y, 3.0, fill="#666666")
    if best is not None:
        canvas.marker(best.x, best.y, size_px=12, color="red")
        canvas.text(best.x, best.y, "  optimal", size_px=13, color="red")
    return canvas.render()


def save_scene(path: str | Path, svg_text: str) -> Path:
    """Write rendered SVG text to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(svg_text)
    return path
