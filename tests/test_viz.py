"""Tests for the SVG visualisation module."""

import xml.etree.ElementTree as ET

import pytest

from repro.viz import SVGCanvas, render_scene
from repro.viz.scene import save_scene

from tests.helpers import make_candidates, make_objects

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    return ET.fromstring(svg_text)


class TestSVGCanvas:
    def test_viewport_validation(self):
        with pytest.raises(ValueError):
            SVGCanvas(0, 0, 0, 10)
        with pytest.raises(ValueError):
            SVGCanvas(0, 0, 10, 10, width_px=10, margin_px=20)

    def test_world_to_pixel_orientation(self):
        canvas = SVGCanvas(0, 0, 10, 10, width_px=120, margin_px=10)
        x0, y0 = canvas.to_px(0, 0)
        x1, y1 = canvas.to_px(10, 10)
        assert x1 > x0
        assert y1 < y0  # y grows upward in world coords, downward in SVG

    def test_render_is_valid_xml(self):
        canvas = SVGCanvas(0, 0, 5, 5)
        canvas.circle(1, 1, 3)
        canvas.rect(0, 0, 2, 2)
        canvas.polyline([(0, 0), (1, 1), (2, 0)], closed=True)
        canvas.marker(3, 3)
        canvas.text(4, 4, "label & more")
        root = parse(canvas.render())
        tags = [child.tag for child in root]
        assert f"{SVG_NS}circle" in tags
        assert f"{SVG_NS}rect" in tags
        assert f"{SVG_NS}polygon" in tags

    def test_text_is_escaped(self):
        canvas = SVGCanvas(0, 0, 1, 1)
        canvas.text(0.5, 0.5, "<script>")
        root = parse(canvas.render())  # must not raise
        texts = [el.text for el in root.iter(f"{SVG_NS}text")]
        assert "<script>" in texts

    def test_save(self, tmp_path):
        canvas = SVGCanvas(0, 0, 1, 1)
        canvas.circle(0.5, 0.5, 2)
        out = canvas.save(tmp_path / "plot.svg")
        assert out.exists()
        parse(out.read_text())


class TestRenderScene:
    def test_scene_contains_all_layers(self, pf, rng):
        objects = make_objects(rng, 3, extent=10.0, n_range=(5, 10))
        candidates = make_candidates(rng, 6, extent=10.0)
        svg = render_scene(objects, candidates, pf, 0.7, best=candidates[0])
        root = parse(svg)
        circles = list(root.iter(f"{SVG_NS}circle"))
        rects = list(root.iter(f"{SVG_NS}rect"))
        polygons = list(root.iter(f"{SVG_NS}polygon"))
        # positions + candidates as circles; one MBR rect per object
        # (+ background); NIB polygons (+ IA when non-empty).
        total_positions = sum(o.n_positions for o in objects)
        assert len(circles) == total_positions + len(candidates)
        assert len(rects) >= len(objects)
        assert len(polygons) >= len(objects)

    def test_scene_without_regions(self, pf, rng):
        objects = make_objects(rng, 2, extent=5.0)
        candidates = make_candidates(rng, 3, extent=5.0)
        svg = render_scene(objects, candidates, pf, 0.7, show_regions=False)
        root = parse(svg)
        assert not list(root.iter(f"{SVG_NS}polygon"))

    def test_empty_objects_raise(self, pf, rng):
        with pytest.raises(ValueError):
            render_scene([], make_candidates(rng, 2), pf, 0.5)

    def test_save_scene(self, pf, rng, tmp_path):
        objects = make_objects(rng, 2, extent=5.0)
        candidates = make_candidates(rng, 3, extent=5.0)
        svg = render_scene(objects, candidates, pf, 0.7)
        out = save_scene(tmp_path / "scene.svg", svg)
        assert out.exists()
        assert out.read_text().startswith("<svg")

    def test_scene_dead_objects_tolerated(self, rng):
        # Objects uninfluenceable at this tau simply render no regions.
        from repro.prob import LinearPF

        pf = LinearPF(rho=0.5, scale=10.0)
        objects = make_objects(rng, 2, extent=5.0, n_range=(1, 1))
        candidates = make_candidates(rng, 2, extent=5.0)
        svg = render_scene(objects, candidates, pf, 0.9)
        parse(svg)

    def test_scene_with_zero_radius_object(self, rng):
        # PF^-1(0.5) = 0 under this PF: a 1-position object's radius is
        # exactly 0, and its influence-arcs region is the point itself.
        from repro.prob import LinearPF

        pf = LinearPF(rho=0.5, scale=10.0)
        objects = make_objects(rng, 2, extent=5.0, n_range=(1, 1))
        candidates = make_candidates(rng, 2, extent=5.0)
        svg = render_scene(objects, candidates, pf, 0.5)
        polygons = parse(svg).findall(f".//{SVG_NS}polygon")
        assert len(polygons) == 2 * len(objects)  # IA point + NIB each
