"""Tests for the A2D object table (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.object_table import ObjectEntry, ObjectTable
from repro.core.minmax_radius import min_max_radius
from repro.model import MovingObject
from repro.prob import LinearPF, PowerLawPF

from tests.helpers import make_objects


class TestObjectTable:
    def test_entries_carry_radius_and_mbr(self, pf, rng):
        objects = make_objects(rng, 10)
        table = ObjectTable(objects, pf, 0.7)
        assert table.live_count == 10
        for entry, obj in zip(table.entries, objects):
            assert entry.obj is obj
            assert entry.mbr == obj.mbr
            assert entry.radius == pytest.approx(
                min_max_radius(pf, 0.7, obj.n_positions)
            )

    def test_radius_cache_shared(self, pf, rng):
        # Many objects with the same n: only one radius computation.
        objects = [
            MovingObject(i, rng.uniform(0, 10, size=(12, 2))) for i in range(30)
        ]
        table = ObjectTable(objects, pf, 0.7)
        assert len(table.radius_cache) == 1

    def test_dead_objects_excluded(self):
        # rho=0.5 linear PF: 1-position objects cannot reach tau=0.7.
        pf = LinearPF(rho=0.5, scale=10.0)
        rng = np.random.default_rng(0)
        objects = [
            MovingObject(0, rng.uniform(0, 5, size=(1, 2))),   # dead
            MovingObject(1, rng.uniform(0, 5, size=(30, 2))),  # live
        ]
        table = ObjectTable(objects, pf, 0.7)
        assert table.dead_objects == 1
        assert table.live_count == 1
        assert table.entries[0].obj.object_id == 1

    def test_iteration_and_len(self, pf, rng):
        objects = make_objects(rng, 5)
        table = ObjectTable(objects, pf, 0.5)
        assert len(table) == 5
        assert [e.obj.object_id for e in table] == [0, 1, 2, 3, 4]


class TestObjectEntry:
    def test_regions_derived_from_radius(self, pf, rng):
        obj = MovingObject(0, rng.uniform(0, 10, size=(20, 2)))
        radius = min_max_radius(pf, 0.7, 20)
        entry = ObjectEntry(obj, radius, obj.mbr)
        assert entry.ia.radius == radius
        assert entry.nib.radius == radius
        assert entry.nib_bbox == obj.mbr.expanded(radius)

    def test_nib_bbox_bounds_nib_region(self, pf, rng):
        obj = MovingObject(0, rng.uniform(0, 10, size=(8, 2)))
        radius = min_max_radius(pf, 0.5, 8)
        entry = ObjectEntry(obj, radius, obj.mbr)
        pts = rng.uniform(-30, 40, size=(200, 2))
        inside_nib = entry.nib.contains_many(pts)
        bbox = entry.nib_bbox
        for i in range(200):
            if inside_nib[i]:
                assert bbox.contains_point(*pts[i])


class TestPowerLawNeverDead:
    def test_powerlaw_objects_always_live(self, rng):
        # PowerLawPF has unbounded support and PF(0)=0.9 > any
        # per-position requirement for tau <= 0.9.
        pf = PowerLawPF()
        objects = make_objects(rng, 20, n_range=(1, 5))
        table = ObjectTable(objects, pf, 0.89)
        assert table.dead_objects == 0


class TestColumnarCaching:
    """Table-cached columnar arrays and the lazy rebuild path."""

    def test_to_columnar_is_memoised(self, pf, rng):
        table = ObjectTable(make_objects(rng, 8), pf, 0.7)
        assert table.to_columnar() is table.to_columnar()

    def test_mbr_radius_arrays_match_entries(self, pf, rng):
        table = ObjectTable(make_objects(rng, 12), pf, 0.7)
        mbrs, radii = table.mbr_radius_arrays()
        assert mbrs.shape == (12, 4)
        for i, e in enumerate(table.entries):
            assert tuple(mbrs[i]) == e.mbr.as_tuple()
            assert radii[i] == e.radius
        # Cached: same arrays every call, also after to_columnar().
        assert table.mbr_radius_arrays()[0] is mbrs
        cols = table.to_columnar()
        np.testing.assert_array_equal(cols.mbrs, mbrs)

    def test_positions_offsets_cover_entries(self, pf, rng):
        table = ObjectTable(make_objects(rng, 9, n_range=(1, 7)), pf, 0.7)
        xy, offsets = table.positions_offsets()
        # One C-contiguous block whose rows are the x and y columns.
        assert xy.dtype == np.float64
        assert xy.shape == (2, offsets[-1])
        assert xy.flags.c_contiguous
        cols = table.to_columnar()
        for i, e in enumerate(table.entries):
            np.testing.assert_array_equal(
                xy[:, offsets[i] : offsets[i + 1]].T, e.obj.positions
            )
            view = cols.object_positions(i)
            np.testing.assert_array_equal(view, e.obj.positions)
            assert np.shares_memory(view, xy)

    def test_from_columnar_defers_entry_materialisation(self, pf, rng):
        table = ObjectTable(make_objects(rng, 10, n_range=(1, 6)), pf, 0.7)
        rebuilt = ObjectTable.from_columnar(table.to_columnar(), pf, 0.7)
        assert not rebuilt.entries_materialised
        # The columnar accessors must not wake the wrappers either.
        assert rebuilt.live_count == table.live_count
        assert len(rebuilt) == len(table)
        rebuilt.mbr_radius_arrays()
        rebuilt.positions_offsets()
        assert rebuilt.to_columnar() is table.to_columnar()
        assert not rebuilt.entries_materialised
        # Touching .entries materialises zero-copy views, bit-identical.
        for got, want in zip(rebuilt.entries, table.entries):
            assert got.obj.object_id == want.obj.object_id
            assert got.radius == want.radius
            assert got.mbr == want.mbr
            np.testing.assert_array_equal(
                got.obj.positions, want.obj.positions
            )
        assert rebuilt.entries_materialised

    def test_from_columnar_radius_cache_is_lazy(self, pf, rng):
        table = ObjectTable(make_objects(rng, 4), pf, 0.7)
        rebuilt = ObjectTable.from_columnar(table.to_columnar(), pf, 0.7)
        assert rebuilt._radius_cache is None
        assert rebuilt.radius_cache is not None

    def test_empty_table_columnar_roundtrip(self, pf):
        table = ObjectTable([], pf, 0.7)
        mbrs, radii = table.mbr_radius_arrays()
        assert mbrs.shape == (0, 4) and radii.shape == (0,)
        rebuilt = ObjectTable.from_columnar(table.to_columnar(), pf, 0.7)
        assert rebuilt.live_count == 0
        assert rebuilt.entries == []
