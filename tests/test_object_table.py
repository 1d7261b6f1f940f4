"""Tests for the A2D object table (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import minmax_radius as minmax_radius_module
from repro.core.object_table import ObjectTable, fleet_to_columnar
from repro.core.minmax_radius import min_max_radius
from repro.model import MovingObject
from repro.prob import PowerLawPF

from tests.helpers import DEAD_ROWS_PF, dead_row_fleet, make_objects


def assert_rows_are(table, objects, pf, tau):
    """Row ``i`` of the table's export is ``objects[i]``: id, MBR row,
    radius and positions, with offsets covering exactly its positions."""
    cols = table.to_columnar()
    mbrs, radii = table.mbr_radius_arrays()
    assert table.live_count == cols.count == len(objects)
    assert cols.offsets[0] == 0
    for i, obj in enumerate(objects):
        assert cols.object_ids[i] == obj.object_id
        assert tuple(mbrs[i]) == obj.mbr.as_tuple()
        assert radii[i] == min_max_radius(pf, tau, obj.n_positions)
        assert cols.offsets[i + 1] - cols.offsets[i] == obj.n_positions
        np.testing.assert_array_equal(cols.object_positions(i), obj.positions)


class TestObjectTable:
    def test_entries_carry_radius_and_mbr(self, pf, rng):
        objects = make_objects(rng, 10)
        table = ObjectTable(objects, pf, 0.7)
        assert table.live_count == 10
        assert_rows_are(table, objects, pf, 0.7)

    def test_radius_cache_shared(self, pf, rng, monkeypatch):
        # Many objects with the same n: only one radius computation.
        calls = []

        def counting(pf, tau, n):
            calls.append(n)
            return min_max_radius(pf, tau, n)

        monkeypatch.setattr(minmax_radius_module, "min_max_radius", counting)
        objects = [
            MovingObject(i, rng.uniform(0, 10, size=(12, 2))) for i in range(30)
        ]
        table = ObjectTable(objects, pf, 0.7)
        assert calls == [12]
        assert table.live_count == 30

    @pytest.mark.parametrize("dead_at", ["first", "middle", "last"])
    def test_dead_objects_excluded(self, dead_at):
        fleet, live = dead_row_fleet(dead_at)
        table = ObjectTable(fleet, DEAD_ROWS_PF, 0.7)
        assert table.dead_objects == table.to_columnar().dead_objects == 2
        assert_rows_are(table, live, DEAD_ROWS_PF, 0.7)
        # The position block holds the live objects' positions only.
        assert table.to_columnar().offsets.tolist() == [0, 30, 34, 51]

    def test_iteration_and_len(self, pf, rng):
        objects = make_objects(rng, 5)
        table = ObjectTable(objects, pf, 0.5)
        assert len(table) == 5
        assert table.to_columnar().object_ids.tolist() == [0, 1, 2, 3, 4]


class TestPowerLawNeverDead:
    def test_powerlaw_objects_always_live(self, rng):
        # PowerLawPF has unbounded support and PF(0)=0.9 > any
        # per-position requirement for tau <= 0.9.
        pf = PowerLawPF()
        objects = make_objects(rng, 20, n_range=(1, 5))
        table = ObjectTable(objects, pf, 0.89)
        assert table.dead_objects == 0


class TestColumnarCaching:
    """The table's one columnar export and the wrap of an export."""

    def test_to_columnar_is_memoised(self, pf, rng):
        table = ObjectTable(make_objects(rng, 8), pf, 0.7)
        assert table.to_columnar() is table.to_columnar()

    def test_mbr_radius_arrays_match_entries(self, pf, rng):
        objects = make_objects(rng, 12)
        table = ObjectTable(objects, pf, 0.7)
        mbrs, radii = table.mbr_radius_arrays()
        assert mbrs.shape == (12, 4)
        assert radii.shape == (12,)
        for i, obj in enumerate(objects):
            assert tuple(mbrs[i]) == obj.mbr.as_tuple()
            assert radii[i] == min_max_radius(pf, 0.7, obj.n_positions)
        # The same arrays every call: rows of the one export.
        assert table.mbr_radius_arrays()[0] is mbrs
        cols = table.to_columnar()
        assert cols.mbrs is mbrs and cols.radii is radii

    def test_positions_offsets_cover_entries(self, pf, rng):
        objects = make_objects(rng, 9, n_range=(1, 7))
        table = ObjectTable(objects, pf, 0.7)
        xy, offsets = table.positions_offsets()
        # One C-contiguous block whose rows are the x and y columns.
        assert xy.dtype == np.float64
        assert offsets.dtype == np.int64
        assert xy.shape == (2, offsets[-1])
        assert xy.flags.c_contiguous
        cols = table.to_columnar()
        for i, obj in enumerate(objects):
            np.testing.assert_array_equal(
                xy[:, offsets[i] : offsets[i + 1]].T, obj.positions
            )
            view = cols.object_positions(i)
            np.testing.assert_array_equal(view, obj.positions)
            assert np.shares_memory(view, xy)

    def test_from_columnar_defers_entry_materialisation(self, pf, rng):
        objects = make_objects(rng, 10, n_range=(1, 6))
        table = ObjectTable(objects, pf, 0.7)
        rebuilt = ObjectTable.from_columnar(table.to_columnar(), pf, 0.7)
        # A wrap, not a copy: every accessor reads the same export.
        assert rebuilt.to_columnar() is table.to_columnar()
        assert rebuilt.live_count == table.live_count
        assert len(rebuilt) == len(table)
        assert rebuilt.dead_objects == table.dead_objects
        assert rebuilt.mbr_radius_arrays()[0] is table.mbr_radius_arrays()[0]
        assert rebuilt.positions_offsets()[0] is table.positions_offsets()[0]
        assert_rows_are(rebuilt, objects, pf, 0.7)

    def test_from_columnar_radius_cache_is_lazy(self, pf, rng, monkeypatch):
        table = ObjectTable(make_objects(rng, 4), pf, 0.7)

        def forbidden(*args):
            raise AssertionError("from_columnar recomputed a radius")

        monkeypatch.setattr(minmax_radius_module, "min_max_radius", forbidden)
        rebuilt = ObjectTable.from_columnar(table.to_columnar(), pf, 0.7)
        assert rebuilt.mbr_radius_arrays()[1] is table.mbr_radius_arrays()[1]

    def test_from_columnar_rejects_a_fleet_export(self, pf, rng):
        fleet = fleet_to_columnar(make_objects(rng, 3))
        with pytest.raises(ValueError, match="fleet export"):
            ObjectTable.from_columnar(fleet, pf, 0.7)

    def test_empty_table_columnar_roundtrip(self, pf):
        table = ObjectTable([], pf, 0.7)
        mbrs, radii = table.mbr_radius_arrays()
        assert mbrs.shape == (0, 4) and radii.shape == (0,)
        rebuilt = ObjectTable.from_columnar(table.to_columnar(), pf, 0.7)
        assert rebuilt.live_count == 0
        xy, offsets = rebuilt.positions_offsets()
        assert xy.shape == (2, 0) and offsets.tolist() == [0]
