"""Tests for the A2D object table (Algorithm 1)."""

import numpy as np
import pytest

from repro import QueryEngine
from repro.core import minmax_radius as minmax_radius_module
from repro.core.object_table import ObjectTable, export_fleet
from repro.core.minmax_radius import min_max_radius
from repro.model import MovingObject
from repro.prob import PowerLawPF

from tests.helpers import DEAD_ROWS_PF, dead_row_fleet, make_objects


def assert_rows_are(table, objects, pf, tau):
    """Table row ``i`` is ``objects[i]``: id, MBR row, radius and
    positions, read through its fleet row."""
    fleet = table.fleet
    mbrs, radii = table.mbr_radius_arrays()
    assert table.live_count == table.rows.size == len(objects)
    assert np.all(np.diff(table.rows) > 0), "fleet rows ascend"
    for i, obj in enumerate(objects):
        row = table.rows[i]
        assert fleet.object_ids[row] == obj.object_id
        assert tuple(mbrs[i]) == obj.mbr.as_tuple()
        assert radii[i] == min_max_radius(pf, tau, obj.n_positions)
        assert fleet.offsets[row + 1] - fleet.offsets[row] == obj.n_positions
        np.testing.assert_array_equal(table.positions(i), obj.positions)


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
        assert table.dead_objects == 2
        assert_rows_are(table, live, DEAD_ROWS_PF, 0.7)
        assert table.rows.tolist() == {
            "first": [2, 3, 4], "middle": [0, 3, 4], "last": [0, 1, 2],
        }[dead_at]
        # The fleet export keeps every object; the table only skips rows.
        assert table.fleet.count == 5

    def test_iteration_and_len(self, pf, rng):
        objects = make_objects(rng, 5)
        table = ObjectTable(objects, pf, 0.5)
        assert len(table) == 5
        ids = table.fleet.object_ids[table.rows]
        assert ids.tolist() == [0, 1, 2, 3, 4]


class TestPowerLawNeverDead:
    def test_powerlaw_objects_always_live(self, rng):
        # PowerLawPF has unbounded support and PF(0)=0.9 > any
        # per-position requirement for tau <= 0.9.
        pf = PowerLawPF()
        objects = make_objects(rng, 20, n_range=(1, 5))
        table = ObjectTable(objects, pf, 0.89)
        assert table.dead_objects == 0


class TestColumnarCaching:
    """The fleet's one columnar export and the radius columns over it."""

    def test_tables_share_one_fleet_export(self, rng):
        objects = make_objects(rng, 12, n_range=(1, 9))
        engine = QueryEngine(objects)
        tables = [
            engine.table_for(pf, tau)
            for pf in (PowerLawPF(), DEAD_ROWS_PF)
            for tau in (0.5, 0.7)
        ]
        for table in tables:
            assert table.fleet is engine.fleet
            # A table holds its rows, radii and MBRs, and no positions.
            arrays = {
                name for name, value in vars(table).items()
                if isinstance(value, np.ndarray)
            }
            assert arrays == {"rows", "radii", "mbrs"}
            assert np.shares_memory(table.positions(0), engine.fleet.xy)
        # The export covers the whole fleet, dead rows included.
        assert engine.fleet.count == len(objects)
        assert engine.table_for(PowerLawPF(), 0.5) is tables[0]

    def test_mbr_radius_arrays_match_entries(self, pf, rng):
        objects = make_objects(rng, 12)
        table = ObjectTable(objects, pf, 0.7)
        mbrs, radii = table.mbr_radius_arrays()
        assert mbrs.shape == (12, 4)
        assert radii.shape == (12,)
        for i, obj in enumerate(objects):
            assert tuple(mbrs[i]) == obj.mbr.as_tuple()
            assert radii[i] == min_max_radius(pf, 0.7, obj.n_positions)
        # The same arrays every call: the table's own columns.
        assert table.mbr_radius_arrays()[0] is mbrs
        assert table.mbrs is mbrs and table.radii is radii

    def test_positions_offsets_cover_entries(self, pf, rng):
        objects = make_objects(rng, 9, n_range=(1, 7))
        table = ObjectTable(objects, pf, 0.7)
        xy, offsets = table.fleet.xy, table.fleet.offsets
        # One C-contiguous block whose rows are the x and y columns.
        assert xy.dtype == np.float64
        assert offsets.dtype == np.int64
        assert xy.shape == (2, offsets[-1])
        assert xy.flags.c_contiguous
        for i, obj in enumerate(objects):
            np.testing.assert_array_equal(
                xy[:, offsets[i] : offsets[i + 1]].T, obj.positions
            )
            view = table.positions(i)
            np.testing.assert_array_equal(view, obj.positions)
            assert np.shares_memory(view, xy)

    def test_empty_table_columnar_roundtrip(self, pf):
        fleet = export_fleet([])
        assert fleet.xy.shape == (2, 0) and fleet.offsets.tolist() == [0]
        table = ObjectTable(fleet, pf, 0.7)
        mbrs, radii = table.mbr_radius_arrays()
        assert mbrs.shape == (0, 4) and radii.shape == (0,)
        assert table.live_count == 0 and table.dead_objects == 0
        assert table.fleet is fleet
