"""Tests for candidate classification (IA / band / NIB split)."""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pinocchio_vo
from repro.core.base import candidates_to_array
from repro.core.naive import NaiveAlgorithm
from repro.core.object_table import ObjectTable
from repro.core.pinocchio import Pinocchio
from repro.core.pinocchio_vo import PinocchioVO
from repro.core.pruning import (
    CLASSIFY_CHUNK,
    classify_candidates,
    classify_chunk,
    classify_span,
    classify_table_chunks,
    nib_boxes,
)
from repro.core.result import Instrumentation
from repro.core.sketch import InfluenceSketch
from repro.engine.pool import _attach_columnar, _pack_segment
from repro.index import RTree
from repro.model import MovingObject
from repro.prob import LogsigPF, PowerLawPF

from tests.helpers import (
    SHIPPED_PFS,
    boundary_placements,
    make_candidates,
    make_objects,
)


def brute_split(entry, cand_xy):
    """The three-way split computed straight from the definitions."""
    certain, maybe, pruned = [], [], []
    for j, (x, y) in enumerate(cand_xy):
        if entry.mbr.max_dist(x, y) <= entry.radius:
            certain.append(j)
        elif entry.mbr.min_dist(x, y) > entry.radius:
            pruned.append(j)
        else:
            maybe.append(j)
    return certain, maybe, pruned


@pytest.fixture()
def table_and_candidates(pf, rng):
    objects = make_objects(rng, 15, extent=50.0, n_range=(1, 30))
    candidates = make_candidates(rng, 80, extent=50.0)
    cand_xy = np.array([(c.x, c.y) for c in candidates])
    table = ObjectTable(objects, pf, 0.7)
    return table, cand_xy


class TestClassifyCandidates:
    def test_matches_brute_force_with_rtree(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        rtree = RTree.bulk_load(cand_xy)
        for entry in table:
            outcome = classify_candidates(entry, cand_xy, rtree)
            certain, maybe, pruned = brute_split(entry, cand_xy)
            assert sorted(outcome.certain.tolist()) == certain
            assert sorted(outcome.maybe.tolist()) == maybe
            assert outcome.pruned_nib == len(pruned)

    def test_matches_brute_force_without_rtree(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        for entry in table:
            outcome = classify_candidates(entry, cand_xy, None)
            certain, maybe, pruned = brute_split(entry, cand_xy)
            assert sorted(outcome.certain.tolist()) == certain
            assert sorted(outcome.maybe.tolist()) == maybe
            assert outcome.pruned_nib == len(pruned)

    def test_partition_is_complete(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        m = cand_xy.shape[0]
        rtree = RTree.bulk_load(cand_xy)
        for entry in table:
            outcome = classify_candidates(entry, cand_xy, rtree)
            assert (
                outcome.certain.size + outcome.maybe.size + outcome.pruned_nib == m
            )
            overlap = set(outcome.certain.tolist()) & set(outcome.maybe.tolist())
            assert not overlap


class TestClassifyChunk:
    def test_matches_per_object_classification(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        ia, band = classify_chunk(table.entries, cand_xy)
        for i, entry in enumerate(table.entries):
            certain, maybe, _ = brute_split(entry, cand_xy)
            assert sorted(np.nonzero(ia[i])[0].tolist()) == certain
            assert sorted(np.nonzero(band[i])[0].tolist()) == maybe

    def test_ia_and_band_disjoint(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        ia, band = classify_chunk(table.entries, cand_xy)
        assert not np.any(ia & band)

    def test_chunks_cover_all_entries(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        seen = []
        for rows, cols, ia, band in classify_table_chunks(
            table, cand_xy, chunk_size=4
        ):
            assert 0 < rows.size <= 4
            assert ia.shape == (rows.size, cols.size)
            assert band.shape == ia.shape
            seen.extend(rows.tolist())
        assert sorted(seen) == list(range(len(table.entries)))

    def test_chunking_invariant_to_chunk_size(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        full_ia, full_band = classify_chunk(table.entries, cand_xy)
        ia, band = scattered_table_chunks(table, cand_xy, chunk_size=3)
        np.testing.assert_array_equal(ia, full_ia)
        np.testing.assert_array_equal(band, full_band)


class TestChunkSizeValidation:
    """Regression: bad chunk sizes must fail loudly, not yield nothing.

    ``range(0, n, -k)`` is empty, so a negative ``chunk_size`` used to
    silently produce zero chunks — an all-zero influence table — and
    ``chunk_size=0`` raised a bare ``ValueError`` from ``range``.
    """

    @pytest.mark.parametrize("bad", [0, -1, -1024])
    def test_classify_table_chunks_rejects_bad_chunk_size(
        self, table_and_candidates, bad
    ):
        table, cand_xy = table_and_candidates
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            classify_table_chunks(table, cand_xy, chunk_size=bad)

    def test_rejects_eagerly_without_iteration(self, table_and_candidates):
        # The error must fire at the call site even if the caller never
        # consumes the generator.
        table, cand_xy = table_and_candidates
        with pytest.raises(ValueError):
            classify_table_chunks(table, cand_xy, chunk_size=-4)


def scattered_table_chunks(table, cand_xy, chunk_size=CLASSIFY_CHUNK):
    """Dense ``(live_count, m)`` matrices scattered from the blocked scan.

    Asserts the block shape contract on the way: every row is yielded
    exactly once and each block's ``cols`` are ascending and distinct.
    """
    count, m = table.live_count, cand_xy.shape[0]
    ia = np.zeros((count, m), dtype=bool)
    band = np.zeros((count, m), dtype=bool)
    seen = np.zeros(count, dtype=int)
    for rows, cols, block_ia, block_band in classify_table_chunks(
        table, cand_xy, chunk_size=chunk_size
    ):
        assert 0 < rows.size <= chunk_size
        assert np.all(np.diff(cols) > 0)
        assert block_ia.shape == block_band.shape == (rows.size, cols.size)
        seen[rows] += 1
        ia[np.ix_(rows, cols)] = block_ia
        band[np.ix_(rows, cols)] = block_band
    assert np.all(seen == 1)
    return ia, band


def dense_classification(table, cand_xy):
    """The dense reference: one :func:`classify_span` over every pair."""
    mbrs, radii = table.mbr_radius_arrays()
    return classify_span(mbrs, radii, cand_xy)


def dense_table_chunks(table, cand_xy, chunk_size=CLASSIFY_CHUNK):
    """A drop-in for :func:`classify_table_chunks` with one dense block."""
    ia, band = dense_classification(table, cand_xy)
    yield np.arange(table.live_count), np.arange(cand_xy.shape[0]), ia, band


def nudged(value, ulps):
    """``value`` moved ``ulps`` representable doubles up (or down)."""
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        value = np.nextafter(value, toward)
    return float(value)


PF = PowerLawPF(rho=0.9, lam=1.0)


@st.composite
def blocked_worlds(draw):
    """A table and a candidate array that stress the blocked scan.

    Every other object is degenerate (one position, a zero-area MBR);
    the fleet may be empty and the candidate set may be empty.  A
    clustered fleet puts a second cluster far from every candidate, so
    whole chunks see none.  Some candidates sit on an object's NIB
    boundary (``min_x − r``, ``max_y + r``, ...) or on its padded NIB
    box edge, each nudged by up to four ulps either way.
    """
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n_objects = draw(st.integers(0, 40))
    m = draw(st.integers(0, 40))
    tau = draw(st.sampled_from([0.5, 0.7, 0.9]))
    objects = make_objects(rng, n_objects, n_range=(1, 12))
    if draw(st.booleans()):
        far = np.array([500.0, -300.0])
        objects = [
            MovingObject(obj.object_id, obj.positions + far)
            if i % 3 == 0
            else obj
            for i, obj in enumerate(objects)
        ]
    objects = [
        MovingObject(obj.object_id, obj.positions[:1]) if i % 2 == 0 else obj
        for i, obj in enumerate(objects)
    ]
    table = ObjectTable(objects, PF, tau)
    cand_xy = rng.uniform(0.0, 30.0, size=(m, 2))
    edges = min(m, table.live_count, draw(st.integers(0, 12)))
    if edges:
        mbrs, radii = table.mbr_radius_arrays()
        rings = np.concatenate(
            [
                mbrs + radii[:, None] * np.array([-1.0, -1.0, 1.0, 1.0]),
                nib_boxes(mbrs, radii),
            ]
        )
        for k in range(edges):
            i = int(rng.integers(rings.shape[0]))
            side = int(rng.integers(4))
            ulps = draw(st.integers(-4, 4))
            axis = side % 2
            along = mbrs[i % table.live_count]
            cand_xy[k, axis] = nudged(rings[i, side], ulps)
            cand_xy[k, 1 - axis] = rng.uniform(
                along[1 - axis], along[3 - axis]
            )
    return table, cand_xy


class TestColumnarIdentity:
    """The blocked scan splits exactly like every dense and legacy path."""

    def test_classify_span_matches_classify_chunk(
        self, table_and_candidates
    ):
        table, cand_xy = table_and_candidates
        legacy_ia, legacy_band = classify_chunk(table.entries, cand_xy)
        mbrs, radii = table.mbr_radius_arrays()
        ia, band = classify_span(mbrs, radii, cand_xy)
        np.testing.assert_array_equal(ia, legacy_ia)
        np.testing.assert_array_equal(band, legacy_band)

    @settings(max_examples=60, deadline=None)
    @given(
        world=blocked_worlds(),
        chunk_size=st.sampled_from([1, 3, 33, CLASSIFY_CHUNK]),
    )
    def test_property_columnar_matches_rtree_and_legacy(
        self, world, chunk_size
    ):
        table, cand_xy = world
        m = cand_xy.shape[0]
        ia, band = scattered_table_chunks(table, cand_xy, chunk_size)
        assert not np.any(ia & band)

        dense_ia, dense_band = dense_classification(table, cand_xy)
        np.testing.assert_array_equal(ia, dense_ia)
        np.testing.assert_array_equal(band, dense_band)

        # Legacy entry-list kernel on the same entries.
        legacy_ia, legacy_band = classify_chunk(table.entries, cand_xy)
        shape = (table.live_count, m)
        np.testing.assert_array_equal(ia, legacy_ia.reshape(shape))
        np.testing.assert_array_equal(band, legacy_band.reshape(shape))

        # Per-object R-tree path.
        rtree = RTree.bulk_load(cand_xy)
        for i, entry in enumerate(table.entries):
            outcome = classify_candidates(entry, cand_xy, rtree)
            assert sorted(outcome.certain.tolist()) == np.flatnonzero(
                ia[i]
            ).tolist()
            assert sorted(outcome.maybe.tolist()) == np.flatnonzero(
                band[i]
            ).tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        world=blocked_worlds(),
        chunk_size=st.sampled_from([1, 3, 33, CLASSIFY_CHUNK]),
    )
    def test_property_pruning_phase_matches_dense_reference(
        self, world, chunk_size
    ):
        table, cand_xy = world
        m = cand_xy.shape[0]
        ia, band = dense_classification(table, cand_xy)
        blocked = functools.partial(
            classify_table_chunks, chunk_size=chunk_size
        )
        counters = Instrumentation()
        with mock.patch.object(
            pinocchio_vo, "classify_table_chunks", blocked
        ):
            min_inf, vs = PinocchioVO().pruning_phase(
                table, cand_xy, counters
            )
        np.testing.assert_array_equal(min_inf, ia.sum(axis=0))
        assert len(vs) == m
        for j in range(m):
            np.testing.assert_array_equal(vs[j], np.flatnonzero(band[:, j]))
        assert counters.pairs_pruned_ia == int(ia.sum())
        assert counters.pairs_pruned_nib == (
            table.live_count * m - int(ia.sum()) - int(band.sum())
        )


class TestBlockedScan:
    def test_pinvo_instrumentation_matches_dense_scan(self, monkeypatch):
        # Several chunks, clustered so some chunks see no candidate.
        rng = np.random.default_rng(11)
        objects = make_objects(rng, 2_500, extent=400.0, n_range=(1, 20))
        candidates = make_candidates(rng, 48, extent=150.0)
        blocked = PinocchioVO().select(objects, candidates, PF, 0.7)
        monkeypatch.setattr(
            pinocchio_vo, "classify_table_chunks", dense_table_chunks
        )
        dense = PinocchioVO().select(objects, candidates, PF, 0.7)
        assert blocked.best_candidate == dense.best_candidate
        assert blocked.best_influence == dense.best_influence
        assert blocked.influences == dense.influences
        timings = {"pruning_seconds", "validation_seconds"}
        got = dataclasses.asdict(blocked.instrumentation)
        want = dataclasses.asdict(dense.instrumentation)
        for key in timings:
            got.pop(key)
            want.pop(key)
        assert got == want
        assert got["pairs_pruned_nib"] > 0 and got["heap_pops"] > 0

    @pytest.mark.parametrize("n_objects", [1_000, 10_000])
    def test_scale_ladder_rungs_match_dense_scan(self, n_objects):
        # The scale ladder's fleet: 4-16 positions around uniform
        # anchors, on an extent growing with sqrt(n) so object density
        # stays constant.  At 10^4 objects the scan runs ten
        # default-size STR chunks.
        rng = np.random.default_rng(17)
        extent = 30.0 * np.sqrt(n_objects / 1_000)
        counts = rng.integers(4, 17, size=n_objects)
        anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
        positions = np.repeat(anchors, counts, axis=0) + rng.normal(
            0.0, 1.5, size=(int(counts.sum()), 2)
        )
        objects = [
            MovingObject(i, block)
            for i, block in enumerate(
                np.split(positions, np.cumsum(counts)[:-1])
            )
        ]
        table = ObjectTable(objects, PF, 0.7)
        cand_xy = np.random.default_rng(18).uniform(
            0.0, extent, size=(64, 2)
        )
        ia, band = scattered_table_chunks(table, cand_xy)
        dense_ia, dense_band = dense_classification(table, cand_xy)
        np.testing.assert_array_equal(ia, dense_ia)
        np.testing.assert_array_equal(band, dense_band)
        assert ia.any() and band.any()

    def test_empty_table_and_empty_candidate_set(self):
        objects = make_objects(np.random.default_rng(3), 5, n_range=(1, 4))
        # LogsigPF(rho=0.5) cannot reach tau = 0.9: every object is dead.
        dead = ObjectTable(objects, LogsigPF(), 0.9)
        assert dead.live_count == 0
        cand_xy = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert list(classify_table_chunks(dead, cand_xy)) == []
        min_inf, vs = PinocchioVO().pruning_phase(
            dead, cand_xy, Instrumentation()
        )
        assert min_inf.tolist() == [0, 0]
        assert [v.size for v in vs] == [0, 0]

        live = ObjectTable(objects, PF, 0.7)
        no_cands = np.empty((0, 2))
        ia, band = scattered_table_chunks(live, no_cands, chunk_size=2)
        assert ia.shape == band.shape == (live.live_count, 0)
        min_inf, vs = PinocchioVO().pruning_phase(
            live, no_cands, Instrumentation()
        )
        assert min_inf.size == 0 and vs == []

    def test_blocks_are_cached_on_the_table(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        list(classify_table_chunks(table, cand_xy, chunk_size=4))
        blocks = table.classify_blocks[4]
        list(classify_table_chunks(table, cand_xy[:5], chunk_size=4))
        assert table.classify_blocks[4] is blocks
        rebuilt = ObjectTable.from_columnar(
            table.to_columnar(), table.pf, table.tau
        )
        assert rebuilt.classify_blocks == {}
        ia, band = scattered_table_chunks(rebuilt, cand_xy, chunk_size=4)
        want_ia, want_band = dense_classification(table, cand_xy)
        np.testing.assert_array_equal(ia, want_ia)
        np.testing.assert_array_equal(band, want_band)
        assert not rebuilt.entries_materialised


class TestGuardBand:
    """Regression: pairs within rounding of ``minMaxRadius`` must be
    decided like NA.  Without the guard band the squared IA/NIB tests
    decided about one in ten of these placements against NA."""

    @pytest.mark.parametrize("tau", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("pf_name", sorted(SHIPPED_PFS))
    def test_boundary_placements_agree_with_na(self, pf_name, tau):
        pf = SHIPPED_PFS[pf_name]
        objects, candidates = boundary_placements(pf, tau, 400, seed=17)
        if not objects:
            pytest.skip(f"every object is dead for {pf_name} at tau={tau}")
        want = NaiveAlgorithm().select(objects, candidates, pf, tau)
        for use_rtree in (False, True):
            got = Pinocchio(use_rtree=use_rtree).select(
                objects, candidates, pf, tau
            )
            assert got.influences == want.influences, use_rtree
        for obj, cand in zip(objects, candidates):
            pair = NaiveAlgorithm().select([obj], [cand], pf, tau)
            for use_rtree in (False, True):
                got = PinocchioVO(use_rtree=use_rtree).select(
                    [obj], [cand], pf, tau
                )
                assert got.best_influence == pair.best_influence, use_rtree
        # The position block's other readers: PIN over a table rebuilt
        # from the pool's shared segment (the "pin" span path), and an
        # exhaustive sketch.
        cand_xy = candidates_to_array(candidates)
        expected = [want.influences[j] for j in range(len(candidates))]
        table = ObjectTable(objects, pf, tau)
        shm, meta = _pack_segment(table.to_columnar())
        try:
            attached = ObjectTable.from_columnar(
                _attach_columnar(shm, meta), pf, tau
            )
            got = Pinocchio().compute_influence(
                attached, cand_xy, pf, tau, Instrumentation()
            )
            del attached
            shm.close()
        finally:
            shm.unlink()
        assert got.tolist() == expected
        sketch = InfluenceSketch.build(table, k=len(objects))
        assert sketch.estimate_many(cand_xy).tolist() == expected


class TestEdgeCases:
    def test_all_candidates_far_away(self, pf, rng):
        objects = make_objects(rng, 3, extent=5.0, n_range=(2, 4))
        table = ObjectTable(objects, pf, 0.9)
        cand_xy = np.array([[1e5, 1e5], [-1e5, -1e5]])
        for entry in table:
            outcome = classify_candidates(entry, cand_xy, None)
            assert outcome.certain.size == 0
            assert outcome.maybe.size == 0
            assert outcome.pruned_nib == 2

    def test_candidate_in_mbr_is_never_nib_pruned(self, pf, rng):
        # minDist is zero inside the MBR, so the NIB rule can't fire.
        objects = make_objects(rng, 5, extent=20.0, n_range=(5, 30))
        table = ObjectTable(objects, pf, 0.9)
        for entry in table:
            center = entry.mbr.center
            cand_xy = np.array([[center.x, center.y]])
            outcome = classify_candidates(entry, cand_xy, None)
            assert outcome.pruned_nib == 0

    def test_empty_rtree_query_result(self, pf, rng):
        objects = make_objects(rng, 2, extent=5.0)
        table = ObjectTable(objects, pf, 0.9)
        cand_xy = np.array([[1e4, 1e4]])
        rtree = RTree.bulk_load(cand_xy)
        outcome = classify_candidates(table.entries[0], cand_xy, rtree)
        assert outcome.pruned_nib == 1
