"""Microbenchmarks of the hot kernels (not tied to a paper figure).

These are true pytest-benchmark microbenches: they time the inner
loops the algorithms are built from, so kernel regressions show up
independently of experiment-level noise.
"""

import numpy as np
import pytest

from repro.core.influence import (
    batch_log_non_influence,
    batch_validate_spans,
    influence_threshold_log,
    validate_pair,
)
from repro.core.object_table import ObjectTable
from repro.core.pruning import classify_chunk
from repro.geo.mbr import MBR
from repro.index import RTree, UniformGrid
from repro.model import MovingObject
from repro.prob import PowerLawPF


def make_objects(rng, count, extent=30.0, n_range=(1, 40), spread=4.0):
    objects = []
    for oid in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        anchor = rng.uniform(0.0, extent, size=2)
        objects.append(
            MovingObject(oid, anchor + rng.normal(0.0, spread, size=(n, 2)))
        )
    return objects


PF = PowerLawPF()
LOG_THR = influence_threshold_log(0.7)


@pytest.fixture(scope="module")
def positions():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 30, size=(72, 2))  # Foursquare's average n


@pytest.fixture(scope="module")
def cand_xy():
    rng = np.random.default_rng(1)
    return rng.uniform(0, 30, size=(600, 2))


def test_kernel_validate_pair_scalar(benchmark, positions):
    benchmark(
        validate_pair, PF, positions, 15.0, 15.0, LOG_THR, kernel="scalar"
    )


def test_kernel_validate_pair_vector(benchmark, positions):
    benchmark(
        validate_pair, PF, positions, 15.0, 15.0, LOG_THR, kernel="vector"
    )


def test_kernel_batch_log_non_influence(benchmark, positions, cand_xy):
    benchmark(batch_log_non_influence, PF, positions, cand_xy)


def test_kernel_batch_validate_spans(benchmark):
    # PIN-VO's serving kernel on one 128-object batch of a table export
    rng = np.random.default_rng(2)
    table = ObjectTable(
        [MovingObject(oid, rng.uniform(0, 30, size=(40, 2)))
         for oid in range(128)],
        PF, 0.7,
    )
    xy, offsets = table.positions_offsets()
    span = np.arange(table.live_count)
    assert span.size == 128
    benchmark(
        batch_validate_spans, PF, xy, offsets, span, 15.0, 15.0, LOG_THR
    )


def test_kernel_classification_chunk(benchmark, cand_xy):
    rng = np.random.default_rng(3)
    table = ObjectTable(make_objects(rng, 256, extent=30.0), PF, 0.7)
    benchmark(classify_chunk, table.entries, cand_xy)


def test_kernel_rtree_bulk_load(benchmark, cand_xy):
    benchmark(RTree.bulk_load, cand_xy)


def test_kernel_rtree_rect_query(benchmark, cand_xy):
    tree = RTree.bulk_load(cand_xy)
    rect = MBR(5, 5, 20, 20)
    benchmark(tree.query_rect, rect)


def test_kernel_rtree_nearest(benchmark, cand_xy):
    tree = RTree.bulk_load(cand_xy)
    benchmark(tree.nearest, 15.0, 15.0)


def test_kernel_grid_rect_query(benchmark, cand_xy):
    grid = UniformGrid(cell_size=2.0)
    for i, (x, y) in enumerate(cand_xy):
        grid.insert(i, float(x), float(y))
    rect = MBR(5, 5, 20, 20)
    benchmark(grid.query_rect, rect)
