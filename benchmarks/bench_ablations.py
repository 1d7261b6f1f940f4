"""Ablations of the design choices called out in DESIGN.md §5.

* candidate classification: R-tree range queries (the paper's design)
  vs the STR-blocked broadcast scan (our NumPy default) — identical
  split, different constants;
* object-side indexing: the paper argues (§4.3) that indexing object
  MBRs cannot help because activity regions overlap heavily — measured
  here as the fraction of R-tree leaves a typical NIB query touches;
* the fail-fast rejection bound (extension) on the scalar kernel;
* PIN-VO batch size for the vectorised validation.
"""

import numpy as np
import pytest

from repro.core.naive import NaiveAlgorithm
from repro.core.pinocchio import Pinocchio
from repro.core.pinocchio_vo import PinocchioVO
from repro.experiments.datasets import timing_world
from repro.prob import PowerLawPF

from conftest import run_once

PF = PowerLawPF()
TAU = 0.7


@pytest.fixture(scope="module")
def workload():
    world = timing_world("F")
    ds = world.dataset
    rng = np.random.default_rng(5)
    candidates, _ = ds.sample_candidates(400, rng)
    return ds, candidates


def test_ablation_classification_rtree(benchmark, workload):
    ds, candidates = workload
    result = run_once(
        benchmark,
        lambda: Pinocchio(use_rtree=True).select(ds.objects, candidates, PF, TAU),
    )
    assert result.best_influence > 0


def test_ablation_classification_scan(benchmark, workload):
    ds, candidates = workload
    result = run_once(
        benchmark,
        lambda: Pinocchio(use_rtree=False).select(ds.objects, candidates, PF, TAU),
    )
    assert result.best_influence > 0


def test_ablation_rtree_and_scan_agree(benchmark, workload):
    ds, candidates = workload

    def both():
        a = Pinocchio(use_rtree=True).select(ds.objects, candidates, PF, TAU)
        b = Pinocchio(use_rtree=False).select(ds.objects, candidates, PF, TAU)
        return a, b

    a, b = run_once(benchmark, both)
    assert a.influences == b.influences


def test_ablation_object_mbr_overlap(benchmark, record, workload):
    """§4.3: object MBRs overlap so much that an object-side R-tree
    degenerates — most leaves intersect a typical query region."""
    ds, _ = workload
    mbrs = [o.mbr for o in ds.objects]
    # A typical NIB-sized query box around a random candidate.
    rng = np.random.default_rng(0)
    probe = rng.uniform([5, 5], [30, 20])
    from repro.geo.mbr import MBR

    query = MBR(probe[0] - 10, probe[1] - 10, probe[0] + 10, probe[1] + 10)
    overlapping = run_once(
        benchmark, lambda: sum(1 for m in mbrs if m.intersects(query))
    )
    fraction = overlapping / len(mbrs)
    record(
        "ablation_object_mbr_overlap",
        f"objects whose activity MBR intersects a 20x20 km probe: "
        f"{overlapping}/{len(mbrs)} ({fraction:.0%}) — grouping by object "
        "MBRs cannot prune (paper S4.3)",
    )
    assert fraction > 0.5


def test_ablation_fail_fast_scalar(benchmark, record, workload):
    ds, candidates = workload
    subset = ds.objects[:120]
    plain = PinocchioVO(kernel="scalar").select(subset, candidates, PF, TAU)
    fast = run_once(
        benchmark,
        lambda: PinocchioVO(kernel="scalar", fail_fast=True).select(
            subset, candidates, PF, TAU
        ),
    )
    assert plain.best_influence == fast.best_influence
    record(
        "ablation_fail_fast",
        "fail-fast rejection bound (scalar kernel): "
        f"positions {plain.instrumentation.positions_evaluated:,} -> "
        f"{fast.instrumentation.positions_evaluated:,} "
        f"({fast.instrumentation.fail_fast_stops} early rejections)",
    )
    assert (
        fast.instrumentation.positions_evaluated
        <= plain.instrumentation.positions_evaluated
    )


@pytest.mark.parametrize("batch", [16, 128, 1024])
def test_ablation_vo_batch_size(benchmark, workload, batch):
    ds, candidates = workload

    def run():
        algo = PinocchioVO()
        algo.BATCH_OBJECTS = batch
        return algo.select(ds.objects, candidates, PF, TAU)

    result = run_once(benchmark, run)
    reference = NaiveAlgorithm().select(ds.objects, candidates, PF, TAU)
    assert result.best_influence == reference.best_influence
