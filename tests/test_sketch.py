"""Influence-sketch suite: the approximate tier's accuracy contract.

The claims under test, matching ``src/repro/core/sketch.py``:

* **error within bound** — over random fleets (including degenerate
  single-position MBRs) and random candidate sets, every estimate's
  measured error against the exact influence stays within the sketch's
  advertised per-query bound,
* **exactness** — whenever ``k >= |fleet|`` the sample is exhaustive:
  the estimates equal the exact influence counts and the advertised
  bound is 0,
* **determinism** — a fixed seed fixes the sample and every estimate
  (run-to-run and build-to-build), and different seeds draw different
  samples,
* **degenerate inputs** — an empty fleet sketches to population 0 with
  zero estimates and a zero bound; single-position objects (point
  MBRs) classify and validate like any other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import select_location
from repro.core.object_table import ObjectTable
from repro.core.sketch import (
    DEFAULT_SKETCH_SEED,
    InfluenceSketch,
    _splitmix64,
)
from repro.prob import PowerLawPF

from .helpers import make_candidates, make_objects

TAU = 0.7


def exact_influences(objects, candidates, pf, tau=TAU) -> np.ndarray:
    """Ground truth via the exhaustive NA algorithm's full table."""
    result = select_location(
        objects, candidates, pf=pf, tau=tau, algorithm="NA"
    )
    return np.array(
        [result.influences[j] for j in range(len(candidates))]
    )


# ----------------------------------------------------------------------
# Accuracy: measured error <= advertised bound
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_objects=st.integers(1, 60),
    n_candidates=st.integers(1, 12),
    k=st.integers(1, 80),
)
def test_error_within_bound_random_fleets(seed, n_objects, n_candidates, k):
    rng = np.random.default_rng(seed)
    # n_range starting at 1 exercises single-position (point-MBR)
    # objects alongside full position clouds
    objects = make_objects(rng, n_objects, n_range=(1, 20))
    candidates = make_candidates(rng, n_candidates)
    pf = PowerLawPF()
    table = ObjectTable(objects, pf, TAU)
    sketch = InfluenceSketch.build(table, k=k)
    cand_xy = np.array([(c.x, c.y) for c in candidates])
    estimates = sketch.estimate_many(cand_xy)
    bound = sketch.error_bound(n_candidates)
    exact = exact_influences(objects, candidates, pf)
    assert np.all(np.abs(estimates - exact) <= bound + 1e-9)


def test_error_within_bound_real_sampling():
    """A fleet big enough that k < N forces genuine sampling."""
    rng = np.random.default_rng(42)
    objects = make_objects(rng, 500, n_range=(2, 12))
    candidates = make_candidates(rng, 30)
    pf = PowerLawPF()
    table = ObjectTable(objects, pf, TAU)
    sketch = InfluenceSketch.build(table, k=64)
    assert not sketch.exact
    cand_xy = np.array([(c.x, c.y) for c in candidates])
    estimates = sketch.estimate_many(cand_xy)
    bound = sketch.error_bound(len(candidates))
    assert 0.0 < bound < table.live_count
    exact = exact_influences(objects, candidates, pf)
    assert np.all(np.abs(estimates - exact) <= bound)


def test_single_candidate_estimate_matches_many():
    rng = np.random.default_rng(3)
    objects = make_objects(rng, 200, n_range=(2, 10))
    table = ObjectTable(objects, PowerLawPF(), TAU)
    sketch = InfluenceSketch.build(table, k=32)
    est = sketch.estimate(10.0, 12.0)
    many = sketch.estimate_many(np.array([[10.0, 12.0]]))
    assert est.estimate == pytest.approx(float(many[0]))
    assert est.bound == pytest.approx(sketch.error_bound(1))
    assert est.sample_size == sketch.k
    assert est.population == sketch.population
    assert not est.exact


# ----------------------------------------------------------------------
# Exactness when the sample is exhaustive
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_objects=st.integers(1, 40),
    n_candidates=st.integers(1, 10),
)
def test_exhaustive_sample_is_exact(seed, n_objects, n_candidates):
    rng = np.random.default_rng(seed)
    objects = make_objects(rng, n_objects, n_range=(1, 15))
    candidates = make_candidates(rng, n_candidates)
    pf = PowerLawPF()
    table = ObjectTable(objects, pf, TAU)
    sketch = InfluenceSketch.build(table, k=n_objects + 5)
    assert sketch.exact
    assert sketch.error_bound(n_candidates) == 0.0
    cand_xy = np.array([(c.x, c.y) for c in candidates])
    estimates = sketch.estimate_many(cand_xy)
    exact = exact_influences(objects, candidates, pf)
    assert np.array_equal(estimates, exact.astype(float))


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_fixed_seed_is_deterministic():
    rng = np.random.default_rng(9)
    objects = make_objects(rng, 300, n_range=(2, 10))
    table = ObjectTable(objects, PowerLawPF(), TAU)
    a = InfluenceSketch.build(table, k=48, seed=DEFAULT_SKETCH_SEED)
    b = InfluenceSketch.build(table, k=48, seed=DEFAULT_SKETCH_SEED)
    assert np.array_equal(a.sampled_ids, b.sampled_ids)
    cand_xy = np.array([(c.x, c.y) for c in make_candidates(rng, 20)])
    assert np.array_equal(a.estimate_many(cand_xy), b.estimate_many(cand_xy))


def test_different_seeds_draw_different_samples():
    rng = np.random.default_rng(10)
    objects = make_objects(rng, 400, n_range=(1, 6))
    table = ObjectTable(objects, PowerLawPF(), TAU)
    a = InfluenceSketch.build(table, k=32, seed=1)
    b = InfluenceSketch.build(table, k=32, seed=2)
    assert not np.array_equal(a.sampled_ids, b.sampled_ids)


def test_splitmix64_is_injective_on_ids():
    ids = np.arange(100_000, dtype=np.int64)
    hashes = _splitmix64(ids, DEFAULT_SKETCH_SEED)
    assert np.unique(hashes).size == ids.size


# ----------------------------------------------------------------------
# Degenerate inputs and validation
# ----------------------------------------------------------------------
def test_empty_fleet_sketches_to_zero():
    table = ObjectTable([], PowerLawPF(), TAU)
    sketch = InfluenceSketch.build(table, k=16)
    assert sketch.population == 0
    assert sketch.k == 0
    assert sketch.exact
    assert sketch.error_bound(7) == 0.0
    out = sketch.estimate_many(np.array([[0.0, 0.0], [5.0, 5.0]]))
    assert np.array_equal(out, np.zeros(2))


def test_bound_shrinks_with_k_and_grows_with_m():
    rng = np.random.default_rng(11)
    objects = make_objects(rng, 1_000, n_range=(1, 4))
    table = ObjectTable(objects, PowerLawPF(), TAU)
    small = InfluenceSketch.build(table, k=16)
    large = InfluenceSketch.build(table, k=256)
    assert large.error_bound(1) < small.error_bound(1)
    assert small.error_bound(100) > small.error_bound(1)
    # the bound is capped at the population — never vacuous-negative
    assert small.error_bound(10**6) <= table.live_count


def test_build_validates_knobs():
    table = ObjectTable([], PowerLawPF(), TAU)
    with pytest.raises(ValueError):
        InfluenceSketch.build(table, k=0)
    with pytest.raises(ValueError):
        InfluenceSketch.build(table, delta=0.0)
    with pytest.raises(ValueError):
        InfluenceSketch.build(table, delta=1.0)
    sketch = InfluenceSketch.build(table)
    with pytest.raises(ValueError):
        sketch.error_bound(0)


def test_nbytes_prices_the_arrays():
    rng = np.random.default_rng(12)
    objects = make_objects(rng, 100, n_range=(2, 8))
    table = ObjectTable(objects, PowerLawPF(), TAU)
    sketch = InfluenceSketch.build(table, k=32)
    expected = (
        sketch.xy.nbytes + sketch.offsets.nbytes
        + sketch.mbrs.nbytes + sketch.radii.nbytes
        + sketch.sampled_ids.nbytes
    )
    assert sketch.nbytes == expected > 0
