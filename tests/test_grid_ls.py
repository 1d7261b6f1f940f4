"""Tests for the grid-partition exact solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid_ls import GridPartitionLS, optimal_grid_size
from repro.core.naive import NaiveAlgorithm
from repro.prob import PowerLawPF

from tests.helpers import make_candidates, make_objects


class TestGridPartitionLS:
    @pytest.mark.parametrize("grid_size", [1, 4, 16])
    def test_matches_naive(self, pf, rng, grid_size):
        objects = make_objects(rng, 20)
        candidates = make_candidates(rng, 30)
        na = NaiveAlgorithm().select(objects, candidates, pf, 0.7)
        grid = GridPartitionLS(grid_size=grid_size).select(
            objects, candidates, pf, 0.7
        )
        assert grid.best_influence == na.best_influence

    def test_invalid_grid_size(self):
        with pytest.raises(ValueError):
            GridPartitionLS(grid_size=0)

    def test_skips_cells(self, pf, rng):
        # Inferior far-away candidate clusters should be skipped whole.
        objects = make_objects(rng, 30, extent=10.0, spread=1.0)
        near = make_candidates(rng, 10, extent=10.0)
        far = [type(near[0])(100 + j, 500.0 + j % 5, 500.0 + j // 5) for j in range(25)]
        result = GridPartitionLS(grid_size=8).select(objects, near + far, pf, 0.7)
        assert result.instrumentation.candidates_skipped_strategy1 > 0

    def test_single_candidate(self, pf, rng):
        objects = make_objects(rng, 5)
        candidates = make_candidates(rng, 1)
        na = NaiveAlgorithm().select(objects, candidates, pf, 0.5)
        grid = GridPartitionLS().select(objects, candidates, pf, 0.5)
        assert grid.best_influence == na.best_influence

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2_000),
        tau=st.floats(0.1, 0.9),
        grid_size=st.integers(1, 10),
    )
    def test_random_instances_property(self, seed, tau, grid_size):
        pf = PowerLawPF()
        rng = np.random.default_rng(seed)
        objects = make_objects(rng, 10, extent=25.0, n_range=(1, 20))
        candidates = make_candidates(rng, 15, extent=25.0)
        na = NaiveAlgorithm().select(objects, candidates, pf, tau)
        grid = GridPartitionLS(grid_size=grid_size).select(
            objects, candidates, pf, tau
        )
        assert grid.best_influence == na.best_influence


class TestHeuristics:
    def test_optimal_grid_size(self):
        assert optimal_grid_size(4) == 1
        assert optimal_grid_size(400) == 10
        assert optimal_grid_size(0) == 1
