"""Tests for competitive PRIME-LS (existing facilities)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import competitive as competitive_module
from repro.core.competitive import CompetitivePrimeLS, marginal_influence
from repro.core.minmax_radius import min_max_radius
from repro.core.naive import NaiveAlgorithm
from repro.model import Candidate, MovingObject
from repro.prob import PowerLawPF

from tests.helpers import make_candidates, make_objects


def brute_marginal_influences(objects, candidates, facilities, pf, tau):
    return {
        j: sum(
            1
            for obj in objects
            if marginal_influence(obj, cand, facilities, pf, tau)
        )
        for j, cand in enumerate(candidates)
    }


class TestCompetitive:
    def test_no_facilities_reduces_to_prime_ls(self, pf, rng, monkeypatch):
        objects = make_objects(rng, 12)
        # a shifted twin per object, so every n occurs at least twice
        objects += [
            MovingObject(100 + obj.object_id, obj.positions + 1.0)
            for obj in objects
        ]
        candidates = make_candidates(rng, 10)
        plain = NaiveAlgorithm().select(objects, candidates, pf, 0.6)
        calls = []

        def counting(pf, tau, n):
            calls.append(n)
            return min_max_radius(pf, tau, n)

        monkeypatch.setattr(competitive_module, "min_max_radius", counting)
        competitive = CompetitivePrimeLS([]).select(objects, candidates, pf, 0.6)
        assert competitive.influences == plain.influences
        # Without incumbents every object has the same τ_O, so the
        # radius is inverted once per distinct n.
        distinct_n = {obj.n_positions for obj in objects}
        assert sorted(calls) == sorted(distinct_n)

    def test_matches_reference_predicate(self, pf, rng):
        objects = make_objects(rng, 12, extent=20.0)
        candidates = make_candidates(rng, 10, extent=20.0)
        facilities = make_candidates(rng, 3, extent=20.0)
        facilities = [Candidate(900 + j, f.x, f.y) for j, f in enumerate(facilities)]
        result = CompetitivePrimeLS(facilities).select(objects, candidates, pf, 0.5)
        expected = brute_marginal_influences(objects, candidates, facilities, pf, 0.5)
        assert result.influences == expected

    def test_facility_on_candidate_ties_count_for_newcomer(self, pf):
        obj = MovingObject(0, np.array([[0.0, 0.0], [0.5, 0.5]]))
        spot = Candidate(0, 0.2, 0.2)
        facility = Candidate(900, 0.2, 0.2)  # same place
        result = CompetitivePrimeLS([facility]).select([obj], [spot], pf, 0.3)
        # Equal probability: tie counts for the newcomer by definition.
        assert result.influences[0] == 1

    def test_strong_incumbent_blocks_distant_candidates(self, pf, rng):
        # Objects cluster near the incumbent; a candidate across town
        # wins nothing even though it would meet tau on its own.
        objects = [
            MovingObject(i, rng.normal([2.0, 2.0], 0.3, size=(20, 2)))
            for i in range(10)
        ]
        incumbent = Candidate(900, 2.0, 2.0)
        far = Candidate(0, 9.0, 9.0)
        plain = NaiveAlgorithm().select(objects, [far], pf, 0.5)
        assert plain.best_influence == 10  # tau alone is satisfied
        competitive = CompetitivePrimeLS([incumbent]).select(
            objects, [far], pf, 0.5
        )
        assert competitive.best_influence == 0

    def test_incumbent_with_certainty_kills_object(self, rng):
        pf = PowerLawPF(rho=1.0, lam=1.0)  # PF(0) = 1
        obj = MovingObject(0, np.array([[1.0, 1.0]]))
        incumbent = Candidate(900, 1.0, 1.0)  # distance 0 => Pr = 1
        cand = Candidate(0, 1.0, 1.0)
        result = CompetitivePrimeLS([incumbent]).select([obj], [cand], pf, 0.5)
        assert result.best_influence == 0
        assert result.instrumentation.dead_objects == 1

    def test_pair_partition_counts_live_objects_only(self, rng):
        # Regression: pairs_total counted dead objects, so IA + NIB +
        # validated fell short of it whenever an object was dead.
        pf = PowerLawPF(rho=1.0, lam=1.0)
        objects = make_objects(rng, 12, n_range=(1, 10))
        incumbent = Candidate(900, *objects[0].positions[0])
        candidates = make_candidates(rng, 9)
        inst = CompetitivePrimeLS([incumbent]).select(
            objects, candidates, pf, 0.5
        ).instrumentation
        assert inst.dead_objects >= 1
        assert inst.pairs_total == (len(objects) - inst.dead_objects) * 9
        assert (
            inst.pairs_pruned_ia + inst.pairs_pruned_nib + inst.pairs_validated
            == inst.pairs_total
        )

    def test_marginal_influence_monotone_in_facilities(self, pf, rng):
        objects = make_objects(rng, 10)
        candidates = make_candidates(rng, 8)
        f1 = [Candidate(900, 5.0, 5.0)]
        f2 = f1 + [Candidate(901, 20.0, 20.0)]
        one = CompetitivePrimeLS(f1).select(objects, candidates, pf, 0.5)
        two = CompetitivePrimeLS(f2).select(objects, candidates, pf, 0.5)
        for j in range(8):
            assert two.influences[j] <= one.influences[j]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        tau=st.floats(0.1, 0.9),
        n_facilities=st.integers(0, 4),
    )
    def test_random_instances_property(self, seed, tau, n_facilities):
        pf = PowerLawPF()
        rng = np.random.default_rng(seed)
        objects = make_objects(rng, 8, extent=20.0, n_range=(1, 15))
        candidates = make_candidates(rng, 8, extent=20.0)
        facilities = [
            Candidate(900 + j, float(x), float(y))
            for j, (x, y) in enumerate(rng.uniform(0, 20, size=(n_facilities, 2)))
        ]
        result = CompetitivePrimeLS(facilities).select(objects, candidates, pf, tau)
        expected = brute_marginal_influences(
            objects, candidates, facilities, pf, tau
        )
        assert result.influences == expected
