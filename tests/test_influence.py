"""Tests for the influence kernels (Definition 1, Lemma 4, Strategy 2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.influence import (
    batch_log_non_influence,
    batch_validate_objects,
    batch_validate_spans,
    cumulative_probability,
    influence_threshold_log,
    log1m_safe,
    log_non_influence,
    validate_pair,
)
from repro.core.result import Instrumentation
from repro.prob import PowerLawPF


def direct_cumulative(pf, positions, cx, cy):
    """Definition 1 computed literally (product form)."""
    product = 1.0
    for px, py in positions:
        product *= 1.0 - float(pf(math.hypot(px - cx, py - cy)))
    return 1.0 - product


class TestCumulativeProbability:
    def test_matches_direct_product(self, pf, rng):
        positions = rng.uniform(0, 10, size=(25, 2))
        got = cumulative_probability(pf, positions, 5.0, 5.0)
        assert got == pytest.approx(direct_cumulative(pf, positions, 5.0, 5.0))

    def test_single_position(self, pf):
        positions = np.array([[3.0, 4.0]])
        expected = float(pf(5.0))
        assert cumulative_probability(pf, positions, 0.0, 0.0) == pytest.approx(expected)

    def test_example1_of_the_paper(self):
        # Example 1 hard-codes probabilities 0.5, 0.1, 0.2, 0.15, 0.12
        # => cumulative 0.73.  Emulate with a lookup PF.
        probs = [0.5, 0.1, 0.2, 0.15, 0.12]
        cumulative = 1 - np.prod([1 - p for p in probs])
        assert cumulative == pytest.approx(0.73, abs=5e-3)  # paper rounds to 0.73

    def test_no_underflow_with_many_positions(self, pf):
        # 100k far positions: the plain product would underflow to 0
        # and report influence 1.0; log-space must stay accurate.
        positions = np.full((100_000, 2), 500.0)
        p = cumulative_probability(pf, positions, 0.0, 0.0)
        per_position = float(pf(math.hypot(500, 500)))
        expected = -math.expm1(100_000 * math.log1p(-per_position))
        assert p == pytest.approx(expected, rel=1e-9)

    def test_probability_one_with_zero_distance_rho1(self):
        # A PF reaching exactly 1 at distance 0 forces influence 1.
        pf = PowerLawPF(rho=1.0, lam=1.0)
        positions = np.array([[0.0, 0.0], [9.0, 9.0]])
        assert cumulative_probability(pf, positions, 0.0, 0.0) == pytest.approx(1.0)

    def test_monotone_in_positions(self, pf, rng):
        # Adding a position can only increase the cumulative probability.
        positions = rng.uniform(0, 10, size=(10, 2))
        base = cumulative_probability(pf, positions[:5], 5.0, 5.0)
        more = cumulative_probability(pf, positions, 5.0, 5.0)
        assert more >= base - 1e-12


class TestLogHelpers:
    def test_log1m_safe_clips_at_one(self):
        assert log1m_safe(1.0) == -np.inf
        assert log1m_safe(2.0) == -np.inf

    def test_log1m_safe_matches_log1p(self):
        assert log1m_safe(0.3) == pytest.approx(math.log1p(-0.3))

    def test_threshold_log(self):
        assert influence_threshold_log(0.7) == pytest.approx(math.log(0.3))

    def test_threshold_rejects_degenerate_tau(self):
        with pytest.raises(ValueError):
            influence_threshold_log(0.0)
        with pytest.raises(ValueError):
            influence_threshold_log(1.0)

    def test_log_non_influence(self, pf, rng):
        positions = rng.uniform(0, 5, size=(8, 2))
        s = log_non_influence(pf, positions, 1.0, 1.0)
        assert s == pytest.approx(
            sum(
                math.log1p(-float(pf(math.hypot(px - 1, py - 1))))
                for px, py in positions
            )
        )


class TestValidatePair:
    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_matches_threshold_test(self, kernel, pf, rng):
        tau = 0.6
        log_thr = influence_threshold_log(tau)
        for _ in range(30):
            positions = rng.uniform(0, 30, size=(int(rng.integers(1, 60)), 2))
            cx, cy = rng.uniform(0, 30, size=2)
            expected = cumulative_probability(pf, positions, cx, cy) >= tau
            got = validate_pair(pf, positions, cx, cy, log_thr, kernel=kernel)
            assert got == expected

    def test_scalar_and_vector_agree(self, pf, rng):
        log_thr = influence_threshold_log(0.7)
        for _ in range(50):
            positions = rng.uniform(0, 40, size=(int(rng.integers(1, 80)), 2))
            cx, cy = rng.uniform(0, 40, size=2)
            s = validate_pair(pf, positions, cx, cy, log_thr, kernel="scalar")
            v = validate_pair(pf, positions, cx, cy, log_thr, kernel="vector")
            assert s == v

    def test_unknown_kernel_raises(self, pf):
        with pytest.raises(ValueError):
            validate_pair(pf, np.zeros((1, 2)), 0, 0, -1.0, kernel="gpu")

    def test_early_stop_counts_positions(self, pf):
        # All positions at distance 0 (p = 0.9): one position suffices
        # for tau = 0.5, so the scalar kernel must stop after 1.
        positions = np.zeros((50, 2))
        counters = Instrumentation()
        got = validate_pair(
            pf, positions, 0.0, 0.0, influence_threshold_log(0.5),
            counters=counters, kernel="scalar", early_stop=True,
        )
        assert got is True
        assert counters.positions_evaluated == 1
        assert counters.early_stops == 1

    def test_early_stop_disabled_scans_everything(self, pf):
        positions = np.zeros((50, 2))
        counters = Instrumentation()
        validate_pair(
            pf, positions, 0.0, 0.0, influence_threshold_log(0.5),
            counters=counters, kernel="scalar", early_stop=False,
        )
        assert counters.positions_evaluated == 50
        assert counters.early_stops == 0

    def test_vector_early_stop_chunk_granularity(self, pf):
        positions = np.zeros((100, 2))
        counters = Instrumentation()
        validate_pair(
            pf, positions, 0.0, 0.0, influence_threshold_log(0.5),
            counters=counters, kernel="vector", early_stop=True, chunk=16,
        )
        assert counters.positions_evaluated == 16
        assert counters.early_stops == 1

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_fail_fast_is_sound(self, kernel, pf, rng):
        # With the fail-fast bound enabled the decision must not change.
        from repro.geo.mbr import MBR

        log_thr = influence_threshold_log(0.7)
        for _ in range(40):
            positions = rng.uniform(0, 30, size=(int(rng.integers(2, 50)), 2))
            cx, cy = rng.uniform(-20, 50, size=2)
            mbr = MBR.from_array(positions)
            p_ub = float(pf(mbr.min_dist(cx, cy)))
            bound = float(log1m_safe(p_ub))
            plain = validate_pair(pf, positions, cx, cy, log_thr, kernel=kernel)
            fast = validate_pair(
                pf, positions, cx, cy, log_thr, kernel=kernel,
                fail_fast_log_bound=bound,
            )
            assert plain == fast

    def test_fail_fast_saves_positions_for_hopeless_pairs(self, pf):
        # A faraway candidate: every position has the same tiny p, the
        # bound proves failure after the first position.
        positions = np.tile([100.0, 100.0], (80, 1))
        from repro.geo.mbr import MBR

        mbr = MBR.from_array(positions)
        p_ub = float(pf(mbr.min_dist(0.0, 0.0)))
        counters = Instrumentation()
        got = validate_pair(
            pf, positions, 0.0, 0.0, influence_threshold_log(0.9),
            counters=counters, kernel="scalar",
            fail_fast_log_bound=float(log1m_safe(p_ub)),
        )
        assert got is False
        assert counters.fail_fast_stops == 1
        assert counters.positions_evaluated < 80


class TestBatchKernels:
    def test_batch_log_non_influence_matches_loop(self, pf, rng):
        positions = rng.uniform(0, 20, size=(30, 2))
        cand_xy = rng.uniform(0, 20, size=(7, 2))
        batch = batch_log_non_influence(pf, positions, cand_xy)
        for j in range(7):
            assert batch[j] == pytest.approx(
                log_non_influence(pf, positions, *cand_xy[j])
            )

    def test_batch_validate_objects_matches_pairwise(self, pf, rng):
        log_thr = influence_threshold_log(0.65)
        objects = [
            rng.uniform(0, 25, size=(int(rng.integers(1, 70)), 2))
            for _ in range(40)
        ]
        cx, cy = 12.0, 8.0
        got = batch_validate_objects(pf, objects, cx, cy, log_thr)
        expected = np.array(
            [validate_pair(pf, o, cx, cy, log_thr, kernel="scalar") for o in objects]
        )
        np.testing.assert_array_equal(got, expected)

    def test_batch_counters_reflect_early_stop(self, pf):
        # Objects hugging the candidate decide within the head chunk.
        log_thr = influence_threshold_log(0.5)
        objects = [np.zeros((60, 2)) for _ in range(10)]
        counters = Instrumentation()
        batch_validate_objects(
            pf, objects, 0.0, 0.0, log_thr, counters=counters, head=16
        )
        assert counters.positions_evaluated == 10 * 16
        assert counters.early_stops == 10
        assert counters.positions_total == 600

    def test_batch_single_object(self, pf):
        log_thr = influence_threshold_log(0.7)
        got = batch_validate_objects(pf, [np.zeros((2, 2))], 0.0, 0.0, log_thr)
        assert got.shape == (1,)
        assert bool(got[0]) is True

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.floats(0.05, 0.95))
    def test_batch_exactness_property(self, n, tau):
        pf = PowerLawPF()
        rng = np.random.default_rng(n)
        objects = [
            rng.uniform(0, 50, size=(int(rng.integers(1, 3 * n + 1)), 2))
            for _ in range(5)
        ]
        log_thr = influence_threshold_log(tau)
        got = batch_validate_objects(pf, objects, 25.0, 25.0, log_thr)
        for k, obj in enumerate(objects):
            assert bool(got[k]) == (
                cumulative_probability(pf, obj, 25.0, 25.0) >= tau
            )


class TestBatchValidateSpans:
    """The columnar span kernel is bit-identical to the list kernel."""

    @staticmethod
    def flat_block(objects):
        """The ``(2, Σn)`` x/y block and offsets of ``(n, 2)`` objects."""
        xy = np.ascontiguousarray(np.concatenate(objects, axis=0).T)
        lengths = np.array([o.shape[0] for o in objects], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return xy, offsets

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tau=st.floats(0.05, 0.95),
        k=st.integers(1, 25),
        head=st.sampled_from([1, 4, 16]),
    )
    def test_property_matches_list_kernel(self, seed, tau, k, head):
        pf = PowerLawPF()
        rng = np.random.default_rng(seed)
        objects = [
            rng.uniform(0, 40, size=(int(rng.integers(1, 50)), 2))
            for _ in range(30)
        ]
        positions, offsets = self.flat_block(objects)
        idx = rng.choice(len(objects), size=k, replace=False)
        cx, cy = float(rng.uniform(0, 40)), float(rng.uniform(0, 40))
        log_thr = influence_threshold_log(tau)

        want_counters = Instrumentation()
        want = batch_validate_objects(
            pf, [objects[i] for i in idx.tolist()], cx, cy, log_thr,
            counters=want_counters, head=head,
        )
        got_counters = Instrumentation()
        got = batch_validate_spans(
            pf, positions, offsets, idx, cx, cy, log_thr,
            counters=got_counters, head=head,
        )
        np.testing.assert_array_equal(got, want)
        assert got_counters == want_counters

    def test_empty_span(self, pf):
        objects = [np.zeros((3, 2))]
        positions, offsets = self.flat_block(objects)
        got = batch_validate_spans(
            pf, positions, offsets, np.empty(0, dtype=int),
            0.0, 0.0, influence_threshold_log(0.5),
        )
        assert got.shape == (0,)
