"""Metamorphic tests: geometric transformations that must not change
the PRIME-LS answer.

The influence probability depends only on point-to-point distances, so
rigid motions of the whole scene (translation, rotation, reflection)
must leave every influence count unchanged — even though rotations
change every MBR and therefore exercise completely different pruning
decisions.  Scaling distances while rescaling the PF's distance unit is
likewise an invariant.  These are end-to-end correctness checks that no
unit test of a single component can provide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pinocchio import Pinocchio
from repro.core.pinocchio_vo import PinocchioVO
from repro.model import Candidate, MovingObject
from repro.prob import PowerLawPF

from tests.helpers import make_candidates, make_objects


def transform_scene(objects, candidates, matrix, offset):
    """Apply an affine map ``x -> R x + t`` to every coordinate."""
    new_objects = [
        MovingObject(o.object_id, o.positions @ matrix.T + offset)
        for o in objects
    ]
    new_candidates = [
        Candidate(c.candidate_id, *(matrix @ np.array([c.x, c.y]) + offset))
        for c in candidates
    ]
    return new_objects, new_candidates


def influence_table(objects, candidates, pf, tau, algo=None):
    algo = algo or Pinocchio()
    return algo.select(objects, candidates, pf, tau).influences


@pytest.fixture()
def scene(rng):
    return (
        make_objects(rng, 15, extent=30.0, n_range=(1, 25)),
        make_candidates(rng, 20, extent=30.0),
    )


class TestRigidMotionInvariance:
    def test_translation(self, pf, scene):
        objects, candidates = scene
        base = influence_table(objects, candidates, pf, 0.7)
        moved = transform_scene(
            objects, candidates, np.eye(2), np.array([123.4, -56.7])
        )
        assert influence_table(*moved, pf, 0.7) == base

    @pytest.mark.parametrize("angle_deg", [30, 45, 90, 137])
    def test_rotation(self, pf, scene, angle_deg):
        objects, candidates = scene
        base = influence_table(objects, candidates, pf, 0.7)
        theta = np.radians(angle_deg)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        rotated = transform_scene(objects, candidates, rot, np.zeros(2))
        assert influence_table(*rotated, pf, 0.7) == base

    def test_reflection(self, pf, scene):
        objects, candidates = scene
        base = influence_table(objects, candidates, pf, 0.7)
        mirror = np.array([[-1.0, 0.0], [0.0, 1.0]])
        mirrored = transform_scene(objects, candidates, mirror, np.zeros(2))
        assert influence_table(*mirrored, pf, 0.7) == base

    def test_rotation_preserved_for_vo(self, pf, scene):
        objects, candidates = scene
        vo = PinocchioVO()
        base = vo.select(objects, candidates, pf, 0.7).best_influence
        theta = np.radians(61.0)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        rotated = transform_scene(objects, candidates, rot, np.array([9.0, -4.0]))
        assert vo.select(*rotated, pf, 0.7).best_influence == base

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        angle=st.floats(0.0, 2 * np.pi),
        tx=st.floats(-1e3, 1e3),
        ty=st.floats(-1e3, 1e3),
        tau=st.floats(0.1, 0.9),
    )
    def test_rigid_motion_property(self, seed, angle, tx, ty, tau):
        pf = PowerLawPF()
        rng = np.random.default_rng(seed)
        objects = make_objects(rng, 8, extent=20.0, n_range=(1, 15))
        candidates = make_candidates(rng, 8, extent=20.0)
        base = influence_table(objects, candidates, pf, tau)
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        moved = transform_scene(objects, candidates, rot, np.array([tx, ty]))
        assert influence_table(*moved, pf, tau) == base


class TestUnitScalingInvariance:
    def test_rescaling_distances_and_pf(self, scene):
        # Measuring in metres instead of km with a correspondingly
        # rescaled PF must not change any influence count.
        objects, candidates = scene
        tau = 0.6
        km_pf = PowerLawPF(rho=0.9, lam=1.0, d0=1.0)
        base = influence_table(objects, candidates, km_pf, tau)
        scale = 1_000.0  # km -> m
        m_pf = PowerLawPF(rho=0.9, lam=1.0, d0=scale)
        # PF_m(d_m) = 0.9 (1000 + d_m)^-1 differs by a constant factor
        # 1000^-1 from PF_km(d_km); rho absorbs it only via a custom fn.
        from repro.prob import CallablePF

        m_pf = CallablePF(
            lambda d: km_pf(np.asarray(d) / scale), max_dist=1e9, name="metres"
        )
        scaled = transform_scene(
            objects, candidates, scale * np.eye(2), np.zeros(2)
        )
        assert influence_table(*scaled, m_pf, tau) == base


class TestPermutationInvariance:
    def test_object_order_irrelevant(self, pf, scene, rng):
        objects, candidates = scene
        base = influence_table(objects, candidates, pf, 0.7)
        shuffled = [objects[i] for i in rng.permutation(len(objects))]
        assert influence_table(shuffled, candidates, pf, 0.7) == base

    def test_position_order_irrelevant(self, pf, scene, rng):
        objects, candidates = scene
        base = influence_table(objects, candidates, pf, 0.7)
        reordered = [
            MovingObject(
                o.object_id, o.positions[rng.permutation(o.n_positions)]
            )
            for o in objects
        ]
        assert influence_table(reordered, candidates, pf, 0.7) == base

    def test_candidate_order_permutes_table(self, pf, scene):
        objects, candidates = scene
        base = influence_table(objects, candidates, pf, 0.7)
        reversed_cands = list(reversed(candidates))
        flipped = influence_table(objects, reversed_cands, pf, 0.7)
        m = len(candidates)
        for j in range(m):
            assert flipped[j] == base[m - 1 - j]


class TestDuplicationInvariants:
    def test_duplicating_an_object_doubles_its_contribution(self, pf, rng):
        objects = make_objects(rng, 6, extent=10.0)
        candidates = make_candidates(rng, 6, extent=10.0)
        base = influence_table(objects, candidates, pf, 0.6)
        clone = MovingObject(99, objects[0].positions)
        bigger = influence_table(objects + [clone], candidates, pf, 0.6)
        single = influence_table([objects[0]], candidates, pf, 0.6)
        for j in range(len(candidates)):
            assert bigger[j] == base[j] + single[j]

    def test_duplicate_candidates_get_equal_influence(self, pf, rng):
        objects = make_objects(rng, 8, extent=10.0)
        cand = make_candidates(rng, 1, extent=10.0)[0]
        twin = Candidate(1, cand.x, cand.y)
        table = influence_table(objects, [cand, twin], pf, 0.6)
        assert table[0] == table[1]
