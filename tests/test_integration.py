"""End-to-end integration tests over generated worlds."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ALGORITHMS, PowerLawPF, select_location
from repro.engine import SubscriptionEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def example_env() -> dict[str, str]:
    """``os.environ`` with ``<repo>/src`` merged onto ``PYTHONPATH``.

    The examples do ``from repro import ...``; in a clean checkout the
    package lives under ``src/`` and is not installed, so the spawned
    interpreter needs the path explicitly.  Merging (not replacing) the
    environment keeps whatever the caller already configured.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


class TestEndToEnd:
    def test_all_exact_algorithms_agree_on_demo_world(
        self, demo_dataset, demo_candidates, pf
    ):
        candidates, _ = demo_candidates
        results = {
            name: ALGORITHMS[name]().select(
                demo_dataset.objects, candidates, pf, 0.7
            )
            for name in ("NA", "PIN", "PIN-VO", "PIN-VO*")
        }
        na = results["NA"]
        assert results["PIN"].influences == na.influences
        assert results["PIN-VO"].best_influence == na.best_influence
        assert results["PIN-VO*"].best_influence == na.best_influence

    def test_pruning_is_substantial_on_demo_world(
        self, demo_dataset, demo_candidates, pf
    ):
        candidates, _ = demo_candidates
        result = ALGORITHMS["PIN"]().select(
            demo_dataset.objects, candidates, pf, 0.7
        )
        # The paper reports ~2/3 pruned; demand at least a third here.
        assert result.instrumentation.pruned_fraction() > 1 / 3

    def test_incremental_replays_batch(self, demo_dataset, demo_candidates, pf):
        candidates, _ = demo_candidates
        objects = demo_dataset.objects
        engine = SubscriptionEngine(
            window=max(obj.n_positions for obj in objects), default_pf=pf
        )
        for obj in objects:
            engine.ingest_batch(
                [(obj.object_id, x, y) for x, y in obj.positions.tolist()]
            )
        sid = engine.subscribe(candidates, tau=0.7)
        batch = select_location(
            objects, candidates, pf=pf, tau=0.7, algorithm="NA"
        )
        snap = engine.snapshot(sid)
        assert snap.influences == tuple(
            batch.influences[j] for j in range(len(candidates))
        )
        assert snap.best_influence == batch.best_influence

    def test_influence_saturates_with_low_tau(self, demo_dataset, demo_candidates):
        candidates, _ = demo_candidates
        pf = PowerLawPF()
        low = select_location(demo_dataset.objects, candidates, pf=pf, tau=0.05)
        high = select_location(demo_dataset.objects, candidates, pf=pf, tau=0.95)
        assert low.best_influence >= high.best_influence

    def test_seeded_world_is_reproducible_end_to_end(self):
        from repro.datasets import tiny_demo

        results = []
        for _ in range(2):
            world = tiny_demo(seed=33)
            rng = np.random.default_rng(1)
            cands, _ = world.dataset.sample_candidates(20, rng)
            r = select_location(world.dataset.objects, cands, tau=0.7)
            results.append((r.best_candidate.candidate_id, r.best_influence))
        assert results[0] == results[1]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_examples_run(example, tmp_path):
    """Every example script must run cleanly as a subprocess.

    Runs in a temporary working directory so examples that write
    artefacts (SVGs) do not litter the repository.
    """
    proc = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=example_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "examples must print something"
