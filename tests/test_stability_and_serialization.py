"""Tests for the stability experiment, result JSON, and CLI subcommands."""

import json

import repro.experiments as ex
from repro.cli import main
from repro.core.naive import NaiveAlgorithm

from tests.helpers import make_candidates, make_objects


class TestStabilityExperiment:
    def test_small_run_shape(self):
        r = ex.run_location_stability(
            dataset="F", n_candidates=60, rounds=3, noise_levels_km=(0.1,)
        )
        assert r.rounds == 3
        assert len(r.bootstrap_distances_km) == 3
        assert len(r.noise_distances_km) == 1
        assert 0.0 < r.modal_agreement <= 1.0
        assert "stability" in r.render().lower()

    def test_distances_nonnegative(self):
        r = ex.run_location_stability(
            dataset="F", n_candidates=50, rounds=2, noise_levels_km=()
        )
        assert all(d >= 0 for d in r.bootstrap_distances_km)


class TestResultSerialization:
    def test_round_trip_through_json(self, pf, rng, tmp_path):
        objects = make_objects(rng, 8)
        candidates = make_candidates(rng, 6)
        result = NaiveAlgorithm().select(objects, candidates, pf, 0.6)
        path = tmp_path / "result.json"
        result.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["algorithm"] == "NA"
        assert loaded["best_influence"] == result.best_influence
        assert loaded["best_candidate"]["candidate_id"] == (
            result.best_candidate.candidate_id
        )
        assert loaded["influences"] == {
            str(k): v for k, v in result.influences.items()
        }
        assert loaded["instrumentation"]["pairs_total"] == (
            result.instrumentation.pairs_total
        )

    def test_to_dict_is_json_serialisable(self, pf, rng):
        objects = make_objects(rng, 4)
        candidates = make_candidates(rng, 3)
        result = NaiveAlgorithm().select(objects, candidates, pf, 0.6)
        json.dumps(result.to_dict())  # must not raise


class TestCLISubcommands:
    def test_demo(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "optimal location" in out

    def test_demo_with_svg(self, capsys, tmp_path):
        svg_path = tmp_path / "scene.svg"
        assert main(["demo", "--svg", str(svg_path)]) == 0
        assert svg_path.exists()
        assert svg_path.read_text().startswith("<svg")

    def test_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        assert main(["fig10-f", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "ia_fraction" in csv_path.read_text().splitlines()[0]

    def test_csv_export_unknown_experiment(self, capsys, tmp_path):
        assert main(["nope", "--csv", str(tmp_path / "x.csv")]) == 2

    def test_stability_listed(self, capsys):
        assert main(["list"]) == 0
        assert "stability" in capsys.readouterr().out
