"""Tests for the CLI."""

from repro.cli import main


class TestCLI:
    def test_demo_rejects_csv(self, capsys):
        assert main(["demo", "--csv", "out.csv"]) == 2
        err = capsys.readouterr().err
        assert "--csv" in err and "demo" in err

    def test_report_rejects_csv(self, capsys):
        assert main(["report", "--csv", "out.csv"]) == 2
        assert "--csv" in capsys.readouterr().err

    def test_svg_rejected_outside_demo(self, capsys):
        assert main(["table2", "--svg", "out.svg"]) == 2
        assert "--svg" in capsys.readouterr().err

    def test_list_rejects_all_flags(self, capsys):
        assert main(["list", "--svg", "x", "--csv", "y"]) == 2
        err = capsys.readouterr().err
        assert "--csv" in err and "--svg" in err

    def test_retired_bench_command_exits_2(self, capsys):
        assert main(["serve-bench"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_inject_fault_rejected_outside_serve(self, capsys):
        assert main(["table2", "--inject-fault", "crash:1"]) == 2
        assert "--inject-fault" in capsys.readouterr().err

    def test_serve_rejects_bad_fault_spec(self, capsys):
        assert main(["serve", "--inject-fault", "bogus:1"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_max_inflight_rejected_outside_serve(self, capsys):
        assert main(["demo", "--max-inflight", "2"]) == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_experiment_csv_export(self, capsys, tmp_path, monkeypatch):
        import dataclasses

        import repro.cli as cli

        @dataclasses.dataclass
        class FakeResult:
            taus: list = dataclasses.field(default_factory=lambda: [0.5, 0.7])
            runtime_ms: list = dataclasses.field(
                default_factory=lambda: [1.0, 2.0]
            )

            def render(self):
                return "fake table"

        monkeypatch.setattr(
            cli, "_registry", lambda: {"fake": ("fake", FakeResult)}
        )
        out = tmp_path / "fake.csv"
        assert main(["fake", "--csv", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "fake table" in stdout
        assert "CSV written" in stdout
        assert "taus" in out.read_text().splitlines()[0]

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10-f" in out
        assert "precision" in out
        assert "sampling" in out

    def test_default_is_list(self, capsys):
        assert main([]) == 0
        assert "table2" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_remark(self, capsys):
        assert main(["remark"]) == 0
        assert "Remark" in capsys.readouterr().out

    def test_runs_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "user count" in out
