"""Tests for the CLI."""

import pytest

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

    def test_serve_bench_rejects_svg(self, capsys):
        assert main(["serve-bench", "--svg", "out.svg"]) == 2
        assert "--svg" in capsys.readouterr().err

    def test_queries_flag_rejected_outside_serve_bench(self, capsys):
        assert main(["demo", "--queries", "3"]) == 2
        assert "--queries" in capsys.readouterr().err

    def test_deadline_flag_rejected_outside_serve_bench(self, capsys):
        assert main(["demo", "--deadline", "1.0"]) == 2
        assert "--deadline" in capsys.readouterr().err

    def test_inject_fault_rejected_outside_serve_bench(self, capsys):
        assert main(["table2", "--inject-fault", "crash:1"]) == 2
        assert "--inject-fault" in capsys.readouterr().err

    def test_serve_bench_rejects_bad_fault_spec(self, capsys):
        assert main(
            ["serve-bench", "--workers", "2", "--inject-fault", "bogus:1"]
        ) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_serve_bench_rejects_faults_without_workers(self, capsys):
        assert main(["serve-bench", "--inject-fault", "crash:1"]) == 2
        assert "--workers" in capsys.readouterr().err
        # parallel workers only exist on the pool
        assert main(["serve-bench", "--workers", "2"]) == 2
        assert "needs --pool" in capsys.readouterr().err

    def test_serve_bench_rejects_non_positive_deadline(self, capsys):
        assert main(["serve-bench", "--deadline", "0"]) == 2
        assert "--deadline" in capsys.readouterr().err

    def test_serve_bench_rejects_non_positive_max_inflight(self, capsys):
        assert main(["serve-bench", "--max-inflight", "0"]) == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_serve_bench_rejects_unknown_shed_policy(self, capsys):
        assert main(
            ["serve-bench", "--max-inflight", "2",
             "--shed-policy", "bogus"]
        ) == 2
        err = capsys.readouterr().err
        assert "--shed-policy" in err and "by-priority" in err

    def test_shed_policy_requires_max_inflight(self, capsys):
        assert main(["serve-bench", "--shed-policy", "oldest"]) == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_serve_bench_rejects_non_positive_breaker(self, capsys):
        assert main(["serve-bench", "--breaker", "0"]) == 2
        assert "--breaker" in capsys.readouterr().err

    def test_max_inflight_rejected_outside_serve_bench(self, capsys):
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

    def test_serve_bench_runs_and_exports(self, capsys, tmp_path):
        out = tmp_path / "serve.csv"
        assert main(
            ["serve-bench", "--queries", "1", "--workers", "0",
             "--csv", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "serve-bench" in stdout
        assert "speedup" in stdout
        assert "engine caches" in stdout
        header = out.read_text().splitlines()[0]
        assert "cold_ms" in header and "warm_ms" in header
        assert "supervision" in stdout
        # the shed/degradation summary is printed even when admission
        # control is off, so dashboards always have the line to grep
        assert "overload: 0 queries shed" in stdout
        assert "final tier" in stdout

    def test_serve_bench_overload_summary_reports_sheds(self, capsys):
        # queries 0-2 are the unmeasured priming pass; the injected
        # overload faults hit measured queries 3 and 4, which the
        # admission controller (capacity saturated by phantom load)
        # then sheds
        assert main(
            ["serve-bench", "--queries", "4", "--workers", "0",
             "--max-inflight", "1",
             "--inject-fault", "overload:*:3",
             "--inject-fault", "overload:*:4"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "overload: 2 queries shed" in stdout
        assert "(policy reject, max-inflight 1)" in stdout

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
