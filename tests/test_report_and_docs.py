"""Tests for the report generator and documentation conventions."""

import importlib
import inspect
import pkgutil

import repro


class TestReportGenerator:
    def test_generates_and_all_claims_pass(self, tmp_path):
        from repro.experiments.report import generate_report

        path, checks = generate_report(tmp_path / "REPORT.md", precision_groups=2)
        assert path.exists()
        text = path.read_text()
        assert "Claim scoreboard" in text
        assert len(checks) == 10
        failed = [c.claim for c in checks if not c.passed]
        assert not failed, f"reproduction claims failed: {failed}"

    def test_report_rows_render(self):
        from repro.experiments.report import ClaimCheck

        row = ClaimCheck("c", "m", True).row()
        assert row == "| c | m | PASS |"
        assert "FAIL" in ClaimCheck("c", "m", False).row()


def _public_members():
    """Every public module/class/function under repro."""
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(module_info.name)
        yield module_info.name, module
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(member, "__module__", None) != module_info.name:
                continue
            if inspect.isclass(member) or inspect.isfunction(member):
                yield f"{module_info.name}.{name}", member


class TestDocumentationConventions:
    def test_every_public_item_has_a_docstring(self):
        missing = [
            qualname
            for qualname, member in _public_members()
            if not (inspect.getdoc(member) or "").strip()
        ]
        assert not missing, f"undocumented public items: {missing}"

    def test_every_public_class_method_documented(self):
        missing = []
        for qualname, member in _public_members():
            if not inspect.isclass(member):
                continue
            for name, method in vars(member).items():
                if name.startswith("_") or not inspect.isfunction(method):
                    continue
                if not (inspect.getdoc(method) or "").strip():
                    missing.append(f"{qualname}.{name}")
        assert not missing, f"undocumented public methods: {missing}"
