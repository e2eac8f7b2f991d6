"""The reproduction report and the analysis CLI's exit status."""

import sys
from types import SimpleNamespace

from repro.analysis import report as report_module
from repro.analysis import robustness
from repro.analysis.__main__ import main
from repro.analysis.report import ReportSection


def _quick_report():
    return report_module.render_report(report_module.report_sections(seed=7, quick=True))


def test_quick_report_all_artifacts_pass():
    report = _quick_report()
    assert "10/10 artifacts reproduce" in report
    assert "FAIL" not in report
    assert "Figure 5: different NATs" in report
    assert "Figure 8" in report


def test_report_contains_measurements():
    report = _quick_report()
    assert "relay_overhead_x" in report
    assert "locked_matches_paper: True" in report
    assert "hairpin_refused" in report


def test_section_render_format():
    section = ReportSection(title="T", body="B", passed=False, wall_seconds=1.0)
    text = section.render()
    assert text.startswith("[FAIL] T")
    assert text.endswith("B")


def test_cli_exits_1_when_a_section_fails(monkeypatch, capsys):
    failed = SimpleNamespace(success=False, describe=lambda: "forced failure")
    monkeypatch.setattr(report_module, "run_figure1", lambda **kwargs: failed)
    monkeypatch.setattr(sys, "argv", ["repro.analysis", "--quick"])
    assert main() == 1
    out = capsys.readouterr().out
    assert "9/10 artifacts reproduce" in out
    assert "[FAIL] Figure 1: address realms" in out


def test_cli_exits_1_when_hardening_regresses(monkeypatch, capsys):
    cells = {
        (family, mode): robustness.Cell(family, mode)
        for family in robustness.FAMILIES
        for mode in robustness.MODES
    }
    swept = robustness.RobustnessReport(cells=cells, behaviors=0, devices=0, seed=7)
    monkeypatch.setattr(robustness, "run_robustness", lambda **kwargs: swept)
    monkeypatch.setattr(robustness.RobustnessReport, "hardening_wins", lambda self, family: False)
    monkeypatch.setattr(sys, "argv", ["repro.analysis", "--robustness", "--quick"])
    assert main() == 1
    assert "hardening vs exhaustion-flood: REGRESSED" in capsys.readouterr().out
