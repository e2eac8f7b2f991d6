"""Reproduction driver: regenerate every table and figure in one run.

``python -m repro.analysis`` prints the full paper-vs-measured report;
:func:`repro.analysis.report.report_sections` regenerates it section by
section and :func:`~repro.analysis.report.render_report` renders the text.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "ReportSection": "report",
    "render_report": "report",
    "report_sections": "report",
})
