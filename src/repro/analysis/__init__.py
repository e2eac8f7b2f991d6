"""Reproduction driver: regenerate every table and figure in one run.

``python -m repro.analysis`` prints the full paper-vs-measured report;
:func:`repro.analysis.report.generate_report` returns it as a string.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "ReportSection": "report",
    "generate_report": "report",
})
