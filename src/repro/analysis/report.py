"""Generate the complete reproduction report (all figures + Table 1).

This is the one-shot driver behind ``python -m repro.analysis``: it runs
every figure scenario, the Table 1 fleet and the design-space survey, and
renders a text report mirroring EXPERIMENTS.md — but freshly measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

from repro.nat import behavior as B
from repro.natcheck.fleet import run_fleet, survey_design_space
from repro.natcheck.table import (
    render_attribution_appendix,
    render_design_space,
    render_latency_appendix,
    render_table1,
)
from repro.obs.export import summarize_for_report
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.figures import (
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
)


@dataclass
class ReportSection:
    """One regenerated artifact."""

    title: str
    body: str
    passed: bool
    wall_seconds: float = 0.0

    def render(self) -> str:
        status = "OK " if self.passed else "FAIL"
        header = f"[{status}] {self.title}  ({self.wall_seconds:.2f}s wall)"
        return header + "\n" + "-" * len(header) + "\n" + self.body


def _figure_section(title: str, runner: Callable, **kwargs) -> ReportSection:
    started = time.monotonic()
    result = runner(**kwargs)
    return ReportSection(
        title=title,
        body=result.describe(),
        passed=result.success,
        wall_seconds=time.monotonic() - started,
    )


def _design_space_section() -> ReportSection:
    """NAT Check once on every cell of the §5 behaviour axes."""
    started = time.monotonic()
    survey = survey_design_space(seed=42)
    buckets = survey["sensitivity"]

    def rate(axis: str, option: str, column: str) -> float:
        return buckets[axis][option][column]["rate"]

    # §5.1: only endpoint-independent mapping punches, UDP and TCP alike;
    # §5.4: only a hairpinning NAT passes the hairpin test.
    passed = (
        rate("mapping", "endpoint-independent", "udp") == 1.0
        and rate("mapping", "address-dependent", "udp") == 0.0
        and rate("mapping", "address-and-port-dependent", "udp") == 0.0
        and rate("tcp_mapping", "address-dependent", "tcp") == 0.0
        and rate("tcp_mapping", "address-and-port-dependent", "tcp") == 0.0
        and rate("hairpin_udp", "true", "udp_hairpin") == 1.0
        and rate("hairpin_udp", "false", "udp_hairpin") == 0.0
    )
    return ReportSection(
        title=f"Design space: NAT Check on all {survey['cells']} behaviour cells",
        body=render_design_space(survey),
        passed=passed,
        wall_seconds=time.monotonic() - started,
    )


def report_sections(seed: int = 7, quick: bool = False) -> List[ReportSection]:
    """Regenerate every artifact, one section each.

    Args:
        seed: simulation seed shared across the figure scenarios.
        quick: skip the full 380-device Table 1 fleet and the design-space
            survey (for smoke runs).
    """
    sections: List[ReportSection] = []
    sections.append(_figure_section("Figure 1: address realms", run_figure1, seed=seed))
    sections.append(_figure_section("Figure 2: relaying", run_figure2, seed=seed))
    sections.append(_figure_section("Figure 3: connection reversal", run_figure3, seed=seed))
    sections.append(_figure_section("Figure 4: common NAT", run_figure4, seed=seed))
    sections.append(_figure_section("Figure 5: different NATs", run_figure5, seed=seed))
    sections.append(
        _figure_section("Figure 6: multi-level NAT (hairpin on)", run_figure6,
                        seed=seed, hairpin=True)
    )
    sections.append(
        _figure_section("Figure 6: multi-level NAT (hairpin off)", run_figure6,
                        seed=seed, hairpin=False)
    )
    sections.append(_figure_section("Figure 7: TCP sockets vs ports", run_figure7, seed=seed))
    sections.append(
        _figure_section("Figure 8: NAT Check (well-behaved DUT)", run_figure8,
                        seed=seed, behavior=B.WELL_BEHAVED)
    )
    sections.append(
        _figure_section("Figure 8: NAT Check (symmetric DUT)", run_figure8,
                        seed=seed, behavior=B.SYMMETRIC)
    )
    if not quick:
        started = time.monotonic()
        fleet_metrics = MetricsRegistry()
        fleet = run_fleet(seed=42, metrics=fleet_metrics)
        table = render_table1(fleet.reports)
        totals_ok = "310/380 (82%)" in table and "184/286 (64%)" in table
        body = table + "\n\n" + render_latency_appendix(fleet.reports)
        body += "\n\n" + render_attribution_appendix(fleet.attribution_totals())
        if fleet.cache is not None:
            body += "\n\n" + fleet.cache.summary()
        cache_lines = summarize_for_report(fleet_metrics)
        if cache_lines:
            body += "\n" + "\n".join(cache_lines)
        sections.append(
            ReportSection(
                title=f"Table 1: NAT Check fleet ({fleet.total_devices} devices)",
                body=body,
                passed=totals_ok,
                wall_seconds=time.monotonic() - started,
            )
        )
        sections.append(_design_space_section())
    return sections


def render_report(sections: List[ReportSection]) -> str:
    """The report text: a banner counting the sections that pass, then each."""
    passed = sum(1 for s in sections if s.passed)
    banner = (
        "repro: 'Peer-to-Peer Communication Across Network Address Translators'\n"
        "        (Ford, Srisuresh, Kegel; USENIX 2005) - reproduction report\n"
        f"        {passed}/{len(sections)} artifacts reproduce the paper's claims\n"
    )
    return banner + "\n" + "\n\n".join(section.render() for section in sections)
