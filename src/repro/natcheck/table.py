"""Table 1 rendering: per-vendor NAT support for UDP/TCP hole punching.

`table1_rows` aggregates measured :class:`NatCheckReport` objects into the
paper's rows; `render_table1` prints them in the paper's format, optionally
side by side with the paper's published numbers.  `render_design_space`
prints the same four columns over the whole NAT design space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.natcheck.classify import NatCheckReport
from repro.obs.metrics import Histogram

#: The paper's published Table 1, for paper-vs-measured comparison:
#: vendor -> (udp, udp_hairpin, tcp, tcp_hairpin) as (n, d) pairs.
PAPER_TABLE1: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "Linksys": ((45, 46), (5, 42), (33, 38), (3, 38)),
    "Netgear": ((31, 37), (3, 35), (19, 30), (0, 30)),
    "D-Link": ((16, 21), (11, 21), (9, 19), (2, 19)),
    "Draytek": ((2, 17), (3, 12), (2, 7), (0, 7)),
    "Belkin": ((14, 14), (1, 14), (11, 11), (0, 11)),
    "Cisco": ((12, 12), (3, 9), (6, 7), (2, 7)),
    "SMC": ((12, 12), (3, 10), (8, 9), (2, 9)),
    "ZyXEL": ((7, 9), (1, 8), (0, 7), (0, 7)),
    "3Com": ((7, 7), (1, 7), (5, 6), (0, 6)),
    "Windows": ((31, 33), (11, 32), (16, 31), (28, 31)),
    "Linux": ((26, 32), (3, 25), (16, 24), (2, 24)),
    "FreeBSD": ((7, 9), (3, 6), (2, 3), (1, 1)),
    "All Vendors": ((310, 380), (80, 335), (184, 286), (37, 286)),
}

#: Vendors presented as NAT hardware vs OS-based NAT in the paper's layout.
HARDWARE_VENDORS = (
    "Linksys",
    "Netgear",
    "D-Link",
    "Draytek",
    "Belkin",
    "Cisco",
    "SMC",
    "ZyXEL",
    "3Com",
)
OS_VENDORS = ("Windows", "Linux", "FreeBSD")


@dataclass
class Table1Row:
    """One aggregated row (counts measured by running NAT Check)."""

    vendor: str
    udp: Tuple[int, int]
    udp_hairpin: Tuple[int, int]
    tcp: Tuple[int, int]
    tcp_hairpin: Tuple[int, int]

    @staticmethod
    def _fmt(count: Tuple[int, int]) -> str:
        n, d = count
        if d == 0:
            return "-"
        percent = int(100 * n / d + 0.5)  # round half up, as the paper does
        return f"{n}/{d} ({percent}%)"

    def cells(self) -> List[str]:
        return [
            self.vendor,
            self._fmt(self.udp),
            self._fmt(self.udp_hairpin),
            self._fmt(self.tcp),
            self._fmt(self.tcp_hairpin),
        ]


def _aggregate(reports: List[NatCheckReport]) -> Tuple[Tuple[int, int], ...]:
    udp = (sum(1 for r in reports if r.udp_punch_ok), len(reports))
    hp_reports = [r for r in reports if r.udp_hairpin is not None]
    udp_hp = (sum(1 for r in hp_reports if r.udp_hairpin), len(hp_reports))
    tcp_reports = [r for r in reports if r.tcp_tested]
    tcp = (sum(1 for r in tcp_reports if r.tcp_punch_ok), len(tcp_reports))
    tcp_hp_reports = [r for r in reports if r.tcp_hairpin is not None]
    tcp_hp = (sum(1 for r in tcp_hp_reports if r.tcp_hairpin), len(tcp_hp_reports))
    return udp, udp_hp, tcp, tcp_hp


def table1_rows(reports_by_vendor: Dict[str, List[NatCheckReport]]) -> List[Table1Row]:
    """Aggregate measured reports into Table 1 rows plus the totals row."""
    rows = []
    everything: List[NatCheckReport] = []
    for vendor, reports in reports_by_vendor.items():
        udp, udp_hp, tcp, tcp_hp = _aggregate(reports)
        rows.append(Table1Row(vendor, udp, udp_hp, tcp, tcp_hp))
        everything.extend(reports)
    udp, udp_hp, tcp, tcp_hp = _aggregate(everything)
    rows.append(Table1Row("All Vendors", udp, udp_hp, tcp, tcp_hp))
    return rows


def _row(cells: List[str], widths: List[int]) -> str:
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()


def render_table1(
    reports_by_vendor: Dict[str, List[NatCheckReport]],
    compare_with_paper: bool = True,
) -> str:
    """Render the measured Table 1 (paper §6.2 format)."""
    rows = table1_rows(reports_by_vendor)
    header = ["NAT", "UDP punch", "UDP hairpin", "TCP punch", "TCP hairpin"]
    lines = []
    widths = [14, 16, 16, 16, 16]

    def emit(cells: List[str]) -> None:
        lines.append(_row(cells, widths))

    emit(header)
    emit(["-" * w for w in widths])
    by_name = {row.vendor: row for row in rows}
    ordered = [v for v in HARDWARE_VENDORS if v in by_name]
    if ordered:
        lines.append("NAT Hardware")
        for vendor in ordered:
            emit(by_name[vendor].cells())
    os_rows = [v for v in OS_VENDORS if v in by_name]
    if os_rows:
        lines.append("OS-based NAT")
        for vendor in os_rows:
            emit(by_name[vendor].cells())
    for row in rows:
        if row.vendor in HARDWARE_VENDORS or row.vendor in OS_VENDORS:
            continue
        if row.vendor == "All Vendors":
            continue
        emit(row.cells())
    emit(["-" * w for w in widths])
    emit(by_name["All Vendors"].cells())
    if compare_with_paper:
        paper = PAPER_TABLE1["All Vendors"]
        lines.append("")
        lines.append(
            "paper totals: UDP {} | UDP hairpin {} | TCP {} | TCP hairpin {}".format(
                *(Table1Row._fmt(c) for c in paper)
            )
        )
    return "\n".join(lines)


def render_design_space(survey: Dict[str, object]) -> str:
    """Render :func:`~repro.natcheck.fleet.survey_design_space`: Table 1's
    four columns per axis option, over the cells holding that option fixed,
    then over every cell."""
    widths = [12, 28, 16, 16, 16, 16]
    rule = _row(["-" * w for w in widths], widths)

    def counts(columns: Dict[str, Dict[str, object]]) -> List[str]:
        return [Table1Row._fmt((c["successes"], c["trials"])) for c in columns.values()]

    lines = [
        f"NAT Check (all four tests) once on each of the {survey['cells']} cells of",
        f"{' x '.join(survey['sensitivity'])} (seed {survey['seed']}); exact counts",
        "",
        _row(["axis", "option", "UDP punch", "UDP hairpin", "TCP punch", "TCP hairpin"], widths),
        rule,
    ]
    for axis, options in survey["sensitivity"].items():
        for option, columns in options.items():
            lines.append(_row([axis, option] + counts(columns), widths))
    lines.append(rule)
    lines.append(_row(["all cells", ""] + counts(survey["columns"]), widths))
    return "\n".join(lines)


#: The latency columns of the appendix: report field -> column header.
_LATENCY_FIELDS = (("udp_probe_rtt", "UDP probe RTT"), ("tcp_connect_rtt", "TCP connect RTT"))


def latency_histograms(
    reports_by_vendor: Dict[str, List[NatCheckReport]],
) -> Dict[str, Dict[str, Histogram]]:
    """Punch-latency distributions per vendor (virtual seconds).

    Pools each report's ``udp_probe_rtt`` / ``tcp_connect_rtt`` observations
    into :class:`~repro.obs.metrics.Histogram` objects, keyed by field name,
    plus an ``"All Vendors"`` entry aggregating the whole fleet.  Reports
    whose probe never completed (``None``) are excluded — their absence is
    already visible in the Table 1 numerators.
    """
    out: Dict[str, Dict[str, Histogram]] = {}
    pooled = {f: Histogram(f) for f, _ in _LATENCY_FIELDS}
    for vendor, reports in reports_by_vendor.items():
        hists = {f: Histogram(f) for f, _ in _LATENCY_FIELDS}
        for report in reports:
            for f, _ in _LATENCY_FIELDS:
                value = getattr(report, f)
                if value is not None:
                    hists[f].observe(value)
                    pooled[f].observe(value)
        out[vendor] = hists
    out["All Vendors"] = pooled
    return out


def render_latency_appendix(
    reports_by_vendor: Dict[str, List[NatCheckReport]],
) -> str:
    """The punch-latency appendix printed beneath Table 1.

    One row per vendor (same hardware/OS ordering as the table) showing
    p50/p95/p99 virtual-time latency of the first UDP probe echo and the
    first TCP connect, with sample counts.
    """
    hists = latency_histograms(reports_by_vendor)

    def _fmt(hist: Histogram) -> str:
        if not hist.count:
            return "-"
        return f"{hist.p50:.3f}/{hist.p95:.3f}/{hist.p99:.3f}s (n={hist.count})"

    header = ["NAT"] + [label + " p50/p95/p99" for _, label in _LATENCY_FIELDS]
    widths = [14, 30, 30]
    lines = ["Punch latency (virtual seconds)"]

    def emit(cells: List[str]) -> None:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())

    emit(header)
    emit(["-" * w for w in widths])
    ordered = [v for v in HARDWARE_VENDORS + OS_VENDORS if v in hists]
    ordered += [v for v in hists if v not in ordered and v != "All Vendors"]
    ordered.append("All Vendors")
    for vendor in ordered:
        emit([vendor] + [_fmt(hists[vendor][f]) for f, _ in _LATENCY_FIELDS])
    return "\n".join(lines)


#: Table 1 column order for the attribution appendix's phase sections.
_ATTRIBUTION_PHASES = (
    ("udp", "UDP punch"),
    ("udp-hairpin", "UDP hairpin"),
    ("tcp", "TCP punch"),
    ("tcp-hairpin", "TCP hairpin"),
)


def render_attribution_appendix(totals: Dict[str, Dict[str, int]]) -> str:
    """The failure-attribution appendix printed beneath Table 1.

    *totals* comes from :meth:`~repro.natcheck.fleet.FleetResult.attribution_totals`:
    per test phase, how many failed devices the flight recorder attributed to
    each root-cause category.  Each phase total equals that Table 1 column's
    failure count (denominator minus numerator) by construction — the phase
    attempts use the same pass/fail predicates the table aggregation does.
    """
    from repro.obs.attribution import CATEGORIES

    lines = ["Failure attribution (flight-recorder root causes)"]
    if not any(totals.get(phase) for phase, _ in _ATTRIBUTION_PHASES):
        lines.append("  no failures attributed (or no flight recorder attached)")
        return "\n".join(lines)
    for phase, label in _ATTRIBUTION_PHASES:
        counts = totals.get(phase)
        if not counts:
            continue
        total = sum(counts.values())
        lines.append(f"{label}: {total} failed")
        ordered = [c for c in CATEGORIES if c in counts]
        ordered += sorted(c for c in counts if c not in CATEGORIES)
        for category in ordered:
            lines.append(f"  {category.ljust(28)}{counts[category]}")
    return "\n".join(lines)
