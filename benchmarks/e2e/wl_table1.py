"""``table1_survey``: the paper's own evaluation, one op per device.

The untraced repetition is exactly what a user runs —
``run_fleet(VENDOR_SPECS, seed, workers=1, cache=False)`` + ``table1_rows``.
The span pass replays the same fleet device by device through the public
building blocks ``run_fleet`` is made of (``device_behavior`` →
``device_fingerprint`` → ``build_check_network`` → ``client.run`` +
``run_while``), so the driver can put a span around topology build and
around simulation, and read each device's network counters — the reports it
produces must hash to the same outcome digest as ``run_fleet``'s.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.natcheck.fleet import (
    VENDOR_SPECS,
    build_check_network,
    device_behavior,
    device_config,
    device_fingerprint,
    run_fleet,
)
from repro.natcheck.table import PAPER_TABLE1, table1_rows

from simcounts import merge, network_counts
from workloads import RepResult, Workload

#: One device's NAT Check must finish within this much virtual time
#: (``check_device``'s own default).
DEVICE_DEADLINE = 60.0


class Table1Survey(Workload):
    name = "table1_survey"

    def setup(self, spans) -> None:
        # Smoke mode keeps the two largest vendor rows: same code path, ~1/5
        # of the devices.
        self.specs = VENDOR_SPECS[:2] if self.smoke else VENDOR_SPECS

    def repetition(self, spans) -> RepResult:
        result = RepResult()
        result.ops = sum(spec.population for spec in self.specs)
        try:
            if spans.active:
                reports = self._device_by_device(spans, result)
            else:
                reports = run_fleet(
                    self.specs, seed=self.seed, workers=1, cache=False
                ).reports
        except RuntimeError as exc:  # a NAT Check that never completed
            result.failed = result.ops
            result.errors.append(f"fleet did not complete: {exc}")
            return result
        with spans.span("natcheck.table.aggregate"):
            rows = table1_rows(reports)
        self._check(reports, rows, result)
        return result

    def _device_by_device(self, spans, result: RepResult) -> Dict[str, list]:
        reports: Dict[str, list] = {}
        for spec in self.specs:
            vendor_reports = reports[spec.name] = []
            for index in range(spec.population):
                op = f"{spec.name}-{index}"
                behavior = device_behavior(spec, index)
                config = device_config(spec, index)
                fingerprint = device_fingerprint(behavior, config, self.seed)
                with spans.span("natcheck.fleet.build", op):
                    net, client = build_check_network(
                        behavior, config, seed=fingerprint.seed
                    )
                done: List[object] = []
                with spans.span("natcheck.fleet.simulate", op):
                    client.run(done.append)
                    net.scheduler.run_while(lambda: not done, DEVICE_DEADLINE)
                if not done:
                    raise RuntimeError(f"NAT Check of {op} did not complete")
                report = done[0]
                report.vendor = spec.name
                report.device = op
                vendor_reports.append(report)
                started = time.perf_counter()
                merge(result.counts, network_counts(net))
                result.untimed_s += time.perf_counter() - started
        return reports

    def _check(self, reports, rows, result: RepResult) -> None:
        """Rows must equal the paper's Table 1 cell for cell."""
        measured = {row.vendor: (row.udp, row.udp_hairpin, row.tcp, row.tcp_hairpin)
                    for row in rows}
        for spec in self.specs:
            expected = (spec.udp, spec.udp_hairpin, spec.tcp, spec.tcp_hairpin)
            paper = PAPER_TABLE1.get(spec.name, expected)
            if measured.get(spec.name) != expected or expected != paper:
                result.errors.append(
                    f"Table 1 row {spec.name}: measured {measured.get(spec.name)}, "
                    f"paper {paper}"
                )
        if self.specs is VENDOR_SPECS:
            # The paper's TCP-hairpin total (37) contradicts its own vendor
            # rows (40); the three consistent totals are pinned exactly.
            if measured["All Vendors"][:3] != PAPER_TABLE1["All Vendors"][:3]:
                result.errors.append(
                    f"Table 1 totals: measured {measured['All Vendors'][:3]}, "
                    f"paper {PAPER_TABLE1['All Vendors'][:3]}"
                )
        verdicts = unknown = 0
        for vendor_reports in reports.values():
            for report in vendor_reports:
                result.outcomes.append(report.to_dict())
                for category in report.failure_attribution.values():
                    verdicts += 1
                    unknown += category == "unknown"
        result.counts["obs.attribution.verdicts"] = verdicts
        result.counts["obs.attribution.unknown_verdicts"] = unknown
        if unknown:
            result.errors.append(f"{unknown} 'unknown' failure attributions")
