"""CLI entry point: ``python -m repro.analysis [--quick] [--seed N]``.

``--explain <scenario>`` runs a named failure scenario with the flight
recorder attached and prints the attribution post-mortem instead of the
full report (see :mod:`repro.analysis.explain` for the scenario list).

``--robustness`` runs the adversarial sweep instead: every attack family
from :mod:`repro.netsim.adversary` against the Table 1 fleet in
baseline / attacked / hardened modes (see :mod:`repro.analysis.robustness`).

The exit status is 1 when the report has a failing section or the
robustness sweep a family whose hardening regressed, else 0.
"""

import argparse
import sys

from repro.analysis.explain import SCENARIOS  # ``choices=`` needs the names


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate every table/figure of the hole-punching paper.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="skip the 380-device Table 1 fleet")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--explain", metavar="SCENARIO",
                        choices=sorted(SCENARIOS),
                        help="run one failure scenario and print its "
                             "flight-recorder post-mortem "
                             f"({', '.join(sorted(SCENARIOS))})")
    parser.add_argument("--dump-dir", metavar="DIR",
                        help="with --explain: also write the flight log "
                             "(JSONL) and Chrome trace to this directory")
    parser.add_argument("--robustness", action="store_true",
                        help="print the robustness-under-adversity report "
                             "(attack x hardening sweep over the Table 1 "
                             "fleet) instead of the paper tables; --quick "
                             "keeps a small diverse behaviour subset")
    args = parser.parse_args()
    status = 0
    try:
        if args.explain:
            from repro.analysis.explain import render_explanation

            print(render_explanation(args.explain, seed=args.seed,
                                     dump_dir=args.dump_dir))
        elif args.robustness:
            from repro.analysis.robustness import (
                FAMILIES, render_robustness, run_robustness,
            )

            report = run_robustness(seed=args.seed, quick=args.quick)
            status = int(not all(report.hardening_wins(f) for f in FAMILIES))
            print(render_robustness(report))
        else:
            from repro.analysis.report import render_report, report_sections

            sections = report_sections(seed=args.seed, quick=args.quick)
            status = int(not all(section.passed for section in sections))
            print(render_report(sections))
    except BrokenPipeError:  # output piped into head etc.
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
