"""CLI: run NAT Check against a simulated device.

    python -m repro.natcheck --behavior well-behaved
    python -m repro.natcheck --behavior symmetric --seed 3
    python -m repro.natcheck --list

Mirrors the workflow of the paper's distributed NAT Check tool (§6.1), with
the NAT under test selected from the behaviour presets.
"""

import argparse

from repro.nat import behavior as B

PRESETS = {
    "well-behaved": B.WELL_BEHAVED,
    "full-cone": B.FULL_CONE,
    "symmetric": B.SYMMETRIC,
    "symmetric-predictable": B.SYMMETRIC_PREDICTABLE,
    "symmetric-random": B.SYMMETRIC_RANDOM,
    "rst-sender": B.RST_SENDER,
    "icmp-sender": B.ICMP_SENDER,
    "hairpin": B.HAIRPIN_CAPABLE,
    "unfiltered": B.UNFILTERED,
    "payload-mangler": B.PAYLOAD_MANGLER,
    "short-timeout": B.SHORT_TIMEOUT,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.natcheck",
        description="Run the paper's NAT Check protocol against a simulated NAT.",
    )
    parser.add_argument("--behavior", choices=sorted(PRESETS), default="well-behaved")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--list", action="store_true", help="list presets and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(PRESETS):
            behavior = PRESETS[name]
            print(f"{name:22s} udp_friendly={behavior.udp_punch_friendly} "
                  f"tcp_friendly={behavior.tcp_punch_friendly} hairpin={behavior.hairpin}")
        return 0
    # After parse_args: --list, --help and usage errors need only the presets.
    from repro.natcheck.fleet import check_device

    behavior = PRESETS[args.behavior]
    report = check_device(behavior, seed=args.seed)
    print(f"device behaviour : {args.behavior}")
    print(f"virtual duration : {report.elapsed:.1f}s")
    print(f"UDP endpoints    : s1={report.udp_ep1}  s2={report.udp_ep2}")
    print(f"TCP endpoints    : s1={report.tcp_ep1}  s2={report.tcp_ep2}")
    print(f"classification   : {report.summary()}")
    ground_udp, ground_tcp = behavior.udp_punch_friendly, behavior.tcp_punch_friendly
    match = report.udp_punch_ok == ground_udp and report.tcp_punch_ok == ground_tcp
    print(f"matches ground truth: {match}")
    return 0 if match else 1


if __name__ == "__main__":
    raise SystemExit(main())
