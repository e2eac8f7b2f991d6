"""Byte-identical surfaces: the printed output of a parent commit and of the
working tree, compared file by file.

A change that claims "no observable change" must leave three surfaces
byte-identical: the eight ``--explain`` post-mortems with their flight JSONL
and Chrome-trace dumps, ``--robustness --quick`` and the full report.  This
script extracts both sides with ``git archive`` (the working tree, untracked
files included and ``.gitignore`` honoured, through a scratch index, so the
real index is untouched), runs every surface on each side with
``PYTHONPATH=src``, and compares them after one normalisation: the
``flight log:`` / ``chrome trace:`` lines, which print the dump paths, are
dropped and each ``(N.NNs wall)`` stamp reads ``(wall)``.  A command's exit
status is part of its surface.

It prints a unified diff for every file that differs, names it, and exits 1;
it exits 0 when everything is identical, and 2 when a command printed
nothing (a side that cannot run has no surface to compare).  Nothing in the
library keeps state between runs, so neither side depends on what ran
before it.

Run:  python benchmarks/surfaces.py <parent-ref>      (about 10 s per side)
"""

from __future__ import annotations

import difflib
import os
import re
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPLAIN_SCENARIOS = (
    "exhaustion-flood", "hairpin-udp", "loss-storm", "nat-reboot", "rst-tcp",
    "server-dead", "spoofed-rst", "symmetric-udp",
)

_DUMP_PATH_LINE = re.compile(r"^(flight log|chrome trace): .*\n?", re.MULTILINE)
_WALL_STAMP = re.compile(r"[0-9.]*s wall")


def _git(*args: str, env: Optional[Dict[str, str]] = None) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True
    ).stdout


def working_tree() -> str:
    """The working tree as a tree id, untracked files included."""
    with tempfile.TemporaryDirectory(prefix="surfaces-index-") as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


def extract(tree_ish: str, into: str) -> None:
    os.makedirs(into)
    subprocess.run(["tar", "-x", "-C", into], input=_git("archive", tree_ish), check=True)


def normalise(text: str) -> str:
    return _WALL_STAMP.sub("wall", _DUMP_PATH_LINE.sub("", text))


def run_surfaces(checkout: str, out: str) -> Dict[str, str]:
    """Run every surface from *checkout*; the dumps go under *out*.  Returns
    name -> normalised output, exit status last."""
    env = dict(os.environ, PYTHONPATH="src")
    dump_dir = os.path.join(out, "dump")
    commands = {
        f"explain-{scenario}.txt": ["--explain", scenario, "--dump-dir", dump_dir]
        for scenario in EXPLAIN_SCENARIOS
    }
    commands["robustness.txt"] = ["--robustness", "--quick"]
    commands["report.txt"] = []
    outputs = {}
    for name, args in commands.items():
        done = subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            cwd=checkout, env=env, capture_output=True, text=True,
        )
        if not done.stdout:
            print(f"{checkout}: python -m repro.analysis {' '.join(args)} printed nothing\n"
                  + done.stderr[-2000:], file=sys.stderr)
            sys.exit(2)
        outputs[name] = normalise(done.stdout) + f"exit status: {done.returncode}\n"
    for folder, _, files in os.walk(dump_dir):
        for file in files:
            path = os.path.join(folder, file)
            with open(path, encoding="utf-8") as handle:
                outputs[os.path.relpath(path, out)] = handle.read()
    return outputs


def compare(parent: Dict[str, str], change: Dict[str, str]) -> List[str]:
    """Names of the surfaces that differ; prints each one's diff."""
    differing = []
    for name in sorted(set(parent) | set(change)):
        before, after = parent.get(name), change.get(name)
        if before == after:
            continue
        differing.append(name)
        print(f"DIFF {name}")
        if before is None or after is None:
            print(f"  only in the {'change' if before is None else 'parent'}")
            continue
        sys.stdout.writelines(difflib.unified_diff(
            before.splitlines(keepends=True), after.splitlines(keepends=True),
            f"parent/{name}", f"change/{name}",
        ))
    return differing


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python benchmarks/surfaces.py <parent-ref>", file=sys.stderr)
        return 2
    sides = {"parent": argv[0], "change": working_tree()}
    outputs = {}
    with tempfile.TemporaryDirectory(prefix="surfaces-") as scratch:
        for side, tree_ish in sides.items():
            checkout = os.path.join(scratch, side)
            extract(tree_ish, checkout)
            outputs[side] = run_surfaces(checkout, os.path.join(scratch, f"out-{side}"))
    differing = compare(outputs["parent"], outputs["change"])
    total = len(set(outputs["parent"]) | set(outputs["change"]))
    if differing:
        print(f"{len(differing)} of {total} surface files differ from {argv[0]}")
        return 1
    print(f"{total} surface files byte-identical to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
