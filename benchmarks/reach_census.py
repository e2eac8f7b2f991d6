"""Reach census: the ``src/`` functions that no traffic calls.

Runs the traffic set — the five end-to-end workloads at smoke size, the full
reproduction report, every ``--explain`` scenario, ``--robustness --quick``,
the examples, ``python -m repro.natcheck`` and ``benchmarks/test_*.py`` —
with a ``sys.setprofile`` hook in every interpreter it starts (a
``sitecustomize.py`` on ``PYTHONPATH``, so child processes are counted too),
then lists every function or method under ``src/`` whose code object no
process entered.  ``tests/`` is deliberately not traffic: a function only a
test calls is what this census is for.

The list is ``benchmarks/reach_unreached.txt``, one ``path::qualname`` per
line.  The script rewrites it and exits 1 when it changed in either
direction: a function that joined the list is new code nothing runs, and an
entry that left it was deleted or gained a caller, which the change that
did so says.  It exits 1 too when a traffic command fails.

A code object is keyed by its file and first line and resolved to a
qualified name through the ``ast`` of that file (``co_qualname`` is 3.11+),
so a decorated definition is keyed by its first decorator's line.  Only
functions at module level or inside classes are listed; a class's own body
always runs on import and says nothing.

Run:  python benchmarks/reach_census.py      (one to four minutes)
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTING = os.path.join(ROOT, "benchmarks", "reach_unreached.txt")

#: Installed as ``sitecustomize`` in every traffic interpreter.  With
#: ``REACH_OUT`` set it records each code object entered and, at exit, writes
#: the ``[path, first line]`` of those under ``REACH_SRC`` to one JSON file
#: per process.
HOOK = '''\
import atexit, json, os, sys, threading
if os.environ.get("REACH_OUT"):
    _seen = set()
    _cwd = os.getcwd()
    def _hook(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)
    def _dump():
        sys.setprofile(None)
        root = os.path.realpath(os.environ["REACH_SRC"]) + os.sep
        rows = set()
        for code in _seen:
            path = os.path.realpath(os.path.join(_cwd, code.co_filename))
            if path.startswith(root):
                rows.add((path, code.co_firstlineno))
        name = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.json")
        with open(name, "w") as handle:
            json.dump(sorted(rows), handle)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    atexit.register(_dump)
'''

Key = Tuple[str, int]


def definitions(root: str) -> Dict[Key, str]:
    """``(absolute path, first line) -> "path::qualname"`` for every function
    under *root*/``src`` at module level or inside a class; *path* in the
    value is relative to *root*."""
    found: Dict[Key, str] = {}

    def visit(body, path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                found[(path, first)] = f"{rel}::{prefix}{node.name}"

    pattern = os.path.join(root, "src", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        path = os.path.realpath(path)
        with open(path, encoding="utf-8") as handle:
            visit(ast.parse(handle.read(), path).body, path, "")
    return found


def run_traffic(root: str, commands: Iterable[Sequence[str]]) -> Set[Key]:
    """Run each command from *root* under the hook; the ``(path, first
    line)`` of every ``src/`` code object any of their processes entered.
    Raises ``SystemExit`` naming the first command that fails."""
    entered: Set[Key] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook_dir, out_dir = os.path.join(scratch, "hook"), os.path.join(scratch, "out")
        os.mkdir(hook_dir)
        os.mkdir(out_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        python_path = [hook_dir, os.path.join(root, "src"), root]
        if os.environ.get("PYTHONPATH"):
            python_path.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, REACH_OUT=out_dir, REACH_SRC=os.path.join(root, "src"),
                   PYTHONPATH=os.pathsep.join(python_path))
        for command in commands:
            done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                tail = (done.stdout + done.stderr).splitlines()[-30:]
                raise SystemExit("\n".join([f"traffic failed ({done.returncode}): "
                                            + " ".join(command), *tail]))
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name)) as handle:
                entered.update((path, line) for path, line in json.load(handle))
    return entered


def unreached(root: str, entered: Set[Key]) -> List[str]:
    """The ``path::qualname`` of every definition no entered code object
    resolves to, in file then source order.  Two definitions sharing a
    qualified name (a property's getter and setter) count as one."""
    defined = definitions(root)
    seen = {defined[key] for key in entered if key in defined}
    listed: List[str] = []
    for key in sorted(defined):
        if defined[key] not in seen:
            seen.add(defined[key])
            listed.append(defined[key])
    return listed


def traffic(dump_dir: str) -> List[List[str]]:
    """The traffic set, each command run from the repository root; the
    ``--explain`` runs write their flight dumps to *dump_dir*."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.analysis.explain import SCENARIOS

    python = sys.executable
    commands = [
        [python, "benchmarks/e2e/run.py", "--smoke"],
        [python, "-m", "repro.analysis"],
        *([python, "-m", "repro.analysis", "--explain", name, "--dump-dir", dump_dir]
          for name in sorted(SCENARIOS)),
        [python, "-m", "repro.analysis", "--robustness", "--quick"],
        [python, "-m", "repro.natcheck"],
    ]
    for example in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        quick = ["--quick"] if example.endswith("natcheck_survey.py") else []
        commands.append([python, os.path.relpath(example, ROOT), *quick])
    tests = sorted(os.path.relpath(p, ROOT)
                   for p in glob.glob(os.path.join(ROOT, "benchmarks", "test_*.py")))
    commands.append([python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--benchmark-disable", *tests])
    return commands


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-dump-") as dump_dir:
        fresh = unreached(ROOT, run_traffic(ROOT, traffic(dump_dir)))
    try:
        with open(LISTING, encoding="utf-8") as handle:
            committed = handle.read().splitlines()
    except FileNotFoundError:
        committed = []
    with open(LISTING, "w", encoding="utf-8") as handle:
        handle.writelines(f"{entry}\n" for entry in fresh)
    joined = [entry for entry in fresh if entry not in committed]
    left = [entry for entry in committed if entry not in fresh]
    print(f"{len(fresh)} src/ functions no traffic runs "
          f"({len(joined)} joined, {len(left)} left the committed list)")
    for entry in joined:
        print(f"+ {entry}")
    for entry in left:
        print(f"- {entry}")
    return 1 if joined or left else 0


if __name__ == "__main__":
    sys.exit(main())
