"""Execution probe: which ``src/repro`` functions do the shipped roots
never enter?

The import-reachability gate (``tests/test_reachability.py``) proves
that some root imports each module; it cannot see a function nothing
calls.  This script runs the roots — the five paper drivers at small n,
every ``examples/*.py`` and every step of CI's workflow
(``.github/workflows/ci.yml``) that calls ``python -m repro`` and no
pytest, read from that file — with ``sitecustomize.py`` from this
directory on ``PYTHONPATH``, so each process they start (pool workers
and fleet worker subprocesses too) records the functions it enters.  A
command added to such a step is a root without an edit here.  It then
prints, per module, the functions defined under ``src/repro`` that no
root entered, each with its verdict from ``verdicts.txt`` beside this
script, and their total.

It is a gate: it exits 1 when an unentered function has no verdict, when
a verdict names a function that a root now enters or that no longer
exists, when the verdict file is malformed, or when a root itself does
not exit 0.  CI steps that run pytest and the benchmark scripts are not
roots.

    python tests/probe/execution_probe.py            # from the repo root
"""

from __future__ import annotations

import ast
import glob
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import time
from collections import Counter
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
PROBE = os.path.dirname(os.path.abspath(__file__))
VERDICTS = os.path.join(PROBE, "verdicts.txt")

#: Why an unentered function stays: it is abstract (or a no-op base
#: method), an oracle tests compare shipped code against, patched by name
#: by ``benchmarks/e2e``, or part of ROADMAP item 2's batch engine.
#: ``bench:<file>`` names the paper benchmark that enters it;
#: ``tier1:<file>`` the test that takes a safety path no root can reach
#: (``TIER1_SAFETY`` in ``tests/test_execution_probe.py`` lists them).
REASONS = ("abstract", "oracle", "e2e", "item-2")
FILE_REASONS = {"bench": "benchmarks/bench_", "tier1": "tests/"}

#: Paper drivers at small n: ``repro`` argv.
PAPER = [
    ["table1", "-n", "16", "--seeds", "1"],
    ["table2", "-n", "8", "--seeds", "1"],
    ["theorem1", "-n", "32", "-f", "8", "--seeds", "1"],
    ["corollary2", "-n", "32", "-f", "8", "--seeds", "1"],
    ["scaling", "--min-n", "8", "--max-n", "16", "--seeds", "1"],
]

CI = os.path.join(ROOT, ".github", "workflows", "ci.yml")


def ci_steps(path: str = CI) -> List[Tuple[str, str]]:
    """``(name, run script)`` of every step of a workflow file that has a
    ``run:`` key, in file order.

    Reads only the YAML the workflow writes, without a YAML library (the
    tier-1 legs install none): a step starts at a ``- `` list item, and
    its ``run:`` value is the rest of its line, or a literal ``|`` block
    or a folded ``>`` block of the lines indented deeper than the key.
    """
    steps: List[Tuple[str, str]] = []
    lines = open(path, encoding="utf-8").read().splitlines()
    name = ""
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        match = re.match(r"( *)(- )?(name|run): ?(.*)$", line)
        if match is None:
            if re.match(r" *- ", line):
                name = ""
            continue
        indent, item, key, value = match.groups()
        if item:
            name = ""
        if key == "name":
            name = value
            continue
        if value[:1] not in ("|", ">"):
            steps.append((name, value))
            continue
        depth = len(indent) + len(item or "")
        block = []
        while index < len(lines) and (
                not lines[index].strip()
                or len(lines[index]) - len(lines[index].lstrip()) > depth):
            block.append(lines[index])
            index += 1
        text = textwrap.dedent("\n".join(block)).strip("\n")
        if value.startswith(">"):
            text = " ".join(text.split("\n"))
        steps.append((name, text + "\n"))
    return steps


def smoke_steps(path: str = CI) -> List[Tuple[str, str]]:
    """The workflow steps that call ``python -m repro`` and no pytest."""
    return [(name, script) for name, script in ci_steps(path)
            if re.search(r"-m repro\b", script) and "pytest" not in script]


def roots(tmp: str) -> List[Tuple[str, List[str]]]:
    """Every root as ``(label, argv)``; each must exit 0.

    A smoke step runs as CI runs it (``bash -e``) from the repo root, with
    its ``/tmp/`` paths moved into ``tmp`` so runs never share files."""
    repro = [sys.executable, "-m", "repro"]
    out = [(" ".join(argv), repro + argv) for argv in PAPER]
    out += [(os.path.relpath(path, ROOT), [sys.executable, path])
            for path in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                      "*.py")))]
    out += [(f"ci: {name}", ["bash", "-e", "-c",
                             script.replace("/tmp/", tmp + "/")])
            for name, script in smoke_steps()]
    return out


def definitions() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """``(path, first line) -> (module, qualname, lines)`` for every
    function defined under ``src/repro``; the first line is the one a
    code object reports (a decorator's, if the function has any)."""
    found = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        module = os.path.relpath(path, PACKAGE)
        tree = ast.parse(open(path, encoding="utf-8").read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found[(path, first)] = (
                        module, name, child.end_lineno - first + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def function_key(module: str, name: str) -> str:
    """``repro.sim.engine:Simulation.fork`` for the ``Simulation.fork``
    that :func:`definitions` reports in ``sim/engine.py``."""
    parts = module[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro"] + parts) + ":" + name


def valid_reason(reason: str) -> bool:
    if reason in REASONS:
        return True
    kind, _, path = reason.partition(":")
    prefix = FILE_REASONS.get(kind)
    return (prefix is not None and path.startswith(prefix)
            and os.path.isfile(os.path.join(ROOT, path)))


def read_verdicts(keys: Set[str], path: str = VERDICTS
                  ) -> Tuple[Dict[str, str], List[str]]:
    """The verdict file as ``{key: reason}``, and what is wrong with it:
    a duplicate key, a reason outside the closed set, or a key that
    names no function defined under ``src/repro`` (``keys``)."""
    verdicts: Dict[str, str] = {}
    errors = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            where = f"{os.path.basename(path)}:{number}"
            if len(fields) != 2:
                errors.append(f"{where}: expected '<module>:<qualname> "
                              f"<reason>', got {line.strip()!r}")
                continue
            key, reason = fields
            if key in verdicts:
                errors.append(f"{where}: duplicate verdict for {key}")
            if not valid_reason(reason):
                errors.append(f"{where}: reason {reason!r} is not one of "
                              f"{', '.join(REASONS)}, bench:<file>, "
                              f"tier1:<file>")
            if key not in keys:
                errors.append(f"{where}: {key} is not defined")
            verdicts[key] = reason
    return verdicts, errors


def entered(record: str) -> Set[Tuple[str, int]]:
    seen = set()
    with open(record, encoding="utf-8") as handle:
        for line in handle:
            path, _, first = line.rstrip("\n").rpartition(":")
            seen.add((os.path.realpath(path), int(first)))
    return seen


def run_roots(tmp: str) -> Tuple[Set[Tuple[str, int]], int, List[str]]:
    """Run every root with the hook on; ``(entered, roots, broken)``.
    ``python`` on the smoke steps' ``PATH`` is this interpreter."""
    bin_dir = os.path.join(tmp, "bin")
    os.mkdir(bin_dir)
    python = os.path.join(bin_dir, "python")
    with open(python, "w", encoding="utf-8") as out:
        out.write(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    os.chmod(python, 0o755)
    record = os.path.join(tmp, "entered.txt")
    env = {**os.environ, "REPRO_PROBE_OUT": record,
           "PYTHONPATH": os.pathsep.join([PROBE, SRC]),
           "PATH": os.pathsep.join([bin_dir, os.environ.get("PATH", "")])}
    broken = []
    commands = roots(tmp)
    for label, command in commands:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            broken.append(label)
            print(f"root exited {proc.returncode}: {label}\n"
                  f"{proc.stdout[-2000:]}", file=sys.stderr)
    return entered(record), len(commands), broken


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-probe-") as tmp:
        seen, count_roots, broken = run_roots(tmp)
    seconds = time.monotonic() - start

    defined = definitions()
    keys = {function_key(module, name)
            for module, name, _ in defined.values()}
    verdicts, errors = read_verdicts(keys)
    unentered: Dict[str, List[Tuple[str, int, int]]] = {}
    for (path, first), (module, name, lines) in defined.items():
        if (os.path.realpath(path), first) not in seen:
            unentered.setdefault(module, []).append((name, first, lines))
    unentered_keys = {function_key(module, name)
                      for module, functions in unentered.items()
                      for name, _, _ in functions}
    total_lines = 0
    for module in sorted(unentered, key=lambda m: (
            -sum(lines for _, _, lines in unentered[m]), m)):
        functions = unentered[module]
        lines = sum(count for _, _, count in functions)
        total_lines += lines
        print(f"{module}: {len(functions)} unentered ({lines} lines)")
        for name, first, count in functions:
            verdict = verdicts.get(function_key(module, name), "NO VERDICT")
            print(f"    {name}:{first} ({count}) {verdict}")
    errors += [f"no verdict: {key}"
               for key in sorted(unentered_keys - set(verdicts))]
    errors += [f"verdict for a function a root enters: {key}"
               for key in sorted(set(verdicts) & keys - unentered_keys)]
    count = sum(len(functions) for functions in unentered.values())
    by_reason = Counter(verdicts[key].partition(":")[0]
                        for key in unentered_keys & set(verdicts))
    print(f"unentered: {count} of {len(defined)} functions "
          f"({total_lines} lines) after {count_roots} roots in "
          f"{seconds:.0f} s; verdicts: " + ", ".join(
              f"{reason} {n}" for reason, n in sorted(by_reason.items())))
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if broken or errors else 0


if __name__ == "__main__":
    sys.exit(main())
