"""Execution probe: which ``src/repro`` functions do the shipped roots
never enter?

The import-reachability gate (``tests/test_reachability.py``) proves
that some root imports each module; it cannot see a function nothing
calls.  This script runs the roots — the five paper drivers at small n,
every ``examples/*.py`` and the commands CI's smoke steps run — with
``sitecustomize.py`` from this directory on ``PYTHONPATH``, so each
process they start (pool workers and fleet worker subprocesses too)
records the functions it enters.  It then prints, per module, the
functions defined under ``src/repro`` that no root entered, and their
total.

It is a report, not a gate: it exits 1 only when a root itself does not
end with the exit code it should, which means the probe is broken.
CI steps that run pytest files and the benchmark scripts are not roots.

    python tests/probe/execution_probe.py            # from the repo root
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
PROBE = os.path.dirname(os.path.abspath(__file__))

#: Paper drivers at small n: ``repro`` argv.
PAPER = [
    ["table1", "-n", "16", "--seeds", "1"],
    ["table2", "-n", "8", "--seeds", "1"],
    ["theorem1", "-n", "32", "-f", "8", "--seeds", "1"],
    ["corollary2", "-n", "32", "-f", "8", "--seeds", "1"],
    ["scaling", "--min-n", "8", "--max-n", "16", "--seeds", "1"],
]

#: Files the smoke commands read, written into the scratch directory.
FILES = {
    "spec_sears_epz.json": {"algorithm": "sears", "n": 64,
                            "params": {"epz": 0.25}},
    "spec_interval.json": {"algorithm": "ears", "n": 16,
                           "check_interval": 4},
    "crash-pid99.json": {"algorithm": "ears", "n": 16, "f": 4,
                         "crashes": {"events": {"2": [99]}}},
    "thm1-d2.json": {"algorithm": "trivial", "n": 32, "f": 8, "d": 2,
                     "adversary": {"name": "lower-bound"}},
    **{f"fanout-{algorithm}-{checked}.json".lower(): {
        "algorithm": algorithm, "n": 64, "f": 16, "crashes": 8, "d": 3,
        "delta": 2, "seed": 4, "check_invariants": checked}
       for algorithm in ("trivial", "tears") for checked in (False, True)},
}
CAMPAIGN_SPECS = [{"algorithm": "trivial", "n": 8, "seed": 0},
                  {"algorithm": "ears", "n": 12, "f": 3, "seed": 1}]

GRID = ["grid", "--algorithms", "trivial,ears", "--ns", "8,12", "--seeds",
        "2", "--out-dir", "{tmp}/grid"]
SWEEP = ["sweep", "--algorithm", "ears", "--min-n", "8", "--max-n", "16",
         "--seeds", "2", "--resume", "{tmp}/sweep.sqlite"]
BATCH = ["batch", "--specs", "{tmp}/campaign-specs.jsonl", "--store",
         "{tmp}/campaign.sqlite", "--resume", "{tmp}/campaign.sqlite",
         "--processes", "2"]
THEOREM1 = ["batch", "--specs", "examples/specs_theorem1.jsonl", "--store",
            "{tmp}/thm1.sqlite"]
TOPOLOGY_SWEEP = """
from repro.workloads import sweep_topology_gossip
sweep_topology_gossip("ps-push-pull", topologies=("complete", "ring"),
                      ns=[8, 16, 32], seeds=range(2))
"""

#: The CI smoke commands as ``(repro argv, exit code)``, in step order;
#: ``tests/test_execution_probe.py`` fails when they and CI's differ.
SMOKE = [
    # Chaos smoke.
    (["chaos", "--seed", "0", "--trials", "5"], 0),
    # Spec smoke.
    (["list"], 0),
    *[(["run", "--spec", f"examples/{name}", "--store",
        "{tmp}/specs.jsonl"], 0)
      for name in ("spec_ears.json", "spec_ears.json",
                   "spec_sears_eps.json", "spec_sears_eps.json")],
    (["run", "--spec", "{tmp}/spec_sears_epz.json"], 2),
    (["run", "--spec", "{tmp}/spec_interval.json"], 2),
    (["store", "verify", "{tmp}/specs.jsonl"], 0),
    # Fan-out oracle.
    *[(["run", "--spec", f"{{tmp}}/fanout-{algorithm}-{checked}.json",
        "--json"], 0)
      for algorithm in ("trivial", "tears") for checked in ("false", "true")],
    # Import guard.
    (["gossip", "--algorithm", "ears", "-n", "32", "--seed", "1"], 0),
    # Store smoke.
    (["run", "--spec", "examples/spec_ears.json", "--store",
      "{tmp}/specs.sqlite"], 0),
    (["run", "--spec", "examples/spec_ears.json", "--store",
      "{tmp}/specs.sqlite"], 0),
    (["store", "ingest", "{tmp}/runs.sqlite", "{tmp}/specs.jsonl"], 0),
    (["store", "verify", "{tmp}/runs.sqlite"], 0),
    (["store", "compact", "{tmp}/runs.sqlite"], 0),
    (["store", "verify", "{tmp}/runs.sqlite"], 0),
    (["store", "query", "{tmp}/runs.sqlite", "--filter", "algorithm=ears",
      "--count"], 0),
    (["store", "query", "{tmp}/specs.sqlite", "--format", "csv"], 0),
    (["store", "merge", "{tmp}/merged.sqlite", "{tmp}/specs.jsonl",
      "{tmp}/specs.sqlite"], 0),
    # Campaign smoke.
    (GRID, 0), (GRID, 0),
    (["store", "verify", "{tmp}/grid/cli-grid.jsonl"], 0),
    (["store", "query", "{tmp}/grid/cli-grid.jsonl", "--filter",
      "algorithm=ears", "--count"], 0),
    (SWEEP, 0), (SWEEP, 0),
    (["store", "verify", "{tmp}/sweep.sqlite"], 0),
    (BATCH, 0), (BATCH, 0),
    (["store", "verify", "{tmp}/campaign.sqlite"], 0),
    *[(argv.split(), 2) for argv in (
        "sweep --algorithm trivial --min-n 8 --max-n 8 --seeds 1 "
        "--processes 0",
        "sweep --algorithm trivial --min-n 8 --max-n 8 --seeds 1 "
        "--resume {tmp}/x.json",
        "sweep --factor 1", "sweep --factor 0", "sweep --min-n 0",
        "scaling --min-n 0",
        "chaos --trials 0",
        "fleet run --specs {tmp}/campaign-specs.jsonl --dir "
        "{tmp}/fleet-none --workers 0",
        "gossip -n 8 --crashes -2", "gossip -n 8 -f -1",
        "gossip -n 8 --topology rnig", "run --spec {tmp}/crash-pid99.json",
    )],
    # Theorem 1 as specs.
    (THEOREM1, 0), (THEOREM1, 0),
    (["store", "verify", "{tmp}/thm1.sqlite"], 0),
    (["store", "query", "{tmp}/thm1.sqlite", "--count"], 0),
    (["run", "--spec", "{tmp}/thm1-d2.json"], 2),
    # Fleet chaos smoke and chaos selection smoke.
    (["chaos", "--matrix", "fleet", "--faults", "fleet-worker-kill",
      "--trials", "1", "--workers", "2"], 0),
    (["chaos", "--matrix", "all", "--quick", "--faults",
      "foreign-rumor,store-torn-write,fleet-worker-kill", "--workers",
      "2"], 0),
    # Topology smoke.
    *[(["gossip", "--algorithm", algorithm, "-n", "32", "--seed", "1",
        "--topology", topology], 0)
      for algorithm, topology in (("ears", "ring"), ("ears", "gnp"),
                                  ("ps-push-pull", "gnp"))],
]


def roots(tmp: str) -> List[Tuple[str, List[str], int]]:
    """Every root as ``(label, argv, expected exit code)``."""
    repro = [sys.executable, "-m", "repro"]
    out = [(" ".join(argv), repro + argv, 0) for argv in PAPER]
    out += [(os.path.relpath(path, ROOT), [sys.executable, path], 0)
            for path in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                      "*.py")))]
    out += [(" ".join(argv), repro + [arg.format(tmp=tmp) for arg in argv],
             code) for argv, code in SMOKE]
    out.append(("sweep_topology_gossip",
                [sys.executable, "-c", TOPOLOGY_SWEEP], 0))
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


def entered(record: str) -> Set[Tuple[str, int]]:
    seen = set()
    with open(record, encoding="utf-8") as handle:
        for line in handle:
            path, _, first = line.rstrip("\n").rpartition(":")
            seen.add((os.path.realpath(path), int(first)))
    return seen


def run_roots(tmp: str) -> Tuple[Set[Tuple[str, int]], int, List[str]]:
    """Run every root with the hook on; ``(entered, roots, broken)``."""
    for name, spec in FILES.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as out:
            json.dump(spec, out)
    with open(os.path.join(tmp, "campaign-specs.jsonl"), "w",
              encoding="utf-8") as out:
        out.writelines(json.dumps(spec) + "\n" for spec in CAMPAIGN_SPECS)
    record = os.path.join(tmp, "entered.txt")
    env = {**os.environ, "REPRO_PROBE_OUT": record,
           "PYTHONPATH": os.pathsep.join([PROBE, SRC])}
    broken = []
    commands = roots(tmp)
    for label, command, code in commands:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != code:
            broken.append(label)
            print(f"root exited {proc.returncode}, not {code}: {label}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
    return entered(record), len(commands), broken


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-probe-") as tmp:
        seen, count_roots, broken = run_roots(tmp)
    seconds = time.monotonic() - start

    defined = definitions()
    unentered: Dict[str, List[Tuple[str, int, int]]] = {}
    for (path, first), (module, name, lines) in defined.items():
        if (os.path.realpath(path), first) not in seen:
            unentered.setdefault(module, []).append((name, first, lines))
    total_lines = 0
    for module in sorted(unentered, key=lambda m: (
            -sum(lines for _, _, lines in unentered[m]), m)):
        functions = unentered[module]
        lines = sum(count for _, _, count in functions)
        total_lines += lines
        print(f"{module}: {len(functions)} unentered ({lines} lines)")
        for name, first, count in functions:
            print(f"    {name}:{first} ({count})")
    count = sum(len(functions) for functions in unentered.values())
    print(f"unentered: {count} of {len(defined)} functions "
          f"({total_lines} lines) after {count_roots} roots in "
          f"{seconds:.0f} s")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
