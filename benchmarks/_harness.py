"""The one harness behind the six layer benches.

A layer bench is a ``BENCHMARK`` name, a ``cells(quick)`` function and the
measure functions behind its cells; the ``src`` path bootstrap, the CLI,
best-of-N timing, the stamp, the report schema, the trajectory, gate
evaluation, the printed lines and the exit code live here, once::

    python benchmarks/_harness.py --all --label "PR N (what changed)"
    python benchmarks/_harness.py --all --quick --out-dir /tmp/bench
    python benchmarks/bench_engine_leap.py [--quick] [--out P] [--repeats N]
                                           [--no-gate] [--label L]

A gate compares one measure of a cell with a constant, and comes in three
kinds that do not move when the code under test gets faster. **Exact**:
fingerprints equal across engines, values equal across repeats, a clean
store verify — raised from the measure function, so ``--no-gate`` cannot
waive them — or ``==`` on a number. **Order**: the fast path is not
slower than the path it replaces (:data:`ORDER_FLOOR`), a dense control
stays within :data:`PARITY_FLOOR`, or a floor far under the ratio measured
against an oracle this repo does not optimise (the JSONL scan: a tenth or
less; ``copy.deepcopy``: 3x against ≈ 8x). **Ceiling**: a bound an order
of magnitude above anything healthy, or a bound on a simulated statistic.
The ratio of a fast path to the stepwise oracle *of the same commit* is
never a floor — it falls whenever the oracle gets cheaper, while every
absolute time falls too; ratios and seconds go to the trajectory and are
printed against its previous entry (docs/performance.md, *Layer benches*).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import operator
import os
import platform
import sys
import time
from typing import Callable, NamedTuple

SRC = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
if SRC not in sys.path:  # a bench measures its own checkout
    sys.path.insert(0, SRC)

try:
    from numpy import __version__ as NUMPY_VERSION
except ImportError:
    NUMPY_VERSION = None

LAYER_BENCHES = ("bench_engine_leap", "bench_engine_batch",
                 "bench_store_query", "bench_fleet", "bench_topology_sweep",
                 "bench_fork_snapshot")

#: Order floor of the engine benches: leap/auto on a sparse cell, one
#: batch on a failure-free cell — never slower than stepwise.
ORDER_FLOOR = 1.0

#: Parity floor of their dense controls (auto or leap over stepwise where
#: there is nothing to skip), keyed by ``quick``. Full: the lowest of the
#: 15 control readings of five ``--all`` runs at PR 19 (0.89x), less five
#: points. Quick: the controls run ~10 ms, timer noise dominates (0.83x
#: was the lowest of 15).
PARITY_FLOOR = {False: 0.84, True: 0.7}

OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}
STAMP_KEYS = {"python", "machine", "numpy", "repeats", "label"}
FINGERPRINT = ("completed", "reason", "completion_time", "gathering_time",
               "messages", "realized_d", "realized_delta")


class Cell(NamedTuple):
    """One measured configuration. ``measure(repeats)`` returns
    ``{name: number}``, raises ``AssertionError`` when an exact check
    fails, or :class:`Skipped` when the cell cannot run here."""

    id: str
    note: str
    params: dict
    measure: Callable[[int], dict]
    gates: tuple = ()


class Skipped(Exception):
    """Raised by a measure function; the message is the recorded reason."""


def gate(measure, op, bound):
    return {"measure": measure, "op": op, "bound": bound}


def require_equal(reference, got, what):
    if got != reference:
        raise AssertionError(f"{what}:\n  {reference!r}\n  {got!r}")


def best_of(run, repeats, fresh=None):
    """Best wall clock of ``repeats`` calls of ``run`` and their one
    value: a run whose value differs between repeats is not a timing.
    ``fresh()``, untimed, builds the argument of each call."""
    best = first = None
    for attempt in range(repeats):
        args = () if fresh is None else (fresh(),)
        start = time.perf_counter()
        value = run(*args)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
        if attempt == 0:
            first = value
        require_equal(first, value, "value differs between repeats")
    return best, first


def seconds(value):
    """Four significant digits: 0.05192 and 0.0003774 both stay legible."""
    return float(f"{value:.4g}")


def versus(slow_name, slow_s, fast_name, fast_s):
    """The measures of a two-arm timing."""
    return {slow_name: seconds(slow_s), fast_name: seconds(fast_s),
            "speedup": round(slow_s / fast_s, 2)}


def fingerprint(run):
    """What two engines must agree on for one ``RunResult``."""
    return {name: getattr(run, name) for name in FINGERPRINT}


def evaluate(gates, measures):
    return [{**g, "ok": OPS[g["op"]](measures[g["measure"]], g["bound"])}
            for g in gates]


def measured(cells):
    """``{id: measures}`` of the cells that were not skipped."""
    return {c["id"]: c["measures"] for c in cells if "skipped" not in c}


def _numbers(mapping):
    return all(isinstance(value, (int, float)) and math.isfinite(value)
               and not isinstance(value, bool) for value in mapping.values())


def validate(report):
    """Raise ``ValueError`` unless ``report`` is a schema-1 report: the
    shape, every gate's ``ok`` recomputed from the recorded measure, and
    the last trajectory entry being the run in ``cells``."""
    def need(ok, message):
        if not ok:
            raise ValueError(f"{report.get('benchmark')}: {message}")

    need(set(report) == {"schema", "benchmark", "quick", "stamp", "cells",
                         "trajectory"}, f"top-level keys {sorted(report)}")
    need(report["schema"] == 1 and isinstance(report["benchmark"], str)
         and isinstance(report["quick"], bool)
         and set(report["stamp"]) == STAMP_KEYS,
         "schema, benchmark, quick or stamp")
    ids = [cell.get("id") for cell in report["cells"]]
    need(ids and len(set(ids)) == len(ids), f"cell ids {ids}")
    for cell in report["cells"]:
        if "skipped" in cell:
            need(set(cell) == {"id", "note", "params", "skipped"},
                 f"skipped cell {cell['id']!r} carries more than a reason")
            continue
        need(set(cell) == {"id", "note", "params", "measures", "gates"}
             and cell["measures"] and _numbers(cell["measures"]),
             f"cell {cell['id']!r}: keys or measures")
        for recorded in cell["gates"]:
            need(set(recorded) == {"measure", "op", "bound", "ok"}
                 and recorded["op"] in OPS
                 and recorded["measure"] in cell["measures"]
                 and [recorded] == evaluate([recorded], cell["measures"]),
                 f"cell {cell['id']!r}: gate {recorded!r}")
    need(report["trajectory"], "empty trajectory")
    for entry in report["trajectory"]:
        need(set(entry) == {"label", "stamp", "cells"}
             and set(entry["stamp"]) == STAMP_KEYS
             and entry["stamp"]["label"] == entry["label"]
             and set(entry["cells"]) <= set(ids)
             and all(map(_numbers, entry["cells"].values())),
             f"trajectory entry {entry.get('label')!r}")
    last = report["trajectory"][-1]
    need(last["stamp"] == report["stamp"]
         and last["cells"] == measured(report["cells"]),
         "the last trajectory entry is not the run in `cells`")


def _previous(out, benchmark, quick):
    """The report already at ``out``, if any. A ``--quick`` run never
    replaces a full-run file, nor the reverse: the committed files are
    full runs and carry the trajectory."""
    try:
        with open(out, encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return {}
    held = [previous.get(key) for key in ("schema", "benchmark", "quick")]
    if held != [1, benchmark, quick]:
        raise SystemExit(
            f"refusing to overwrite {out}: it holds [schema, benchmark, "
            f"quick] = {held}, this run writes {[1, benchmark, quick]} — "
            "pass another --out / --out-dir")
    return previous


def _line(row, before):
    """``name value (change against the previous trajectory entry)``."""
    parts = []
    for name, value in row["measures"].items():
        was = before.get(name)
        change = f" ({(value - was) / was:+.0%})" if was else ""
        parts.append(f"{name} {value:g}{change}")
    verdicts = "".join(
        f"  [{g['measure']} {g['op']} {g['bound']:g} "
        f"{'ok' if g['ok'] else 'FAILED'}]" for g in row["gates"])
    return f"{row['id']}: {', '.join(parts)}{verdicts}"


def run_benchmark(benchmark, cells, *, quick, out, repeats=None,
                  label="unlabelled"):
    """Measure ``cells`` — an iterable, possibly a generator holding a
    fixture open: each cell is measured before the next is requested —
    and write the report to ``out``. Returns the ids of the cells with a
    failed gate and of the skipped cells."""
    repeats = repeats or (2 if quick else 3)
    previous = _previous(out, benchmark, quick)
    earlier = previous.get("trajectory", [])
    before = earlier[-1] if earlier else {"label": None, "cells": {}}
    stamp = {"python": platform.python_version(),
             "machine": platform.machine(), "numpy": NUMPY_VERSION,
             "repeats": repeats, "label": label}
    print(f"{benchmark}: {'quick' if quick else 'full'} run, best of "
          f"{repeats}" + (f"; changes are against {before['label']!r}"
                          if earlier else ""))
    rows = []
    for cell in cells:
        row = {"id": cell.id, "note": cell.note, "params": cell.params}
        try:
            row["measures"] = cell.measure(repeats)
        except Skipped as reason:
            row["skipped"] = str(reason)
            print(f"{cell.id}: SKIPPED ({reason}) — nothing measured, "
                  "nothing gated")
        else:
            row["gates"] = evaluate(cell.gates, row["measures"])
            print(_line(row, before["cells"].get(cell.id, {})))
        rows.append(row)
    if {row["id"] for row in rows} != {
            cell["id"] for cell in previous.get("cells", [])}:
        earlier = []  # a trajectory compares one cell set with itself
    report = {
        "schema": 1, "benchmark": benchmark, "quick": quick, "stamp": stamp,
        "cells": rows,
        "trajectory": earlier + [
            {"label": label, "stamp": stamp, "cells": measured(rows)}],
    }
    validate(report)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}\n")
    return ([row["id"] for row in rows
             if not all(g["ok"] for g in row.get("gates", ()))],
            [row["id"] for row in rows if "skipped" in row])


def main(script=None, argv=None):
    """``main(__name__)`` is the entry point of one bench script;
    ``main()`` is the run-all entry, ``_harness.py --all``."""
    bench = sys.modules[script] if script else None
    parser = argparse.ArgumentParser(
        description=(bench.__doc__ if bench else __doc__).splitlines()[0],
        allow_abbrev=False)  # --out is not a prefix of --out-dir
    parser.add_argument("--quick", action="store_true",
                        help="shrunken cells for CI (seconds)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per arm (default: 3, quick: 2)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record gate verdicts, do not enforce them "
                             "(exact checks still raise)")
    parser.add_argument("--label", default="unlabelled",
                        help="name of this run in the report's trajectory, "
                             "e.g. the PR measured; earlier entries are kept")
    if bench:
        parser.add_argument("--out", default=f"BENCH_{bench.BENCHMARK}.json",
                            help="report path (default: %(default)s); a "
                                 "quick run never replaces a full-run file")
    else:
        parser.add_argument("--all", action="store_true", required=True,
                            help="run the six layer benches")
        parser.add_argument("--out-dir", default=".",
                            help="directory of the BENCH_<benchmark>.json "
                                 "reports (default: the current directory)")
    args = parser.parse_args(argv)
    if bench:
        runs = [(bench, args.out)]
    else:
        os.makedirs(args.out_dir, exist_ok=True)
        benches = [importlib.import_module(name) for name in LAYER_BENCHES]
        runs = [(b, os.path.join(args.out_dir, f"BENCH_{b.BENCHMARK}.json"))
                for b in benches]
    failed, skipped = [], []
    for module, out in runs:
        red, unmeasured = run_benchmark(
            module.BENCHMARK, module.cells(args.quick), quick=args.quick,
            out=out, repeats=args.repeats, label=args.label)
        failed += [f"{module.BENCHMARK}/{cell}" for cell in red]
        skipped += [f"{module.BENCHMARK}/{cell}" for cell in unmeasured]
    if skipped:
        print(f"SKIPPED, neither measured nor gated: {', '.join(skipped)}")
    if failed:
        waived = " (--no-gate: recorded, not enforced)" if args.no_gate else ""
        print(f"gates FAILED{waived}: {', '.join(failed)}", file=sys.stderr)
    else:
        print("every evaluated gate holds")
    return 1 if failed and not args.no_gate else 0


if __name__ == "__main__":
    import _harness  # the copy the six scripts import: one Skipped class

    raise SystemExit(_harness.main())
