"""The repository's end-to-end benchmark: seven paper-shaped workloads,
host time per round and per trial, and a per-layer trace taken from
outside the program.

    python3 benchmarks/e2e/run.py                    # every workload, untraced
    python3 benchmarks/e2e/run.py --traced           # per-layer numbers
    python3 benchmarks/e2e/run.py --workload dense-epidemic --seed 3 \\
        --seconds 18 --trace 0                       # one contract run
    python3 benchmarks/e2e/run.py --list
    python3 benchmarks/e2e/run.py --compare A.json B.json

Closed loop, one client: this process submits nothing itself. Each
workload runs in a child process of its own (so set-up time and peak
memory are per workload). The child imports the program, makes the
workload's inputs from ``--seed``, runs one untimed warm-up round (that
is ``setup_s``), then timed rounds — at least ``MIN_ROUNDS`` — until
``--seconds`` are spent, timing every call of a round on its own; a
round's ``wall_s`` and ``cpu_s`` are the sum over its calls of each
call's fastest time. ``SETUP_LAUNCHES - 1`` further children stop after
the warm-up, so that ``setup_s`` is a median. The only other processes
are the two pool workers inside ``campaign-pool-store``. Names, units,
directions and bounds of every metric live in ``BENCHMARK.json`` at the
root, which also names the workloads the driver runs (four of the
seven); README.md beside this file says what each one means and how
they interact.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Scratch space for temp stores: inside the checkout, ignored by git.
WORK_ROOT = os.path.join(HERE, ".work")

#: Children per workload in an untraced run: the first measures, the
#: others stop after the warm-up and only add a ``setup_s`` sample.
SETUP_LAUNCHES = 3
MIN_ROUNDS = 3
#: A traced run is one launch: warm-up, UNTRACED_ROUNDS for the overhead
#: base, then TRACED_ROUNDS under delegates.
UNTRACED_ROUNDS = 2
TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 170


def load_contract() -> Dict[str, Any]:
    with open(CONTRACT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# Child: one launch of one workload
# --------------------------------------------------------------------------- #

def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak resident set (Linux reports KiB) of this process or its
    largest reaped child, whichever is higher."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def round_cost(rounds: Sequence[Dict[str, List[float]]], key: str) -> float:
    """What one round costs: each call at its fastest over ``rounds``.

    Interference on a shared host only ever adds time, and it comes in
    bursts of seconds; a call's fastest time is the statistic it moves
    least, and the bursts rarely cover the same call in every round.
    """
    return sum(map(min, zip(*(times[key] for times in rounds))))


def load_workloads() -> Dict[str, Any]:
    """The workload registry — importing it imports the program."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        # Never fall back to some other installed copy of the program.
        raise SystemExit(f"nothing to measure: {source} holds no repro/")
    sys.path.insert(0, source)
    from workloads import WORKLOADS

    return WORKLOADS


def child_main(args: argparse.Namespace) -> int:
    """Run one launch and print its measurements as one JSON line."""
    registry = load_workloads()
    from repro.sim.engine import Simulation
    from tracing import Tracer
    from workloads import digest, layer_metrics

    (name,) = args.workload
    workload = registry[name](args.seed, args.small, args.workdir)
    pinned: Optional[List[str]] = None
    if args.seed == 0 and not args.small and os.path.exists(
            EXPECTED_PATH):
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            pinned = json.load(handle).get(name)
    failures: List[Dict[str, Any]] = []
    result: Dict[str, Any] = {"workload": name,
                              "trials": workload.trials, "attempted": 0}

    def one_round(label: str, index: int, tracer=None, counts=None):
        """Time one round call by call and check its statistics against
        the pinned digests, or else the warm-up's. Returns the calls'
        ``{"wall_s": [...], "cpu_s": [...]}``, or None when the round
        raised (a traced round is timed as a single call)."""
        gc.collect()
        if tracer is None:
            calls = workload.calls(index)
        else:
            calls = [lambda: workload.traced_round(index, tracer, counts)]
        times: Dict[str, List[float]] = {"wall_s": [], "cpu_s": []}
        stats: Optional[List[Dict[str, Any]]] = []
        try:
            for call in calls:
                cpu0, wall0 = cpu_seconds(), time.perf_counter()
                stats += call()
                times["wall_s"].append(time.perf_counter() - wall0)
                times["cpu_s"].append(cpu_seconds() - cpu0)
        except Exception:
            # A round that raises is a measured failure of all its
            # trials, reported in the result — not a benchmark crash.
            failures.append({"round": label, "trial": None,
                             "why": traceback.format_exc()})
            stats = None
        result["attempted"] += workload.trials
        if stats is None:
            return None
        digests = [digest(entry) for entry in stats]
        # The first round's digests are what launches are compared by.
        reference = pinned or result.setdefault("digests", digests)
        if len(digests) != len(reference):
            failures.append({
                "round": label, "trial": None,
                "why": f"{len(digests)} trials, expected "
                       f"{len(reference)}",
            })
        for trial, (got, want) in enumerate(zip(digests, reference)):
            if got != want:
                failures.append({
                    "round": label, "trial": trial,
                    "why": f"statistics digest {got[:12]} != "
                           f"{want[:12]}: {stats[trial]}",
                })
        return times

    one_round("warm-up", 0)
    result.setdefault("digests", None)  # the warm-up raised
    result["setup_s"] = time.monotonic() - args.t0
    rounds: List[Dict[str, List[float]]] = []
    if args.setup_only:
        wanted, seconds = 0, 0.0
    elif args.trace:
        wanted, seconds = UNTRACED_ROUNDS, 0.0
    else:
        wanted, seconds = MIN_ROUNDS, args.seconds
    spent = 0.0
    while len(rounds) < wanted or spent < seconds:
        times = one_round(f"timed-{len(rounds)}", len(rounds) + 1)
        if times is None:
            break  # reported as failed trials; nothing left to time
        rounds.append(times)
        spent += sum(times["wall_s"])
    result["rounds"] = rounds

    if args.trace:
        result["traced"] = []
    if args.trace and rounds:
        tracer = Tracer(keep_spans=args.trace_out is not None)
        base = round_cost(rounds, "wall_s")
        with tracer.scope():
            # State copies are counted on every workload: the
            # prediction is zero calls outside theorem1-fork.
            tracer.install_state_copies(Simulation)
            for index in range(TRACED_ROUNDS):
                counts: Counter = Counter()
                times = one_round(f"traced-{index}", index + 1,
                                  tracer, counts)
                if times is None:
                    break
                workload.probe(tracer)
                layers = layer_metrics(tracer.take(), counts)
                layers["trace.overhead_frac"] = (
                    times["wall_s"][0] - base) / base
                result["traced"].append(layers)
        if args.trace_out is not None:
            os.makedirs(args.trace_out, exist_ok=True)
            tracer.write_spans(
                os.path.join(args.trace_out, name + ".spans.json"))

    result["peak_rss_mb"] = peak_rss_mib()
    result["failures"] = failures
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------- #
# Parent: launches, aggregation, output
# --------------------------------------------------------------------------- #

def launch(name: str, args: argparse.Namespace, seconds: float,
           setup_only: bool = False) -> Dict[str, Any]:
    """Run one child launch of ``name`` and return what it measured."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    # The temp stores' directory is the runner's, so that it goes away
    # even when the child had to be killed.
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=WORK_ROOT)
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--t0", repr(time.monotonic()),
    ]
    if args.small:
        command.append("--small")
    if setup_only:
        command.append("--setup-only")
    if args.trace_out is not None:
        command += ["--trace-out", os.path.abspath(args.trace_out)]
    # Own session, so that a timeout can take the pool workers down too.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: launch exceeded {CHILD_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        raise SystemExit(f"{name}: launch exited with {child.returncode}")
    return json.loads(output.splitlines()[-1])


def aggregate(launches: Sequence[Dict[str, Any]], traced: bool,
              contract: Dict[str, Any]) -> Dict[str, Any]:
    """Fold a workload's launches — the measuring one first — into
    reported metrics + raw values."""
    failures = [f for entry in launches for f in entry["failures"]]
    first = launches[0]
    for later in launches[1:]:
        if later.get("digests") != first.get("digests"):
            failures.append({"round": "launch", "trial": None,
                             "why": "launches disagree on statistics"})
    attempted = sum(entry["attempted"] for entry in launches)
    # A failed round fails all its trials; a failed trial may be listed
    # once per round it failed in.
    failed = min(attempted, sum(
        first["trials"] if f["trial"] is None else 1 for f in failures))
    out: Dict[str, Any] = {
        "trials": first["trials"], "attempted": attempted,
        "failed": failed, "failures": failures,
    }
    if traced:
        rounds = first["traced"]
        values = {}
        for spec in contract["per_layer"]:
            seen = [r[spec["name"]] for r in rounds if spec["name"] in r]
            value = statistics.median(seen) if seen else 0
            if spec["unit"] == "count" and value == int(value):
                value = int(value)  # the median of equal ints is a float
            values[spec["name"]] = value
        unnamed = sorted(
            {key for r in rounds for key in r} - set(values))
        if unnamed:
            raise SystemExit(
                f"emitted metrics BENCHMARK.json does not name: {unnamed}")
        out["raw"] = {"layers": rounds}
        units = {spec["name"]: spec["unit"] for spec in contract["per_layer"]}
    else:
        rounds = first["rounds"]
        if not rounds:
            raise SystemExit(
                f"{first['workload']}: no timed round completed: {failures}")
        raw = {
            "setup_s": [entry["setup_s"] for entry in launches],
            # Per timed round, per call of the round.
            "wall_s": [times["wall_s"] for times in rounds],
            "cpu_s": [times["cpu_s"] for times in rounds],
        }
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "wall_s": round_cost(rounds, "wall_s"),
            "cpu_s": round_cost(rounds, "cpu_s"),
            "peak_rss_mb": first["peak_rss_mb"],
        }
        out["raw"] = raw
        # Not a metric of its own: the reciprocal of wall_s would only
        # be bounded twice.
        out["trials_per_s"] = first["trials"] / values["wall_s"]
        units = {spec["name"]: spec["unit"]
                 for spec in contract["end_to_end"]}
        if set(units) != set(values):
            raise SystemExit(
                "end-to-end metrics emitted and named in BENCHMARK.json "
                f"differ: {sorted(set(units) ^ set(values))}")
    out["metrics"] = {
        key: {"value": values[key], "unit": units[key]} for key in units
    }
    return out


def stamp(args: argparse.Namespace, seconds: float) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a bare checkout is not a git repository
    # Imported here, not at the top: the children run this file too, and
    # the metadata machinery would add ~2 MiB to every peak_rss_mb.
    import importlib.metadata

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "commit": commit, "seed": args.seed, "seconds": seconds,
        "traced": bool(args.trace), "small": args.small,
    }


def run(args: argparse.Namespace) -> int:
    contract = load_contract()
    # Every workload the benchmark knows; BENCHMARK.json names the ones
    # the driver runs.
    known = list(load_workloads())
    names = args.workload or known
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {known}")
    seconds = (args.seconds if args.seconds is not None
               else float(contract["run_seconds"]))
    # A terminated runner must take its child's process group with it:
    # turn SIGTERM into an exit, so that launch()'s clean-up runs.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    launches: Dict[str, List[Dict[str, Any]]] = {}
    for name in names:
        if args.update_expected:
            # The digests are wanted, not the timings.
            launches[name] = [launch(name, args, 0.0, setup_only=True)]
            continue
        launches[name] = [launch(name, args, seconds)]
        if not args.trace:
            launches[name] += [
                launch(name, args, 0.0, setup_only=True)
                for _ in range(SETUP_LAUNCHES - 1)
            ]

    if args.update_expected:
        pinned = {}
        if os.path.exists(EXPECTED_PATH):
            with open(EXPECTED_PATH, encoding="utf-8") as handle:
                pinned = json.load(handle)
        pinned.update({n: launches[n][0]["digests"] for n in names})
        with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
            json.dump(pinned, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"pinned {sum(map(len, pinned.values()))} digests in "
              f"{EXPECTED_PATH}")
        return 0

    results = {
        name: aggregate(launches[name], bool(args.trace), contract)
        for name in names
    }
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['unit']} {entry['value']:.6g}")
        if "trials_per_s" in result:
            print(f"{name} trials_per_s 1/s {result['trials_per_s']:.6g} "
                  f"(= {result['trials']} trials / wall_s)")
        for failure in result["failures"]:
            print(f"{name} FAILED round={failure['round']} "
                  f"trial={failure['trial']}: {failure['why']}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"{len(results)} workload(s): {failed} of {attempted} trials "
          "failed")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"stamp": stamp(args, seconds), "workloads": results},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(results) == 1:
        (result,) = results.values()
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    return 1 if failed else 0


# --------------------------------------------------------------------------- #
# --list and --compare
# --------------------------------------------------------------------------- #

def list_contract() -> int:
    contract = load_contract()
    gated = {workload["name"] for workload in contract["workloads"]}
    print("workloads (* = in BENCHMARK.json, run by the driver):")
    for name, workload in load_workloads().items():
        print(f"  {'*' if name in gated else ' '} {name}: {workload.why}")
    print("end-to-end metrics (name unit better bound):")
    for spec in contract["end_to_end"]:
        print(f"  {spec['name']} {spec['unit']} {spec['better']} "
              f"{spec['bound']}")
    print("per-layer metrics, traced run only (name unit better):")
    for spec in contract["per_layer"]:
        print(f"  {spec['name']} {spec['unit']} {spec['better']}")
    return 0


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def round_values(result: Dict[str, Any], metric: str) -> List[float]:
    """The raw values a set holds of an end-to-end metric: launches for
    ``setup_s``, whole timed rounds for the timings, none otherwise."""
    raw = result["raw"].get(metric, [])
    return [sum(v) if isinstance(v, list) else v for v in raw]


def compare(path_a: str, path_b: str) -> int:
    """Judge set B against set A by the benchmark's own bounds."""
    contract = load_contract()
    bounded = {spec["name"]: spec for spec in contract["end_to_end"]}
    layer = {spec["name"]: spec for spec in contract["per_layer"]}
    with open(path_a, encoding="utf-8") as handle:
        set_a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        set_b = json.load(handle)["workloads"]
    worst = "ok"
    print("workload metric A B rel_diff(base=A) bound verdict")
    for name in set_a:
        if name not in set_b:
            continue
        for metric, entry in set_a[name]["metrics"].items():
            a = entry["value"]
            b = set_b[name]["metrics"][metric]["value"]
            diff = (b - a) / a if a else 0.0
            if metric in bounded:
                spec = bounded[metric]
                worse = diff if spec["better"] == "lower" else -diff
                spread = max(relative_spread(round_values(side[name], metric))
                             for side in (set_a, set_b))
                if spread > spec["bound"]:
                    verdict = "unresolved"
                elif worse > spec["bound"]:
                    verdict = "outside"
                else:
                    verdict = "ok"
                note = f"{spec['bound']} {verdict} (spread {spread:.3f})"
            elif layer[metric]["unit"] == "count":
                verdict = "ok" if a == b else "outside"
                note = f"exact {verdict}"
            else:
                verdict, note = "ok", "- info"
            if verdict == "outside" or (
                    verdict == "unresolved" and worst == "ok"):
                worst = verdict
            print(f"{name} {metric} {a:.6g} {b:.6g} {diff:+.3f} {note}")
    print(f"overall: {worst}")
    return 1 if worst == "outside" else 0


# --------------------------------------------------------------------------- #

def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 also checks pinned digests")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--json", metavar="OUT",
                        help="write stamp, metrics and raw values here")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="traced run: write <workload>.spans.json here")
    parser.add_argument("--small", action="store_true",
                        help="smoke-test sizes (digests not pinned)")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics, then exit")
    parser.add_argument("--update-expected", action="store_true",
                        help="regenerate expected.json (use with --seed 0)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="judge result set B against A by the bounds")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.list:
        return list_contract()
    if args.compare:
        return compare(*args.compare)
    if args.update_expected and (args.seed or args.small or args.trace):
        raise SystemExit("--update-expected pins the untraced full-size "
                         "--seed 0 digests only")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
