"""Command-line interface: ``repro-gossip`` / ``python -m repro``.

Subcommands map one-to-one onto the experiment drivers, so every table and
figure of the paper can be regenerated from a shell:

    repro-gossip gossip --algorithm ears -n 64 -f 16 -d 2 --delta 2
    repro-gossip consensus --transport tears -n 32
    repro-gossip table1 -n 64
    repro-gossip table2 -n 32
    repro-gossip theorem1 -n 64 -f 16
    repro-gossip corollary2 -n 64 -f 16
    repro-gossip scaling --max-n 256
    repro-gossip scenarios
    repro-gossip grid --algorithms ears,tears --ns 32,64 --processes 4
    repro-gossip sweep --algorithm ears --max-n 128 --profile
    repro-gossip list
    repro-gossip run --spec examples/spec_ears.json --store runs.jsonl
    repro-gossip batch --specs specs.jsonl --resume runs.sqlite
    repro-gossip store verify runs.sqlite

Campaign subcommands (``grid``, ``sweep``, ``batch``) accept
``--resume STORE``: every finished spec is recorded in that artifact
store (created if missing), SIGINT or SIGTERM drains gracefully (exit
code 75), and re-running the same command against the same store runs
exactly the missing specs, seed for seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .sim.errors import ConfigurationError
from .spec.registry import GOSSIP_ALGORITHMS

# The parser is built from names alone; each subcommand's branch of
# ``main`` imports the drivers it runs, so ``repro gossip`` does not load
# the report generator and ``repro --help`` loads no experiment at all.

#: ``--f-rule`` choice -> function of :mod:`repro.workloads.sweeps`.
_F_RULES = {
    "quarter": "quarter",
    "near-half": "near_half",
    "three-quarters": "three_quarters",
}


def _add_campaign(parser: argparse.ArgumentParser) -> None:
    """The options :func:`_campaign` hands to ``execute_batch``."""
    parser.add_argument("--processes", type=int, default=1,
                        help="worker processes (default: sequential)")
    parser.add_argument(
        "--resume", default=None, metavar="STORE",
        help="the campaign's artifact store (created if missing): every "
             "finished spec is recorded there, SIGINT/SIGTERM drains "
             "instead of aborting, and re-running with the same store "
             "runs exactly the missing specs; it must be the file "
             "batch --store or grid --out-dir opens, if given",
    )


def _add_topology(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", default=None, metavar="NAME[:K=V,...]",
        help="communication graph: 'complete' (the paper's model, the "
             "default), 'ring', 'gnp', 'random-regular' or 'small-world', "
             "with optional knobs after a colon (e.g. gnp:p=0.2 or "
             "ring:k=2); the graph is a pure function of "
             "(topology, seed, n)",
    )


def _parse_topology(args) -> "object":
    """The parsed --topology config (a bad value is a ConfigurationError,
    which :func:`main` ends in one ``error:`` line and exit 2)."""
    from .sim.topology import parse_topology_arg

    return parse_topology_arg(getattr(args, "topology", None))


#: The run flags by name. Each subcommand adds exactly the ones its
#: branch of ``_run`` reads, so argparse refuses the rest; those
#: subcommands take no abbreviations, or ``--seed`` would pass as
#: ``--seeds``.
_RUN_FLAGS = {
    "n": (["-n"], dict(type=int, default=64, help="process count")),
    "f": (["-f"], dict(type=int, default=None,
                       help="failure bound (default: algorithm-appropriate)")),
    "d": (["-d"], dict(type=int, default=1, help="target max delay")),
    "delta": (["--delta"], dict(type=int, default=1,
                                help="target max scheduling gap")),
    "seed": (["--seed"], dict(type=int, default=0)),
    "seeds": (["--seeds"], dict(
        type=int, default=3,
        help="number of seeds for aggregated experiments")),
    "crashes": (["--crashes"], dict(
        type=int, default=None, help="random crash count (default: none)")),
    "engine": (["--engine"], dict(
        default="auto", choices=["auto", "stepwise", "leap", "batch"],
        help="execution strategy: 'auto' (time-leap fast path with "
             "stepwise fallback), 'stepwise' (reference loop), 'leap', or "
             "'batch' (the vectorized batched-trial engine). auto/"
             "stepwise/leap are seed-for-seed bit-identical; batch is "
             "seed-deterministic with its own RNG streams, matching the "
             "scalar engines in distribution, and falls back to scalar "
             "for ineligible cells")),
}

#: One traced or untraced execution (``gossip``, ``consensus``,
#: ``inspect``); a table runs every row over ``--seeds``.
_ONE_RUN = ("n", "f", "d", "delta", "seed", "crashes")
_TABLE = ("n", "f", "d", "delta", "seeds")


def _add_run_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flags, options = _RUN_FLAGS[name]
        parser.add_argument(*flags, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gossip",
        description="Reproduction of 'On the Complexity of Asynchronous "
                    "Gossip' (PODC 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gossip", help="run one gossip execution",
                       allow_abbrev=False)
    _add_run_flags(p, *_ONE_RUN, "engine")
    _add_topology(p)
    p.add_argument("--algorithm", default="ears",
                   choices=sorted(GOSSIP_ALGORITHMS))

    p = sub.add_parser("consensus", help="run one consensus execution",
                       allow_abbrev=False)
    _add_run_flags(p, *_ONE_RUN, "engine")
    p.add_argument("--transport", default="ears",
                   choices=["all-to-all", "ears", "sears", "tears", "ben-or"])

    p = sub.add_parser("table1", help="regenerate Table 1",
                       allow_abbrev=False)
    _add_run_flags(p, *_TABLE)

    p = sub.add_parser("table2", help="regenerate Table 2",
                       allow_abbrev=False)
    _add_run_flags(p, *_TABLE)

    p = sub.add_parser("theorem1", help="run the lower-bound adversary",
                       allow_abbrev=False)
    _add_run_flags(p, "n", "f", "seeds")

    p = sub.add_parser("corollary2", help="measure the cost of asynchrony",
                       allow_abbrev=False)
    _add_run_flags(p, "n", "f", "seeds")

    p = sub.add_parser("scaling", help="fit message-scaling exponents")
    p.add_argument("--min-n", type=int, default=32)
    p.add_argument("--max-n", type=int, default=256)
    p.add_argument("--seeds", type=int, default=2)

    sub.add_parser("scenarios", help="list named workload scenarios")

    p = sub.add_parser(
        "grid",
        help="run a cached algorithm × n grid (JSONL cache, parallelizable)",
    )
    p.add_argument("--algorithms", default="ears,sears,tears",
                   help="comma-separated algorithm names")
    p.add_argument("--ns", default="32,64",
                   help="comma-separated process counts")
    _add_run_flags(p, "d", "delta")
    p.add_argument("--f-frac", type=float, default=0.25,
                   help="failure bound as a fraction of n")
    p.add_argument("--seeds", type=int, default=2)
    _add_topology(p)
    p.add_argument("--name", default="cli-grid",
                   help="grid (and store file) name")
    p.add_argument("--out-dir", default=None,
                   help="directory of the grid's spec store, <name>.jsonl or "
                        ".sqlite (no caching if omitted)")
    p.add_argument("--backend", default="jsonl",
                   choices=["jsonl", "sqlite"],
                   help="suffix of the store file under --out-dir, which "
                        "picks its backend (default: jsonl)")
    _add_campaign(p)
    p.add_argument("--profile", action="store_true",
                   help="print per-phase wall time from the observer bus "
                        "(forces sequential, uncached execution)")

    p = sub.add_parser(
        "sweep",
        help="population sweep for one algorithm, aggregated per n",
    )
    p.add_argument("--algorithm", default="ears",
                   choices=sorted(GOSSIP_ALGORITHMS))
    p.add_argument("--min-n", type=int, default=16)
    p.add_argument("--max-n", type=int, default=128)
    p.add_argument("--factor", type=int, default=2,
                   help="geometric growth factor for n")
    p.add_argument("--f-rule", default="quarter",
                   choices=sorted(_F_RULES),
                   help="how the failure bound scales with n")
    _add_run_flags(p, "d", "delta")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--crash", action="store_true",
                   help="crash the full failure budget")
    _add_topology(p)
    p.add_argument("--engine", default="auto",
                   choices=["auto", "stepwise", "leap", "batch"],
                   help="execution strategy per run; 'batch' groups each "
                        "cell's seeds through the vectorized engine "
                        "(plain sweeps only — profiled and checkpointed "
                        "sweeps stay per-trial)")
    _add_campaign(p)
    p.add_argument("--profile", action="store_true",
                   help="print per-phase wall time from the observer bus "
                        "(forces sequential execution)")

    p = sub.add_parser(
        "batch",
        help="execute a file of RunSpecs against a store, with "
             "checkpoint/resume and graceful shutdown",
    )
    p.add_argument("--specs", required=True,
                   help="spec file: a JSON array of RunSpec objects, a "
                        "single object, or JSONL (one spec per line)")
    p.add_argument("--store", default=None,
                   help="artifact store (.sqlite/.sqlite3/.db: SQLite, "
                        "else JSONL); stored spec hashes are cache hits "
                        "and run no simulation")
    p.add_argument("--fsync", default="always",
                   choices=["always", "never"],
                   help="store write durability policy (default: always "
                        "— crash-safe to the last record)")
    p.add_argument("--shard", default=None, metavar="INDEX/COUNT",
                   help="run only this spec-hash shard of the batch "
                        "(e.g. 0/4 .. 3/4 on four hosts); merge the "
                        "shard stores afterwards with 'store merge'")
    p.add_argument("--batch-size", type=int, default=64,
                   help="seeds per vectorized engine tick for specs "
                        "with engine='batch' (default: 64; capped so "
                        "one group chunk stays in memory budget)")
    _add_campaign(p)
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the full provenance records as JSON")

    p = sub.add_parser(
        "store",
        help="artifact-store maintenance and queries: verify, compact, "
             "quarantine, query, merge; a store path ending in "
             ".sqlite/.sqlite3/.db is SQLite, any other a JSONL log",
    )
    store_sub = p.add_subparsers(dest="action", required=True)

    def _store_action(name: str, help_text: str, path_help: str
                      ) -> argparse.ArgumentParser:
        action = store_sub.add_parser(name, help=help_text)
        action.add_argument("path", help=path_help)
        action.add_argument("--json", action="store_true", dest="as_json",
                            help="emit the result as JSON")
        return action

    _store_action(
        "verify",
        "scan for corruption (read-only, exit 1 on findings)",
        "store path (JSONL log or SQLite index)",
    )
    _store_action(
        "compact",
        "rewrite the store clean, dropping superseded and corrupt "
        "records",
        "store path (JSONL log or SQLite index)",
    )
    _store_action(
        "quarantine",
        "show corrupt lines a JSONL load salvaged",
        "store path (JSONL log or SQLite index)",
    )

    action = _store_action(
        "query",
        "filtered select over the store, emitted as JSON or CSV",
        "store path (JSONL log or SQLite index)",
    )
    action.add_argument(
        "--filter", action="append", default=[], metavar="FIELD=VALUE",
        help="equality filter on a spec/metric field (repeatable; "
             "comma-separate values for membership, e.g. n=64,128)")
    action.add_argument(
        "--where", default=None,
        help="predicate expression, e.g. \"metrics.time < 100 and "
             "completed == true\"")
    action.add_argument("--limit", type=int, default=None,
                        help="return at most N records")
    action.add_argument("--format", default="json",
                        choices=["json", "csv"], dest="out_format",
                        help="output format (default: json)")
    action.add_argument("--count", action="store_true",
                        help="print only the matching record count")

    action = store_sub.add_parser(
        "merge",
        help="merge stores into one artifact set, across backends too "
             "(exit 1 when a JSONL source had corrupt lines)")
    action.add_argument("dest", help="destination store path")
    action.add_argument("sources", nargs="+",
                        help="store path(s) to merge in")
    action.add_argument(
        "--policy", default="error", choices=["error", "provenance"],
        help="conflict policy for divergent records with the same spec "
             "hash: 'error' refuses, 'provenance' keeps the newest "
             "build deterministically (default: error)")
    action.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the merge report as JSON")

    p = sub.add_parser(
        "chaos",
        help="run the fault-injection campaign: every registered fault "
             "against the canonical cells (plus store-corruption faults "
             "against scratch artifact stores), asserting the detectors "
             "catch 100%% with zero false positives",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=3,
                   help="trials per fault (distinct seeds/victims)")
    p.add_argument("--faults", default=None,
                   help="comma-separated fault names in any mix: "
                        "simulation or store faults (model), fleet-* "
                        "(fleet); a matrix given none of its own runs "
                        "its controls only (default: all registered)")
    p.add_argument("-n", type=int, default=24,
                   help="gossip population for campaign cells")
    p.add_argument("--consensus-n", type=int, default=9,
                   help="consensus population for campaign cells")
    p.add_argument("--matrix", default="model",
                   help="which campaign to run: 'model' (simulation + "
                        "store faults, the default), 'fleet' "
                        "(orchestrator-level faults: worker kills, "
                        "heartbeat stalls, lease tampering, duplicate-"
                        "claim races against real worker processes), "
                        "or 'all' (both)")
    p.add_argument("--quick", action="store_true",
                   help="smoke mode: one trial per cell (CI)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes per fleet-matrix cell "
                        "(default: 2)")

    p = sub.add_parser(
        "fleet",
        help="fault-tolerant multi-worker campaign orchestration: "
             "lease-based claims, heartbeats, straggler re-issue, and "
             "work stealing over a shared campaign directory",
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    action = fleet_sub.add_parser(
        "run",
        help="create (or reopen) a campaign from a specs JSONL file and "
             "drain it with N local worker processes",
    )
    action.add_argument("--specs", default=None,
                        help="RunSpec JSONL/JSON file (required on first "
                             "run; an existing campaign reopens without)")
    action.add_argument("--dir", required=True, dest="fleet_dir",
                        help="campaign directory (created if missing)")
    action.add_argument("--workers", type=int, default=2)
    action.add_argument("--backend", default="jsonl",
                        choices=["jsonl", "sqlite"],
                        help="the campaign's store file: store.jsonl or "
                             "store.sqlite (default: jsonl)")
    action.add_argument("--timeout", type=float, default=600.0,
                        help="wall-clock budget for the whole drain "
                             "(default: 600s)")
    action.add_argument("--lease-ttl", type=float, default=10.0,
                        help="seconds a lease survives without refresh "
                             "before peers re-issue the job")
    action.add_argument("--max-attempts", type=int, default=5,
                        help="per-key re-issue budget before a terminal "
                             "failure is recorded (default: 5)")
    action.add_argument("--no-shard", action="store_true",
                        help="skip shard partitioning; all workers pull "
                             "from the full missing set")
    action.add_argument("--json", action="store_true", dest="as_json",
                        help="print the final status as JSON")

    action = fleet_sub.add_parser(
        "join",
        help="join an existing campaign as one worker (run from any "
             "host sharing the campaign directory)",
    )
    action.add_argument("--dir", required=True, dest="fleet_dir")
    action.add_argument("--shard", default=None,
                        help="INDEX/COUNT primary slice; drained shards "
                             "steal from the global missing set")
    action.add_argument("--worker-id", default=None,
                        help="stable worker name (default: host-pid)")
    action.add_argument("--max-jobs", type=int, default=None,
                        help="exit after this many jobs (testing aid)")

    action = fleet_sub.add_parser(
        "status", help="one-shot campaign progress summary")
    action.add_argument("--dir", required=True, dest="fleet_dir")
    action.add_argument("--json", action="store_true", dest="as_json")

    action = fleet_sub.add_parser(
        "workers", help="list per-worker heartbeats and counters")
    action.add_argument("--dir", required=True, dest="fleet_dir")
    action.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser(
        "run",
        help="execute one declarative RunSpec from a JSON file",
    )
    p.add_argument("--spec", required=True,
                   help="path to a RunSpec JSON file")
    p.add_argument("--store", default=None,
                   help="artifact store (.sqlite/.sqlite3/.db: SQLite, "
                        "else JSONL); a stored spec hash is a cache hit "
                        "and runs no simulation")
    _add_topology(p)
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the full provenance record as JSON")

    sub.add_parser(
        "list",
        help="list every registered algorithm, transport, adversary, "
             "crash plan and scenario",
    )

    p = sub.add_parser("report",
                       help="run every experiment; emit a markdown report")
    p.add_argument("--output", default=None,
                   help="write the report to this file (default: stdout)")
    p.add_argument("--seeds", type=int, default=2)

    p = sub.add_parser(
        "inspect",
        help="run one traced gossip execution and show its timeline",
        allow_abbrev=False,
    )
    _add_run_flags(p, *_ONE_RUN)
    p.add_argument("--algorithm", default="ears",
                   choices=sorted(GOSSIP_ALGORITHMS))
    p.add_argument("--width", type=int, default=100,
                   help="timeline columns")
    return parser


def _drained_exit(exc) -> int:
    """Report a graceful drain and return the resumable exit code."""
    from .experiments import DRAIN_EXIT_CODE

    print(
        f"campaign drained: {exc.completed}/{exc.completed + exc.remaining}"
        f" spec(s) stored, {exc.remaining} remaining; "
        f"re-run with --resume {exc.path} to finish",
        file=sys.stderr,
    )
    return DRAIN_EXIT_CODE


def _resume_store(path, store):
    """The store ``--resume PATH`` names: ``store`` when it opens that
    same file, a new fsync-always store when there is no ``store``."""
    from .store import open_store

    if path.endswith(".json"):
        raise ConfigurationError(
            f"--resume {path!r} names a JSON manifest, which this build "
            f"no longer reads: a campaign's progress is its store, and "
            f"the records the campaign finished are there; pass the "
            f"campaign's store instead (e.g. --resume runs.sqlite)"
        )
    if store is None:
        return open_store(path, fsync="always")
    if os.path.realpath(store.path) != os.path.realpath(path):
        raise ConfigurationError(
            f"--resume {path!r} names a different file than the "
            f"campaign's store {store.path!r}; a campaign has one store, "
            f"so pass the same path to both or drop one"
        )
    return store


def _campaign(args, specs, store=None, profiler=None, **options):
    """The records of ``specs``: one :func:`~repro.store.execute_batch`
    call with ``store`` and the :func:`_add_campaign` options, under
    ``--resume`` into the store it names with a SIGINT/SIGTERM drain
    guard, where a graceful drain exits with the resumable code.  A
    ``profiler`` must see every step, which cannot cross a process
    boundary: profiled campaigns run inline and uncached.
    """
    from .store import execute_batch, make_record, metrics_of

    if profiler is not None:
        from .spec import execute

        return [make_record(spec, metrics_of(execute(
            spec, observers=(profiler,)))) for spec in specs]
    options.update(processes=args.processes)
    if not args.resume:
        return execute_batch(specs, store=store, **options)
    from .experiments import CampaignDrained, GracefulShutdown

    store = _resume_store(args.resume, store)
    with GracefulShutdown() as shutdown:
        try:
            return execute_batch(specs, store=store, shutdown=shutdown,
                                 **options)
        except CampaignDrained as exc:
            raise SystemExit(_drained_exit(exc))


def _record_status(record):
    """``(status, summary)`` of a record for ``run`` and ``batch``: a
    lower-bound record (it has a ``case``) is ok, any other iff complete."""
    metrics = record["metrics"]
    if "case" in metrics:
        return "ok", (f"case={metrics['case']} "
                      f"forced_time={metrics['measured_time']} "
                      f"forced_messages={metrics['measured_messages']}")
    status = "ok" if metrics.get("completed") else "incomplete"
    return status, (f"time={metrics.get('time')} "
                    f"messages={metrics.get('messages')}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigurationError as exc:
        # Unknown names, bad knobs, unknown spec fields, refused
        # --resume paths: one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if getattr(args, "profile", False) and args.resume:
        print("--resume and --profile cannot be combined: profiling "
              "runs cells sequentially without a store",
              file=sys.stderr)
        return 2

    if args.command == "gossip":
        from .api import run_gossip

        f = args.f if args.f is not None else args.n // 4
        run = run_gossip(
            args.algorithm, n=args.n, f=f, d=args.d, delta=args.delta,
            seed=args.seed, crashes=args.crashes, engine=args.engine,
            topology=_parse_topology(args),
        )
        reason = "" if run.completed else f" reason={run.reason}"
        print(
            f"{args.algorithm}: completed={run.completed} "
            f"time={run.completion_time} messages={run.messages} "
            f"realized(d={run.realized_d}, delta={run.realized_delta}) "
            f"crashes={run.crashes}{reason}"
        )
        return 0 if run.completed else 1

    if args.command == "consensus":
        from .consensus import run_consensus

        f = args.f if args.f is not None else (args.n - 1) // 2
        run = run_consensus(
            args.transport, n=args.n, f=f, d=args.d, delta=args.delta,
            seed=args.seed, crashes=args.crashes, engine=args.engine,
        )
        print(
            f"CR-{args.transport}: completed={run.completed} "
            f"time={run.decision_time} messages={run.messages} "
            f"rounds={run.rounds_used} agreement={run.agreement} "
            f"validity={run.validity} decision="
            f"{sorted(set(run.decisions.values()))}"
        )
        return 0 if run.completed and run.agreement else 1

    if args.command == "table1":
        from .experiments import format_table1, run_table1

        f = args.f if args.f is not None else args.n // 4
        print(format_table1(run_table1(
            n=args.n, f=f, d=max(2, args.d), delta=max(2, args.delta),
            seeds=range(args.seeds),
        )))
        return 0

    if args.command == "table2":
        from .experiments import format_table2, run_table2

        f = args.f if args.f is not None else (args.n - 1) // 2
        print(format_table2(run_table2(
            n=args.n, f=f, d=max(2, args.d), delta=max(2, args.delta),
            seeds=range(args.seeds),
        )))
        return 0

    if args.command == "theorem1":
        from .experiments import format_theorem1, run_theorem1

        f = args.f if args.f is not None else args.n // 4
        print(format_theorem1(run_theorem1(
            n=args.n, f=f, seeds=range(args.seeds),
        )))
        return 0

    if args.command == "corollary2":
        from .experiments import format_corollary2, run_corollary2

        f = args.f if args.f is not None else args.n // 4
        print(format_corollary2(run_corollary2(
            n=args.n, f=f, seeds=range(args.seeds),
        )))
        return 0

    if args.command == "scaling":
        from .experiments import (
            format_scaling,
            ordering_is_correct,
            run_message_scaling,
        )
        from .workloads.sweeps import geometric_ns

        rows = run_message_scaling(
            ns=geometric_ns(args.min_n, args.max_n),
            seeds=range(args.seeds),
        )
        print(format_scaling(rows))
        print(f"paper ordering (trivial > tears > sears > ears): "
              f"{ordering_is_correct(rows)}")
        return 0

    if args.command == "grid":
        from .experiments import GridSpec, aggregate, open_grid_store
        from .sim.events import StepProfiler

        algorithms = [a.strip() for a in args.algorithms.split(",")
                      if a.strip()]
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
        axes = {"algorithm": algorithms, "d": [args.d],
                "delta": [args.delta]}
        topology = _parse_topology(args)
        if topology is not None:
            # Only a non-default topology becomes an axis, so the rows
            # of a complete-graph grid carry no topology column.
            axes["topology"] = [topology]
        spec = GridSpec(
            name=args.name,
            kind="gossip",
            # f is a function of n: one sub-grid per n.
            grid=[{**axes, "n": [n], "f": [int(n * args.f_frac)]}
                  for n in ns],
            seeds=list(range(args.seeds)),
        )
        specs = spec.specs()
        profiler = StepProfiler() if args.profile else None
        store = (open_grid_store(args.out_dir, spec.name, args.backend)
                 if args.out_dir is not None and profiler is None else None)
        rows = spec.rows(_campaign(args, specs, store, profiler))
        time_by = aggregate(rows, ["algorithm", "n"], "time")
        msgs_by = aggregate(rows, ["algorithm", "n"], "messages")
        print(f"{'algorithm':>16s} {'n':>6s} {'time':>9s} {'messages':>11s}")
        for key in sorted(time_by):
            algorithm, n = key
            print(f"{algorithm:>16s} {n:6d} {time_by[key]:9.1f} "
                  f"{msgs_by.get(key, float('nan')):11.1f}")
        if profiler is not None:
            print()
            print(profiler.report())
        return 0

    if args.command == "sweep":
        from .sim.events import StepProfiler
        from .workloads import sweeps

        profiler = StepProfiler() if args.profile else None
        specs = sweeps.sweep_specs(
            args.algorithm,
            ns=sweeps.geometric_ns(args.min_n, args.max_n, args.factor),
            f_of_n=getattr(sweeps, _F_RULES[args.f_rule]),
            d=args.d, delta=args.delta,
            seeds=range(args.seeds), crash=args.crash,
            engine=args.engine,
            topology=_parse_topology(args),
        )
        points = sweeps.sweep_points(
            specs, _campaign(args, specs, profiler=profiler))
        for point in points:
            print(f"{args.algorithm}: n={point.n:5d} f={point.f:4d} "
                  f"completion={point.completion_rate:4.2f} "
                  f"time={point.time.mean:9.1f} "
                  f"messages={point.messages.mean:11.1f}")
        if profiler is not None:
            print()
            print(profiler.report())
        return 0

    if args.command == "scenarios":
        from .spec.registry import SCENARIOS

        for name, scenario in sorted(SCENARIOS.items()):
            print(f"{name:16s} d={scenario['d']} delta={scenario['delta']}  "
                  f"{scenario['description']}")
        return 0

    if args.command == "batch":
        import json as _json

        from .spec import RunSpec
        from .store import open_store, parse_shard, shard_specs

        specs = RunSpec.load_many(args.specs)
        if args.shard:
            index, count = parse_shard(args.shard)
            total = len(specs)
            specs = shard_specs(specs, index, count)
            print(f"shard {index}/{count}: {len(specs)}/{total} spec(s)",
                  file=sys.stderr)
        path = args.store or args.resume
        store = open_store(path, fsync=args.fsync) if path else None
        records = _campaign(args, specs, store,
                            batch_size=args.batch_size)
        if args.as_json:
            print(_json.dumps(records, indent=2, sort_keys=True))
        else:
            for record in records:
                status, summary = _record_status(record)
                print(f"{record['spec_hash']}  {status:10s} {summary}")
        print(f"batch: {len(records)}/{len(records)} spec(s) ok")
        return 0

    if args.command == "store":
        import json as _json

        from .store import open_store

        if args.action == "merge":
            from .store import MergeConflict, merge_stores

            dest = open_store(args.dest)
            try:
                report = merge_stores(dest, args.sources,
                                      policy=args.policy)
            except MergeConflict as exc:
                print(f"merge conflict: {exc}", file=sys.stderr)
                return 1
            dest.sync()
            if args.as_json:
                print(_json.dumps(report, indent=2, sort_keys=True))
            else:
                print(f"{args.dest}: {report['added']} added, "
                      f"{report['identical']} identical, "
                      f"{report['replaced']} replaced "
                      f"({report['conflicts']} conflict(s) resolved); "
                      f"{len(dest)} record(s) total")
                if report["quarantined"]:
                    print(f"{report['quarantined']} corrupt source "
                          f"line(s) quarantined, not merged")
            return 0 if not report["quarantined"] else 1

        store = open_store(args.path)
        if args.action == "query":
            filters = {}
            for item in args.filter:
                if "=" not in item:
                    print(f"bad --filter {item!r}: expected FIELD=VALUE",
                          file=sys.stderr)
                    return 2
                key, _, text = item.partition("=")

                def _literal(token):
                    try:
                        return _json.loads(token)
                    except _json.JSONDecodeError:
                        return token

                values = [_literal(token) for token in text.split(",")]
                filters[key] = values if len(values) > 1 else values[0]
            try:
                records = store.select(where=args.where, limit=args.limit,
                                       **filters)
            except ConfigurationError as exc:
                print(f"bad query: {exc}", file=sys.stderr)
                return 2
            if args.count:
                print(len(records))
            elif args.out_format == "csv":
                from .store.query import rows_to_csv

                sys.stdout.write(rows_to_csv(records))
            else:
                print(_json.dumps(records, indent=2, sort_keys=True))
            return 0
        if args.action == "verify":
            report = store.verify()
            if args.as_json:
                print(_json.dumps(report, indent=2, sort_keys=True))
            else:
                print(f"{report['path']}: {report['lines']} line(s), "
                      f"{report['records']} valid record(s), "
                      f"{report['unique']} unique spec(s), "
                      f"{report['superseded']} superseded")
                for finding in report["corrupt"]:
                    print(f"  CORRUPT line {finding['line']}: "
                          f"{finding['reason']}")
                if report["ok"]:
                    print("ok")
                elif any(finding["reason"] == "unknown-schema"
                         for finding in report["corrupt"]):
                    print(f"{len(report['corrupt'])} flagged line(s) — "
                          "unknown-schema lines need a newer build to "
                          "read ('store compact' refuses to drop them); "
                          "a load quarantines the rest")
                else:
                    print(f"{len(report['corrupt'])} corrupt line(s) — "
                          "a load quarantines them; 'store compact' "
                          "rewrites the log clean")
            return 0 if report["ok"] else 1
        if args.action == "compact":
            from .store import UnknownSchemaError

            try:
                result = store.compact()
            except UnknownSchemaError as exc:
                print(f"refusing to compact: {exc}", file=sys.stderr)
                return 1
            if args.as_json:
                print(_json.dumps(result, indent=2, sort_keys=True))
            else:
                print(f"{args.path}: kept {result['kept']} record(s), "
                      f"dropped {result['dropped_superseded']} superseded "
                      f"and {result['dropped_corrupt']} corrupt line(s)")
            return 0
        entries = store.quarantined_entries()
        if args.as_json:
            print(_json.dumps(entries, indent=2, sort_keys=True))
        elif not entries:
            print(f"{args.path}: no quarantined lines")
        else:
            for entry in entries:
                print(f"line {entry['line']} ({entry['reason']}): "
                      f"{entry['raw'][:120]}")
        return 0

    if args.command == "chaos":
        from .faults import (
            FAULTS,
            FLEET_FAULTS,
            STORE_FAULTS,
            format_campaign,
            run_campaign,
            run_fleet_campaign,
        )

        if args.trials < 1:
            # Zero trials would detect nothing and still report 100%.
            raise ConfigurationError(
                f"--trials must be >= 1, got {args.trials}")
        trials = 1 if args.quick else args.trials
        # matrix -> runner; ``pick(registry)`` is the --faults selection
        # the registry owns, or None (no --faults: the matrix defaults).
        runners = {
            "model": lambda pick: run_campaign(
                seed=args.seed, trials=trials, faults=pick(FAULTS),
                n=args.n, consensus_n=args.consensus_n,
                store_faults=pick(STORE_FAULTS)),
            "fleet": lambda pick: run_fleet_campaign(
                seed=args.seed, trials=trials, faults=pick(FLEET_FAULTS),
                workers=args.workers),
        }
        matrices = (*runners, "all")
        if args.matrix not in matrices:
            import difflib

            close = difflib.get_close_matches(args.matrix, matrices, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigurationError(
                f"unknown matrix {args.matrix!r}; choose from "
                f"{', '.join(matrices)}{hint}")
        names = None
        if args.faults:
            names = [name.strip() for name in args.faults.split(",")
                     if name.strip()]
            registries = (sorted(FAULTS), sorted(STORE_FAULTS),
                          sorted(FLEET_FAULTS))
            unknown = [name for name in names
                       if not any(name in known for known in registries)]
            if unknown:
                raise ConfigurationError(
                    f"unknown fault(s): {', '.join(unknown)}; registered: "
                    f"{' + '.join(map(str, registries))}")

        def pick(registry):
            if names is None:
                return None
            return [name for name in names if name in registry]

        ok = True
        for matrix, run in runners.items():
            if args.matrix not in (matrix, "all"):
                continue
            report = run(pick)
            print(format_campaign(report))
            ok = ok and report.ok
        return 0 if ok else 1

    if args.command == "fleet":
        import json as _json
        import socket

        from .fleet import (
            FleetCampaign,
            FleetConfig,
            FleetTimeout,
            FleetWorker,
            read_workers,
            run_fleet,
        )
        from .spec import RunSpec
        from .store import parse_shard

        if args.fleet_command == "run":
            specs = (RunSpec.load_many(args.specs)
                     if args.specs else None)
            config = FleetConfig(
                store=f"store.{args.backend}",
                lease_ttl=args.lease_ttl,
                heartbeat_interval=min(2.0, args.lease_ttl / 4.0),
                max_attempts=args.max_attempts,
            )
            try:
                status = run_fleet(
                    args.fleet_dir, specs=specs, workers=args.workers,
                    config=config, shard=not args.no_shard,
                    timeout=args.timeout,
                )
            except FleetTimeout as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if args.as_json:
                print(_json.dumps(status, indent=2, sort_keys=True))
            else:
                print(
                    f"fleet drained {status['stored']}/{status['specs']} "
                    f"cell(s) with {args.workers} worker(s): "
                    f"{status['failed']} terminal failure(s), "
                    f"{status['missing']} missing, store verify "
                    f"{'ok' if status['verify_ok'] else 'CORRUPT'}"
                )
            return 0 if (status["complete"] and status["verify_ok"]
                         and not status["failed"]) else 1

        if args.fleet_command == "join":
            campaign = FleetCampaign.open(args.fleet_dir)
            worker_id = args.worker_id or (
                f"{socket.gethostname()}-{os.getpid()}")
            shard = parse_shard(args.shard) if args.shard else None
            summary = FleetWorker(
                campaign, worker_id, shard=shard,
                max_jobs=args.max_jobs).run()
            print(_json.dumps(summary, sort_keys=True))
            return 0

        campaign = FleetCampaign.open(args.fleet_dir)
        if args.fleet_command == "status":
            status = campaign.status()
            if args.as_json:
                print(_json.dumps(status, indent=2, sort_keys=True))
            else:
                for key in ("specs", "stored", "failed", "missing",
                            "leased", "stale_leases", "workers",
                            "live_workers"):
                    print(f"{key:>14}  {status[key]}")
                print(f"{'complete':>14}  {status['complete']}")
            return 0 if status["complete"] and not status["failed"] else 1

        if args.fleet_command == "workers":
            workers = read_workers(campaign.workers_dir)
            if args.as_json:
                print(_json.dumps(workers, indent=2, sort_keys=True))
            else:
                now = time.time()
                for worker in workers:
                    age = now - float(worker.get("updated_at", now))
                    counters = worker.get("counters", {})
                    print(f"{worker.get('worker', '?'):>10}  "
                          f"pid={worker.get('pid', '?'):<8} "
                          f"state={worker.get('state', '?'):<16} "
                          f"beat={age:5.1f}s ago  "
                          f"done={counters.get('completed', 0)} "
                          f"stolen={counters.get('stolen', 0)} "
                          f"spec={counters.get('speculative', 0)} "
                          f"failed={counters.get('failed', 0)}")
                if not workers:
                    print("no worker heartbeats yet")
            return 0

    if args.command == "run":
        import json as _json

        from .spec import RunSpec, execute
        from .store import (
            execute_cached,
            make_record,
            metrics_of,
            open_store,
        )

        spec = RunSpec.load(args.spec)
        if getattr(args, "topology", None) is not None:
            # CLI override beats the file's topology field (same spec
            # precedence as runtime overrides in the builder).
            spec = spec.replace(topology=_parse_topology(args))
        if args.store:
            record, hit = execute_cached(spec, open_store(args.store))
        else:
            record, hit = make_record(spec, metrics_of(execute(spec))), False
        metrics = record["metrics"]
        if args.as_json:
            print(_json.dumps(record, indent=2, sort_keys=True))
        else:
            print(f"spec {spec.spec_hash} ({spec.kind}/{spec.algorithm} "
                  f"n={spec.n} seed={spec.seed})"
                  + (" [cache hit]" if hit else ""))
            for key in sorted(metrics):
                print(f"  {key} = {metrics[key]}")
        return 0 if _record_status(record)[0] == "ok" else 1

    if args.command == "list":
        from .sim.topology import TOPOLOGY_BUILDERS
        from .spec.registry import (
            ADVERSARIES,
            CRASH_PLANS,
            SCENARIOS,
            TRANSPORTS,
        )

        sections = [
            ("gossip algorithms", sorted(GOSSIP_ALGORITHMS)),
            ("consensus transports", sorted(TRANSPORTS) + ["ben-or"]),
            ("adversaries", sorted(ADVERSARIES)),
            ("crash plans", sorted(CRASH_PLANS)),
            ("topologies", sorted(TOPOLOGY_BUILDERS)),
            ("scenarios", sorted(SCENARIOS)),
        ]
        for title, names in sections:
            print(f"{title}:")
            for name in names:
                print(f"  {name}")
        return 0

    if args.command == "report":
        from .experiments.report import ReportConfig, generate_report

        report = generate_report(ReportConfig(seeds=args.seeds))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
            print(f"report written to {args.output}")
        else:
            print(report)
        return 0

    if args.command == "inspect":
        from .analysis.timeline import TimelineRecorder
        from .spec import RunSpec, build

        if args.width < 1:
            raise ConfigurationError(
                f"--width must be >= 1, got {args.width}")
        recorder = TimelineRecorder()
        run = build(
            RunSpec(
                algorithm=args.algorithm, n=args.n,
                f=args.f if args.f is not None else args.n // 4,
                d=args.d, delta=args.delta, seed=args.seed,
                crashes=args.crashes or None, max_steps=100_000,
            ),
            observers=(recorder,),
        ).run()
        print(recorder.render(width=args.width))
        for line in recorder.crash_lines():
            print(line)
        print(
            f"{args.algorithm}: completed={run.completed} "
            f"time={run.completion_time} messages={run.messages}"
        )
        return 0 if run.completed else 1

    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
