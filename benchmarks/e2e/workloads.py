"""The seven workloads: spec lists made from the seed, and how one round
of each is run — untraced, the way a user calls the program, and traced,
by driving the same public pieces one at a time under timing delegates.

A workload's inputs are a fixed list generated from ``--seed``; the
program only ever receives the generated specs. ``small=True`` shrinks
every list to smoke-test size (same cells, smaller ``n``, fewer seeds).
Sizes marked *frozen* were trimmed so that one round of the full size
takes about two seconds on the 2-core reference box; they are part of the
benchmark's definition — changing one invalidates every earlier number.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List, Sequence

from repro.adversary.adaptive import ScriptedAdversary
from repro.adversary.lower_bound import LowerBoundReport, run_lower_bound
from repro.experiments.pool import TrialPool
from repro.experiments.theorem1 import PORTFOLIO
from repro.sim.engine import Simulation
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.spec.builder import build, execute
from repro.spec.results import GossipRun
from repro.spec.runspec import RunSpec
from repro.spec.vectorized import (
    batch_group_key,
    batch_ineligibility,
    run_batch_specs,
)
from repro.store import execute_batch, metrics_of, open_store
from repro.store.batch import DEFAULT_BATCH_SIZE

from tracing import FORK_METHODS, Tracer

__all__ = ["WORKLOADS", "BenchmarkError", "digest", "layer_metrics",
           "spec_job"]

#: Pool width of ``campaign-pool-store``: the reference box has 2 cores,
#: and a benchmark must never start more workers than cores.
POOL_PROCESSES = 2


class BenchmarkError(Exception):
    """The program returned something the benchmark can show is wrong."""


# -- simulated statistics and their digests --------------------------------- #

def stats_of(outcome: Any) -> Dict[str, Any]:
    """The simulated statistics of one trial, JSON-native.

    Host timings never enter: two commits that simulate the same
    executions produce the same statistics, whatever their speed.
    """
    if isinstance(outcome, GossipRun):
        return {
            "completed": outcome.completed,
            "reason": outcome.reason,
            "time": outcome.completion_time,
            "gathering_time": outcome.gathering_time,
            "messages": outcome.messages,
            "messages_by_kind": dict(outcome.messages_by_kind),
            "realized_d": outcome.realized_d,
            "realized_delta": outcome.realized_delta,
            "crashes": outcome.crashes,
        }
    if isinstance(outcome, LowerBoundReport):
        return {
            "case": outcome.case,
            "phase1_time": outcome.phase1_time,
            "forced_time": outcome.measured_time,
            "forced_messages": outcome.measured_messages,
            "promiscuous": list(outcome.promiscuous),
            "isolation_pair": outcome.isolation_pair,
            "isolation_success": outcome.isolation_success,
            "crashes": outcome.crashes_used,
        }
    # A store record (or the metrics block of one): consensus records
    # carry decisions/rounds/agreement/validity beside the gossip keys.
    return dict(outcome.get("metrics", outcome))


def digest(stats: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of one trial's statistics."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- pieces shared by the traced rounds ------------------------------------- #

def _codec(spec: RunSpec) -> RunSpec:
    """The serialization a spec pays on its way through ``execute_batch``
    (dict to the job, dict back in the worker, hash for the record)."""
    clone = RunSpec.from_dict(spec.to_dict())
    clone.spec_hash
    return clone


def _count_sim(counts: Counter, sim: Simulation) -> None:
    counts["sim.network.enqueued"] += sim.network.total_enqueued
    counts["sim.network.delivered"] += sim.metrics.messages_delivered
    counts["sim.metrics.messages"] += sim.metrics.messages_sent
    counts["sim.metrics.proc_steps"] += sim.metrics.local_steps_taken
    counts["sim.metrics.sim_steps"] += sim.metrics.steps_elapsed
    # Steps the scalar engine itself executed (the batch engine's trials
    # add to sim.metrics.* but not to the scalar loop's cost per step).
    counts["scalar_proc_steps"] += sim.metrics.local_steps_taken


def _traced_trial(spec: RunSpec, tracer: Tracer, counts: Counter,
                  codec: bool, trial: int):
    """One scalar trial, piece by piece: (codec →) build → run."""
    tracer.trial = trial
    if codec:
        spec = tracer.call("spec.codec", _codec, spec)
    built = tracer.call("spec.build", build, spec)
    with tracer.scope():
        tracer.install(built.sim, spec.kind)
        run = tracer.call("sim.engine.run", built.run)
    _count_sim(counts, built.sim)
    return run


def spec_job(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The pool job of ``experiments.pool.*``: module-level so workers
    can import it, built only from public pieces."""
    return metrics_of(execute(RunSpec.from_dict(spec_dict)))


def _pool_map(processes: int, jobs: Sequence[Dict[str, Any]]):
    with TrialPool(processes) as pool:
        return pool.map(spec_job, jobs)


def _reopen(path: str):
    """Open an existing store and force it to load (``len``)."""
    store = open_store(path)
    len(store)
    return store


def _hit(store, spec_hash: str):
    """The two reads a cache hit costs ``execute_batch``."""
    return spec_hash in store and store.get(spec_hash)


def _store_files_bytes(path: str) -> int:
    """Bytes on disk of a store and its sidecars (lock, WAL, shm)."""
    folder, base = os.path.split(path)
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for name in os.listdir(folder) if name.startswith(base)
    )


# -- workloads --------------------------------------------------------------- #

class Workload:
    """A fixed input list and the two ways of running one round of it.

    Untraced, a round is a list of **calls** into the program, made one
    after the other; the runner times each call on its own.
    """

    name = ""
    #: One line: why the workload exists.
    why = ""

    def __init__(self, seed: int, small: bool, workdir: str) -> None:
        self.seed = seed
        self.small = small
        self.workdir = workdir

    def seeds(self, count: int) -> List[int]:
        """``count`` trial seeds derived from the workload seed."""
        return [self.seed * 100_000 + i for i in range(count)]

    @property
    def trials(self) -> int:
        """Trials one round attempts."""
        raise NotImplementedError

    def calls(self, index: int) -> List[Callable[[], List[Dict[str, Any]]]]:
        """The calls of untraced round ``index``, in order; each returns
        the statistics of the trials it ran."""
        raise NotImplementedError

    def round(self, index: int) -> List[Dict[str, Any]]:
        """Run one untraced round; per-trial statistics in list order."""
        return [stats for call in self.calls(index) for stats in call()]

    def traced_round(self, index: int, tracer: Tracer,
                     counts: Counter) -> List[Dict[str, Any]]:
        """The same round under timing delegates; same statistics."""
        raise NotImplementedError

    def probe(self, tracer: Tracer) -> None:
        """Whole-call timings that are no part of a round; runs after
        each traced round, outside its wall clock."""


class ScalarWorkload(Workload):
    """``execute(spec)`` over a list of gossip specs, default engine."""

    def __init__(self, seed, small, workdir) -> None:
        super().__init__(seed, small, workdir)
        self.specs: List[RunSpec] = self.make_specs()

    def make_specs(self) -> List[RunSpec]:
        raise NotImplementedError

    @property
    def trials(self) -> int:
        return len(self.specs)

    def calls(self, index):
        return [partial(self._execute, spec) for spec in self.specs]

    @staticmethod
    def _execute(spec):
        return [stats_of(execute(spec))]

    def traced_round(self, index, tracer, counts):
        return [
            stats_of(_traced_trial(spec, tracer, counts, False, trial))
            for trial, spec in enumerate(self.specs)
        ]


class DenseEpidemic(ScalarWorkload):
    name = "dense-epidemic"
    why = (
        "EARS/SEARS at n=128,256, d=delta=2: core.epidemic.on_step "
        "(l_is_empty) does most of the work; leap, pool and store do "
        "nothing"
    )

    def make_specs(self):
        (seed,) = self.seeds(1)
        specs = []
        for algorithm in ("ears", "sears"):
            for n in ((16, 24) if self.small else (128, 256)):
                common = dict(algorithm=algorithm, n=n, d=2, delta=2,
                              seed=seed)
                specs.append(RunSpec(**common))
                specs.append(RunSpec(f=n // 2, crashes=n // 4, **common))
        return specs


class DenseFanout(ScalarWorkload):
    name = "dense-fanout"
    why = (
        "trivial/TEARS at n=128,256: 16k-196k messages a trial through "
        "send, assign_delay, record_send, enqueue, collect; no epidemic "
        "code runs"
    )

    def make_specs(self):
        (seed,) = self.seeds(1)
        sizes = (16, 24) if self.small else (128, 256)
        specs = []
        for algorithm in ("trivial", "tears"):
            common = dict(algorithm=algorithm, d=2, delta=2, seed=seed)
            specs += [RunSpec(n=n, **common) for n in sizes]
            n = sizes[0]
            specs.append(RunSpec(n=n, f=n // 2, crashes=n // 4, **common))
        return specs


class SparseLeap(ScalarWorkload):
    name = "sparse-leap"
    why = (
        "delta >> n, crash wave and GST prefix at n=128 on the default "
        "engine: ~10^4-10^5 simulated steps, few messages; monitor, "
        "adversary queries and the loop itself"
    )

    def make_specs(self):
        (seed,) = self.seeds(1)
        # Frozen: δ=2048 of the first sizing became δ=1024 (one EARS
        # δ=2048 trial alone is 1.7 s) and the GST prefix 10k steps.
        n, deltas, wave_delta, gst, pre_gst_delta = (
            (16, (64, 128), 16, 500, 64) if self.small
            else (128, (512, 1024), 64, 10_000, 512)
        )
        specs = []
        for algorithm in ("ears", "sears"):
            common = dict(algorithm=algorithm, n=n, d=2, seed=seed)
            specs += [RunSpec(delta=delta, **common) for delta in deltas]
            specs.append(RunSpec(
                delta=wave_delta, f=n - 2,
                crashes={"name": "wave", "count": n - 2, "at": 1},
                **common,
            ))
        specs.append(RunSpec(
            algorithm="ears", n=n, d=2, delta=2, seed=seed,
            adversary={"name": "gst", "gst": gst,
                       "pre_gst_delta": pre_gst_delta},
        ))
        return specs


class ConsensusTable2(Workload):
    """Table 2 the way ``run_table2`` submits it: one inline
    ``execute_batch`` call per protocol row, no store."""

    name = "consensus-table2"
    why = (
        "Table 2 rows through inline execute_batch: the only workload "
        "through repro.consensus and its context shims"
    )

    def __init__(self, seed, small, workdir) -> None:
        super().__init__(seed, small, workdir)
        # Frozen: 3 seeds at the small n, 1 at the large (CR-tears n=64
        # is 0.6 s a trial).
        shapes = (((8, 3, 2), (12, 5, 1)) if small
                  else ((32, 15, 3), (64, 31, 1)))
        self.rows: List[List[RunSpec]] = [
            [
                RunSpec(kind="consensus", algorithm=transport, n=n, f=f,
                        d=2, delta=2, seed=s, crashes=f)
                for s in self.seeds(count)
            ]
            for transport in ("ears", "sears", "tears", "all-to-all")
            for n, f, count in shapes
        ]
        self.rows.append([
            RunSpec(kind="consensus", algorithm="ben-or", n=8, f=3, d=2,
                    delta=2, seed=s, crashes=3)
            for s in self.seeds(2 if small else 3)
        ])

    @property
    def trials(self):
        return sum(len(row) for row in self.rows)

    def calls(self, index):
        return [partial(self._submit, row) for row in self.rows]

    @staticmethod
    def _submit(row):
        return [stats_of(record) for record in execute_batch(row)]

    def traced_round(self, index, tracer, counts):
        specs = [spec for row in self.rows for spec in row]
        return [
            stats_of(metrics_of(
                _traced_trial(spec, tracer, counts, True, trial)))
            for trial, spec in enumerate(specs)
        ]


class Theorem1Fork(Workload):
    """The Theorem 1 adversary over the strategy portfolio."""

    name = "theorem1-fork"
    why = (
        "adaptive lower-bound adversary over the portfolio: stepwise "
        "only, the only caller of Simulation.fork and component clone"
    )

    def __init__(self, seed, small, workdir) -> None:
        super().__init__(seed, small, workdir)
        n, f, count, samples, cap = (
            (32, 8, 1, 2, 300) if small else (64, 16, 2, 4, 1200)
        )
        self.jobs = [
            (name, dict(n=n, f=f, seed=s, samples=samples, phase1_cap=cap))
            for name in PORTFOLIO for s in self.seeds(count)
        ]
        # The Case-2 branch: a frugal strategy at a size where the
        # adversary classifies it non-promiscuous and isolates a pair.
        self.jobs += [
            ("sparse", dict(n=2 * n, f=2 * f, seed=s, samples=samples - 1,
                            phase1_cap=cap, promiscuity_factor=8))
            for s in self.seeds(count)
        ]

    @property
    def trials(self):
        return len(self.jobs)

    def calls(self, index):
        return [partial(self._force, *job) for job in self.jobs]

    @staticmethod
    def _force(name, kwargs):
        return [stats_of(run_lower_bound(PORTFOLIO[name], **kwargs))]

    def traced_round(self, index, tracer, counts):
        # run_lower_bound builds and forks its own simulation, so the
        # delegates go on the classes it instantiates; the simulated
        # counts of the forks are not reachable and stay unreported.
        algorithms = [
            type(PORTFOLIO[name](0, 32, 8)) for name in PORTFOLIO
        ]
        out = []
        with tracer.scope():
            tracer.install_classes(ScriptedAdversary, Network, Metrics,
                                   algorithms)
            for trial, (name, kwargs) in enumerate(self.jobs):
                tracer.trial = trial
                out.append(stats_of(tracer.call(
                    "sim.engine.run", run_lower_bound, PORTFOLIO[name],
                    **kwargs,
                )))
        return out


class CampaignVectorized(Workload):
    """One ``execute_batch`` call into a fresh SQLite store with
    ``engine="batch"``: vectorizable cells and cells that fall back."""

    name = "campaign-vectorized"
    why = (
        "one engine=batch execute_batch into SQLite: vectorized cells, "
        "per-trial crash path, and ineligible cells falling back to "
        "scalar"
    )

    def __init__(self, seed, small, workdir) -> None:
        super().__init__(seed, small, workdir)
        # Frozen seed counts (full size): 32 / 16 eligible, 4 / 2 not.
        n, many, some, few, fewer = (
            (16, 4, 2, 2, 1) if small else (64, 32, 16, 4, 2)
        )

        def cell(count, **coords):
            return [
                RunSpec(d=2, delta=2, seed=s, engine="batch", **coords)
                for s in self.seeds(count)
            ]

        self.specs: List[RunSpec] = []
        for algorithm in ("ears", "sears"):
            self.specs += cell(many, algorithm=algorithm, n=n)
            self.specs += cell(many, algorithm=algorithm, n=n, f=n // 2,
                               crashes=n // 4)
        self.specs += cell(some, algorithm="ears", n=2 * n)
        self.specs += cell(some, algorithm="ears", n=2 * n, f=n,
                           crashes=n // 2)
        # Ineligible cells riding the same call (scalar fallback).
        self.specs += cell(few, algorithm="tears", n=n)
        self.specs += cell(fewer, algorithm="ears", n=n, topology="ring")

    @property
    def trials(self):
        return len(self.specs)

    def _store(self, index: int, tag: str):
        return open_store(
            os.path.join(self.workdir, f"vectorized-{tag}{index}.sqlite")
        )

    def calls(self, index):
        return [partial(self._submit, index)]

    def _submit(self, index):
        store = self._store(index, "r")
        records = execute_batch(self.specs, store=store, processes=1)
        if len(store) != len(self.specs):
            raise BenchmarkError(
                f"store holds {len(store)} records for "
                f"{len(self.specs)} distinct specs"
            )
        return [stats_of(record) for record in records]

    def traced_round(self, index, tracer, counts):
        store = self._store(index, "t")
        stats: Dict[str, Dict[str, Any]] = {}

        def put(spec, metrics):
            tracer.call("store.sqlite.put", store.put, spec, metrics)
            stats[spec.spec_hash] = stats_of(metrics)

        groups: Dict[str, List[RunSpec]] = {}
        for trial, spec in enumerate(self.specs):
            if batch_ineligibility(spec) is None:
                groups.setdefault(batch_group_key(spec), []).append(spec)
            else:
                put(spec, metrics_of(
                    _traced_trial(spec, tracer, counts, True, trial)))
        tracer.trial = -1  # a chunk is many trials: its spans name none
        for group in groups.values():
            for start in range(0, len(group), DEFAULT_BATCH_SIZE):
                chunk = [
                    tracer.call("spec.codec", _codec, spec)
                    for spec in group[start:start + DEFAULT_BATCH_SIZE]
                ]
                runs = tracer.call("sim.batch.run", run_batch_specs, chunk)
                counts["sim.batch.trials"] += len(runs)
                for spec, run in zip(chunk, runs):
                    counts["sim.metrics.messages"] += run.messages
                    counts["sim.metrics.proc_steps"] += (
                        run.result.metrics["local_steps_taken"])
                    counts["sim.metrics.sim_steps"] += run.result.steps
                    put(spec, metrics_of(run))
        counts["sim.batch.eligible"] += sum(map(len, groups.values()))
        counts["sim.batch.submitted"] += len(self.specs)
        counts["store.bytes"] += _store_files_bytes(store.path)
        return [stats[spec.spec_hash] for spec in self.specs]


class CampaignPoolStore(Workload):
    """Tiny trials through the pool into a store, then the store read
    back: (a) submit, (b) reopen and resubmit (all cache hits), (c)
    ``select`` and ``verify`` — once per backend in every round, so that
    every round does the same work."""

    name = "campaign-pool-store"
    why = (
        "128 tiny specs through a 2-worker pool into each store "
        "backend, then resubmit, select, verify: per-job costs get "
        "their largest share"
    )

    def __init__(self, seed, small, workdir) -> None:
        super().__init__(seed, small, workdir)
        # Frozen: 8 seeds a cell → 128 specs, submitted to each backend.
        sizes, count = ((8, 12), 2) if small else ((16, 32), 8)
        self.specs = [
            RunSpec(algorithm=algorithm, n=n, d=2, delta=2, seed=s, **crash)
            for algorithm in ("ears", "sears", "tears", "trivial")
            for n in sizes
            for crash in ({}, {"f": n // 2, "crashes": n // 4})
            for s in self.seeds(count)
        ]
        self.select_n = sizes[1]
        self.selected = 2 * count

    @property
    def trials(self):
        return 2 * len(self.specs)

    def _check_reads(self, store, selected, report) -> None:
        if len(selected) != self.selected:
            raise BenchmarkError(
                f"select(algorithm='ears', n={self.select_n}) returned "
                f"{len(selected)} records, expected {self.selected}"
            )
        if not report["ok"] or report["unique"] != len(self.specs):
            raise BenchmarkError(f"verify() of {store.path}: {report}")

    def calls(self, index):
        return [partial(self._campaign, index, backend)
                for backend in ("jsonl", "sqlite")]

    def _campaign(self, index, backend):
        path = os.path.join(self.workdir, f"pool-r{index}.{backend}")
        records = execute_batch(self.specs, store=open_store(path),
                                processes=POOL_PROCESSES)
        store = open_store(path)
        again = execute_batch(self.specs, store=store,
                              processes=POOL_PROCESSES)
        selected = store.select(algorithm="ears", n=self.select_n)
        report = store.verify()
        if again != records:
            raise BenchmarkError(
                f"{backend}: resubmitting stored specs returned other "
                "records than the first submission"
            )
        self._check_reads(store, selected, report)
        return [stats_of(record) for record in records]

    def traced_round(self, index, tracer, counts):
        out = []
        for backend in ("jsonl", "sqlite"):
            path = os.path.join(self.workdir, f"pool-t{index}.{backend}")
            prefix = f"store.{backend}."
            store = open_store(path)
            for trial, spec in enumerate(self.specs):
                run = _traced_trial(spec, tracer, counts, True, trial)
                metrics = metrics_of(run)
                tracer.call(prefix + "put", store.put, spec, metrics)
                out.append(stats_of(metrics))
            counts["store.bytes"] += _store_files_bytes(path)
            store = tracer.call(prefix + "open", _reopen, path)
            for spec in self.specs:
                if not tracer.call(prefix + "hit", _hit, store,
                                   spec.spec_hash):
                    raise BenchmarkError(
                        f"{backend}: {spec.spec_hash} missing after put")
            selected = tracer.call("store.select", store.select,
                                   algorithm="ears", n=self.select_n)
            report = tracer.call("store.verify", store.verify)
            self._check_reads(store, selected, report)
        return out

    def probe(self, tracer):
        # The same jobs through a 2-worker pool and inline: what the pool
        # costs or saves at this job size.
        jobs = [spec.to_dict() for spec in self.specs]
        pooled = tracer.call("experiments.pool.map", _pool_map,
                             POOL_PROCESSES, jobs)
        inline = tracer.call("experiments.pool.inline", _pool_map, 1, jobs)
        if pooled != inline:
            raise BenchmarkError("pooled and inline results differ")


# -- per-layer metrics of one traced round ----------------------------------- #

def layer_metrics(spans: Dict[str, Any], counts: Counter) -> Dict[str, float]:
    """Per-layer metrics of one traced round; a layer the round did not
    exercise contributes no key."""

    absent = (0, 0.0, 0.0)

    def seen(name):
        return name in spans

    def calls(name):
        return spans.get(name, absent)[0]

    def total(name):
        return spans.get(name, absent)[1]

    def own(name):
        return spans.get(name, absent)[2]

    out: Dict[str, float] = {}
    for name in ("spec.build", "adversary.schedule", "adversary.delay",
                 "adversary.next_event", "core.on_step",
                 "consensus.on_step", "sim.monitor.check"):
        if seen(name):
            out[name + "_s"] = total(name)
            out[name + "_calls"] = calls(name)
    for name in ("spec.codec", "sim.network.enqueue", "sim.network.collect",
                 "sim.metrics.record", "sim.batch.run", "store.select",
                 "store.verify", "store.jsonl.open", "store.sqlite.open"):
        if seen(name):
            out[name + "_s"] = total(name)
    for name in ("store.jsonl.put", "store.sqlite.put", "store.jsonl.hit",
                 "store.sqlite.hit"):
        if seen(name):
            out[name + "_us"] = total(name) / calls(name) * 1e6
    for name in ("sim.network.enqueued", "sim.network.delivered",
                 "sim.metrics.messages", "sim.metrics.proc_steps",
                 "sim.metrics.sim_steps", "sim.batch.trials", "store.bytes"):
        if name in counts:
            out[name] = counts[name]
    if seen("core.on_step"):
        out["core.on_step_us"] = (
            total("core.on_step") / calls("core.on_step") * 1e6)
    if seen("sim.engine.run"):
        out["sim.engine.run_s"] = total("sim.engine.run")
        out["sim.engine.self_s"] = own("sim.engine.run")
        if counts["scalar_proc_steps"]:
            out["sim.engine.us_per_proc_step"] = (
                total("sim.engine.run") / counts["scalar_proc_steps"] * 1e6)
    # snapshot() calls fork(), so sum self times; a state copy is one
    # fork() or one restore().
    out["sim.engine.fork_s"] = sum(
        own("sim.engine." + attr) for attr in FORK_METHODS)
    out["sim.engine.fork_calls"] = (
        calls("sim.engine.fork") + calls("sim.engine.restore"))
    if counts["sim.batch.trials"]:
        out["sim.batch.us_per_trial"] = (
            total("sim.batch.run") / counts["sim.batch.trials"] * 1e6)
    if counts["sim.batch.submitted"]:
        out["sim.batch.eligible_frac"] = (
            counts["sim.batch.eligible"] / counts["sim.batch.submitted"])
    if seen("experiments.pool.map"):
        out["experiments.pool.map_s"] = total("experiments.pool.map")
        out["experiments.pool.inline_s"] = total("experiments.pool.inline")
        out["experiments.pool.efficiency"] = (
            total("experiments.pool.inline")
            / (total("experiments.pool.map") * POOL_PROCESSES))
    return out


WORKLOADS = {
    cls.name: cls
    for cls in (DenseEpidemic, DenseFanout, SparseLeap, ConsensusTable2,
                Theorem1Fork, CampaignVectorized, CampaignPoolStore)
}
