"""A gossip-style heartbeat failure-detection service (van Renesse [25]).

The introduction's first motivating application. Each node maintains a
heartbeat vector: its own entry increments every local step; vectors merge
entrywise-max when gossiped. A node suspects peer q once q's heartbeat has
not advanced for ``suspicion_threshold`` of its *own* local steps — no
global clocks, exactly the asynchronous discipline of the paper's model.

Detector quality under this model:

* **Completeness** — a crashed node's heartbeat freezes, so every live
  node eventually suspects it forever.
* **Eventual accuracy** — with the threshold above the realized gossip
  propagation lag (a function of the execution's (d, δ), unknown to the
  algorithm), live nodes stop being falsely suspected. The run report
  measures detection latency and false suspicions so the threshold/lag
  trade-off is visible rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..adversary.crash_plans import CrashPlan, no_crashes
from ..adversary.oblivious import ObliviousAdversary
from ..sim.engine import Simulation
from ..sim.message import Message
from ..sim.monitor import PredicateMonitor
from ..sim.process import Algorithm, Context

KIND_HEARTBEAT = "heartbeat"


class HeartbeatProcess(Algorithm):
    """One member of the failure-detection service."""

    def __init__(self, pid: int, n: int, f: int,
                 suspicion_threshold: int = 30,
                 fanout: int = 1) -> None:
        self.pid = pid
        self.n = n
        self.f = f
        self.suspicion_threshold = suspicion_threshold
        self.fanout = max(1, fanout)
        self.heartbeats = [0] * n
        #: Local step at which each peer's heartbeat last advanced.
        self.last_advanced = [0] * n
        self.local_steps = 0
        #: Peers currently suspected, plus bookkeeping of transitions.
        self.suspected: Set[int] = set()
        self.false_suspicions = 0
        self.suspicion_step: Dict[int, int] = {}

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        self.local_steps += 1
        self.heartbeats[self.pid] = self.local_steps
        self.last_advanced[self.pid] = self.local_steps

        for msg in inbox:
            for peer, beat in enumerate(msg.payload):
                if beat > self.heartbeats[peer]:
                    self.heartbeats[peer] = beat
                    self.last_advanced[peer] = self.local_steps

        for peer in range(self.n):
            if peer == self.pid:
                continue
            stale = self.local_steps - self.last_advanced[peer]
            if stale > self.suspicion_threshold:
                if peer not in self.suspected:
                    self.suspected.add(peer)
                    self.suspicion_step[peer] = self.local_steps
            elif peer in self.suspected:
                # The peer was alive after all: a false suspicion.
                self.suspected.discard(peer)
                self.false_suspicions += 1

        snapshot = tuple(self.heartbeats)
        targets = set(ctx.random_peers(self.fanout))
        for dst in targets:
            ctx.send(dst, snapshot, kind=KIND_HEARTBEAT)

    def is_quiescent(self) -> bool:
        return False  # a monitoring service runs forever


@dataclass
class FailureDetectorRun:
    n: int
    completed: bool
    reason: str
    time: Optional[int]
    messages: int
    crashed: Set[int]
    detection_latency: Dict[int, int]   # crashed pid -> steps to consensus
    false_suspicions: int
    sim: Simulation

    @property
    def max_detection_latency(self) -> int:
        return max(self.detection_latency.values(), default=0)


def run_failure_detector(
    n: int = 32,
    crashes: Optional[CrashPlan] = None,
    suspicion_threshold: int = 30,
    d: int = 1,
    delta: int = 1,
    seed: int = 0,
    settle_steps: int = 80,
    max_steps: int = 20_000,
) -> FailureDetectorRun:
    """Run the service until every crash is detected by every live node.

    Completion: every live node suspects exactly the crashed set, with
    ``settle_steps`` of hindsight for accuracy to stabilize. Detection
    latency per victim is the time from its crash until the last live node
    suspected it.
    """
    plan = crashes if crashes is not None else no_crashes()
    f = max(plan.total, 0)
    members = [
        HeartbeatProcess(pid, n, f, suspicion_threshold=suspicion_threshold)
        for pid in range(n)
    ]

    def all_detected(sim: Simulation) -> bool:
        if plan.has_pending(sim.now):
            return False
        crashed = frozenset(range(n)) - sim.alive_pids
        if sim.now < (max((t for t, _ in plan.events()), default=0)
                      + settle_steps):
            return False
        return all(
            sim.algorithm(pid).suspected == crashed
            for pid in sim.alive_pids
        )

    adversary = ObliviousAdversary.uniform(d, delta, seed=seed, crashes=plan)
    sim = Simulation(
        n=n, f=max(1, f) if f else max(0, n - 1), algorithms=members,
        adversary=adversary,
        monitor=PredicateMonitor(all_detected, "all-detected"), seed=seed,
    )
    result = sim.run(max_steps=max_steps)

    crashed = frozenset(range(n)) - sim.alive_pids
    latency: Dict[int, int] = {}
    for victim in crashed:
        crash_time = sim.metrics.crash_times.get(victim, 0)
        # Suspicion steps are in local time; scale by delta for an upper
        # estimate in global steps.
        latencies = [
            sim.algorithm(pid).suspicion_step.get(victim, 0) * delta
            - crash_time
            for pid in sim.alive_pids
        ]
        latency[victim] = max(0, max(latencies, default=0))
    return FailureDetectorRun(
        n=n,
        completed=result.completed,
        reason=result.reason,
        time=result.completion_time,
        messages=result.messages,
        crashed=set(crashed),
        detection_latency=latency,
        false_suspicions=sum(
            sim.algorithm(pid).false_suspicions for pid in sim.alive_pids
        ),
        sim=sim,
    )
