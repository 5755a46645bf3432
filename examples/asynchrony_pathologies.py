#!/usr/bin/env python3
"""Asynchrony pathologies, visualized: the DLS chaotic prefix and timelines.

Two demonstrations of why "asynchronous most of the time" is not
"synchronous":

1. An eventually-synchronous execution (Dwork–Lynch–Stockmeyer regime, the
   model the paper derives its timing from): before an unknown GST every
   message crawls and scheduling is sparse; afterwards (d, δ) = (2, 2)
   hold. The paper's algorithms never read clocks or bounds, so they ride
   out the chaos; their *partially synchronous complexity* — the span
   measured from GST — matches the Table 1 bounds. The prefix's message
   bill exposes each algorithm's character: step-driven EARS pays per step
   of chaos, arrival-driven TEARS pays one burst.

2. An ASCII timeline of a small traced execution under a targeted-delay
   adaptive adversary — the texture of "the e-mail that took two days".

Run:  python examples/asynchrony_pathologies.py
"""

from repro.adversary.adaptive import TargetedDelayAdversary
from repro.adversary.gst import GstAdversary
from repro.analysis import render_table
from repro.analysis.timeline import render_timeline
from repro.core.base import make_processes
from repro.core.ears import Ears
from repro.core.tears import Tears
from repro.core.trivial import TrivialGossip
from repro.sim.engine import Simulation
from repro.sim.events import TraceObserver
from repro.sim.monitor import GossipCompletionMonitor
from repro.sim.trace import EventTrace

N, F, GST = 32, 8, 80


def run_with_gst(algorithm_class, majority=False, seed=2):
    adversary = GstAdversary(gst=GST, d=2, delta=2, seed=seed)
    sim = Simulation(
        n=N, f=F, algorithms=make_processes(N, F, algorithm_class),
        adversary=adversary,
        monitor=GossipCompletionMonitor(majority=majority), seed=seed,
    )
    result = sim.run(max_steps=20_000)
    return result, sim


def demo_gst() -> None:
    rows = []
    for name, cls, majority in (
        ("trivial", TrivialGossip, False),
        ("ears", Ears, False),
        ("tears", Tears, True),
    ):
        result, sim = run_with_gst(cls, majority=majority)
        assert result.completed
        rows.append([
            name, result.completion_time,
            result.completion_time - GST, result.messages,
        ])
    print(render_table(
        ["algorithm", "completion (global)", "span after GST", "messages"],
        rows,
        title=f"eventually-synchronous run: chaos until GST={GST}, then "
              "d=2, δ=2",
    ))
    print()
    print("No algorithm can finish inside the chaotic prefix; each")
    print("completes within its Table 1 time of GST. EARS' message bill")
    print("includes one message per local step of chaos; TEARS' is the")
    print("same one-time first-level burst it always pays.")


def demo_timeline() -> None:
    trace = EventTrace()
    adversary = TargetedDelayAdversary(victims={3}, d=9)
    sim = Simulation(
        n=6, f=1, algorithms=make_processes(6, 1, TrivialGossip),
        adversary=adversary, monitor=GossipCompletionMonitor(),
        seed=0, observers=(TraceObserver(trace),),
    )
    sim.run(max_steps=100)
    print("timeline: trivial gossip, every link touching pid 3 delayed 9x")
    print(render_timeline(trace, n=6))
    print()
    print("Lane 3 receives its burst of rumors (r) nine steps after")
    print("everyone else exchanged theirs — the lone slow participant the")
    print("introduction's e-mail anecdote describes.")


def main() -> None:
    demo_gst()
    print()
    demo_timeline()


if __name__ == "__main__":
    main()
