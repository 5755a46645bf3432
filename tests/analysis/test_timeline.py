"""Tests for the ASCII timeline renderer."""

from repro.adversary.crash_plans import crash_at
from repro.adversary.oblivious import ObliviousAdversary
from repro.analysis.timeline import crash_summary, render_timeline
from repro.core.base import make_processes
from repro.core.trivial import TrivialGossip
from repro.sim.engine import Simulation
from repro.sim.events import TraceObserver
from repro.sim.monitor import GossipCompletionMonitor
from repro.sim.scheduler import RoundRobinWindows
from repro.sim.trace import EventTrace


def traced_run(n=4, crashes=None, schedule=None, steps=8):
    trace = EventTrace()
    adversary = ObliviousAdversary(schedule=schedule, crashes=crashes)
    sim = Simulation(
        n=n, f=n - 1, algorithms=make_processes(n, n - 1, TrivialGossip),
        adversary=adversary, monitor=GossipCompletionMonitor(),
        seed=0, observers=(TraceObserver(trace),),
    )
    sim.run_for(steps)
    return trace, sim


class TestRenderTimeline:
    def test_lanes_and_legend(self):
        trace, _ = traced_run()
        out = render_timeline(trace, n=4)
        lines = out.splitlines()
        assert len(lines) == 6  # header + 4 lanes + legend
        assert "legend" in lines[-1]

    def test_send_marked_in_first_step(self):
        trace, _ = traced_run()
        out = render_timeline(trace, n=4)
        lane0 = out.splitlines()[1]
        assert "s" in lane0 or "b" in lane0

    def test_crash_marked(self):
        trace, _ = traced_run(crashes=crash_at({2: [1]}))
        out = render_timeline(trace, n=4)
        lane1 = [
            line for line in out.splitlines() if line.strip().startswith("1 ")
        ][0]
        assert "X" in lane1

    def test_unscheduled_steps_blank(self):
        trace, _ = traced_run(schedule=RoundRobinWindows(4), steps=8)
        out = render_timeline(trace, n=4)
        # Under a 4-window round-robin each lane has gaps.
        for lane in out.splitlines()[1:-1]:
            assert " " in lane[3:]

    def test_pid_filter_and_window(self):
        trace, _ = traced_run(steps=8)
        out = render_timeline(trace, n=4, pids=[1, 3], t_start=2, t_end=5)
        assert len(out.splitlines()) == 4
        assert "2..4" in out.splitlines()[0]

    def test_width_truncation_noted(self):
        trace, _ = traced_run(steps=8)
        out = render_timeline(trace, n=4, width=3)
        assert "truncated" in out.splitlines()[0]


class TestCrashSummary:
    def test_ordered_lines(self):
        trace, _ = traced_run(crashes=crash_at({3: [1], 1: [2]}))
        summary = crash_summary(trace)
        assert summary == [
            "t=1: pid 2 crashed",
            "t=3: pid 1 crashed",
        ]
