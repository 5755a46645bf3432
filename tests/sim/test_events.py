"""Observer bus: dispatch, fast path, synchronous runs."""

import pytest

from repro.adversary.crash_plans import crash_at
from repro.adversary.oblivious import ObliviousAdversary
from repro.core.base import make_processes
from repro.core.ears import Ears
from repro.sim.bits import BitMeter
from repro.sim.engine import Simulation
from repro.sim.errors import ConfigurationError
from repro.sim.events import (
    EVENT_METHODS,
    BitMeterObserver,
    Observer,
    StepProfiler,
    TraceObserver,
    overridden_events,
)
from repro.sim.monitor import GossipCompletionMonitor
from repro.sim.process import Algorithm
from repro.sim.trace import EventTrace
from repro.sync.ck_gossip import CkStyleGossip


class RecordingObserver(Observer):
    """Appends (kind, t) for every event it sees."""

    def __init__(self):
        self.seen = []
        self.attached_to = None

    def on_attach(self, engine):
        self.attached_to = engine

    def on_step_begin(self, t):
        self.seen.append(("step_begin", t))

    def on_crash(self, t, pid):
        self.seen.append(("crash", t, pid))

    def on_schedule(self, t, pid):
        self.seen.append(("schedule", t, pid))

    def on_deliver(self, t, pid, inbox):
        self.seen.append(("deliver", t, pid, len(inbox)))

    def on_send(self, t, msg):
        self.seen.append(("send", t, msg.src, msg.dst))

    def on_step_end(self, t):
        self.seen.append(("step_end", t))

    def on_complete(self, t):
        self.seen.append(("complete", t))


class SendOnlyObserver(Observer):
    def __init__(self):
        self.sends = 0

    def on_send(self, t, msg):
        self.sends += 1


def make_sim(n=8, f=2, seed=0, **kwargs):
    return Simulation(
        n=n, f=f,
        algorithms=make_processes(n, f, Ears),
        adversary=ObliviousAdversary.uniform(2, 2, seed=seed),
        monitor=GossipCompletionMonitor(),
        seed=seed,
        **kwargs,
    )


class TestOverriddenEvents:
    def test_base_observer_overrides_nothing(self):
        assert overridden_events(Observer()) == []

    def test_partial_observer_overrides_only_its_events(self):
        assert overridden_events(SendOnlyObserver()) == ["send"]

    def test_full_observer_overrides_everything(self):
        assert set(overridden_events(RecordingObserver())) == set(
            EVENT_METHODS
        )


class TestDispatch:
    def test_zero_observer_handler_lists_are_empty(self):
        sim = make_sim()
        for kind in EVENT_METHODS:
            assert getattr(sim, f"_obs_{kind}") == []

    def test_partial_observer_registers_only_overridden(self):
        sim = make_sim()
        sim.add_observer(SendOnlyObserver())
        assert len(sim._obs_send) == 1
        assert sim._obs_schedule == []
        assert sim._obs_step_begin == []

    def test_attach_callback_fires(self):
        observer = RecordingObserver()
        sim = make_sim(observers=(observer,))
        assert observer.attached_to is sim

    def test_events_fire_in_step_order(self):
        observer = RecordingObserver()
        sim = make_sim(observers=(observer,))
        sim.step()
        kinds = [event[0] for event in observer.seen]
        assert kinds[0] == "step_begin"
        assert kinds[-1] == "step_end"
        assert "schedule" in kinds and "send" in kinds

    def test_complete_fires_once_on_completion(self):
        observer = RecordingObserver()
        sim = make_sim(observers=(observer,))
        result = sim.run()
        assert result.completed
        completes = [e for e in observer.seen if e[0] == "complete"]
        assert len(completes) == 1
        assert completes[0][1] == result.completion_time

    def test_observer_does_not_change_metrics(self):
        plain = make_sim().run()
        observed = make_sim(observers=(RecordingObserver(),)).run()
        assert plain.completion_time == observed.completion_time
        assert plain.messages == observed.messages
        assert plain.metrics == observed.metrics


class TestObserversOnly:
    def test_engines_take_no_trace_or_bit_meter_keyword(self):
        """Instrumentation attaches through ``observers=`` alone."""
        for kwargs in ({"trace": EventTrace()}, {"bit_meter": BitMeter(8)}):
            with pytest.raises(TypeError):
                make_sim(**kwargs)

    def test_bit_meter_observer_fills_bits_sent(self):
        run = make_sim(observers=(BitMeterObserver(BitMeter(8)),)).run()
        assert run.metrics["bits_sent"] > 0
        assert make_sim().run().metrics["bits_sent"] == 0


class SyncCounter(Algorithm):
    """Minimal synchronous algorithm: everyone pings pid 0 in rounds 0-2."""

    def __init__(self):
        self.rounds = 0

    def on_step(self, ctx, inbox):
        if self.rounds < 3 and ctx.pid != 0:
            ctx.send(0, payload=ctx.pid)
        self.rounds += 1

    def is_quiescent(self):
        return True


def make_sync_sim(algorithms, f=0, crashes=None, **kwargs):
    """The synchronous (d = δ = 1) execution of ``algorithms``."""
    return Simulation(
        n=len(algorithms), f=f, algorithms=algorithms,
        adversary=ObliviousAdversary.synchronous_like(crashes), **kwargs,
    )


class TestSyncEngineObservers:
    """Synchronous runs report through the same bus."""

    def test_trace_on_sync_run(self):
        trace = EventTrace()
        sim = make_sync_sim([SyncCounter() for _ in range(4)],
                            observers=(TraceObserver(trace),))
        sim.run(max_steps=5)
        sends = len(list(trace.of_kind("send")))
        assert sends == sim.metrics.messages_sent == 9
        assert len(list(trace.of_kind("schedule"))) > 0
        sends = [e for e in trace.events if e.kind == "send"]
        assert all(e.get("delay") == 1 for e in sends)

    def test_bit_meter_on_sync_run(self):
        sim = make_sync_sim([SyncCounter() for _ in range(4)],
                            observers=(BitMeterObserver(BitMeter(4)),))
        sim.run(max_steps=5)
        assert sim.metrics.bits_sent > 0

    def test_recording_observer_on_ck_gossip(self):
        n = 8
        observer = RecordingObserver()
        sim = make_sync_sim(
            [CkStyleGossip(pid=p, n=n, f=0) for p in range(n)],
            monitor=GossipCompletionMonitor(), observers=(observer,),
        )
        result = sim.run()
        assert result.completed
        kinds = [event[0] for event in observer.seen]
        assert kinds.count("complete") == 1
        assert kinds.count("step_begin") == result.steps

    def test_observer_stream_of_a_synchronous_run(self):
        """Per round: begin, crashes, then each live pid in order —
        scheduled, handed last round's messages, sending — then end."""
        observer = RecordingObserver()
        sim = make_sync_sim([SyncCounter() for _ in range(3)], f=1,
                            crashes=crash_at({1: [2]}),
                            observers=(observer,))
        result = sim.run()
        # Quiescent from the first round on, the run stops once the
        # network has drained.
        assert (result.completed, result.steps) == (True, 4)
        assert observer.seen == [
            ("step_begin", 0),
            ("schedule", 0, 0), ("schedule", 0, 1), ("send", 0, 1, 0),
            ("schedule", 0, 2), ("send", 0, 2, 0),
            ("step_end", 0),
            ("step_begin", 1), ("crash", 1, 2),
            ("schedule", 1, 0), ("deliver", 1, 0, 2),
            ("schedule", 1, 1), ("send", 1, 1, 0),
            ("step_end", 1),
            ("step_begin", 2),
            ("schedule", 2, 0), ("deliver", 2, 0, 1),
            ("schedule", 2, 1), ("send", 2, 1, 0),
            ("step_end", 2),
            ("step_begin", 3),
            ("schedule", 3, 0), ("deliver", 3, 0, 1), ("schedule", 3, 1),
            ("step_end", 3),
            ("complete", 4),
        ]

    def test_zero_observer_sync_lists_empty(self):
        sim = make_sync_sim([SyncCounter() for _ in range(3)])
        for kind in EVENT_METHODS:
            assert getattr(sim, f"_obs_{kind}") == []


class TestStepProfiler:
    def test_profiler_buckets_fill(self):
        profiler = StepProfiler()
        make_sim(observers=(profiler,)).run()
        assert profiler.steps > 0
        assert profiler.seconds
        assert "compute+send" in profiler.counts
        assert "total" in profiler.report()

    def test_profiler_works_on_sync_engine(self):
        profiler = StepProfiler()
        sim = make_sync_sim([SyncCounter() for _ in range(4)],
                            observers=(profiler,))
        sim.run(max_steps=5)
        assert profiler.steps > 0


class TestForkRefusesObservers:
    def test_fork_names_the_observers(self):
        sim = make_sim(observers=(TraceObserver(EventTrace()),
                                  RecordingObserver()))
        sim.run_for(3)
        with pytest.raises(ConfigurationError,
                           match="TraceObserver, RecordingObserver"):
            sim.fork()
        with pytest.raises(ConfigurationError, match="TraceObserver"):
            sim.snapshot()
        assert sim.now == 3 and sim.run().completed  # the run is intact


def test_unknown_algorithm_count_still_validates():
    with pytest.raises(Exception):
        Simulation(
            n=4, f=0,
            algorithms=make_processes(3, 0, Ears),
            adversary=ObliviousAdversary.uniform(1, 1),
        )
