"""Property-based engine invariants over random executions.

These hold for *every* execution of *any* algorithm — they pin down the
substrate's bookkeeping, which all complexity measurements rest on.
"""

import dataclasses
import inspect
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.adaptive import ScriptedAdversary
from repro.adversary.crash_plans import random_crashes
from repro.adversary.oblivious import ObliviousAdversary
from repro.core.base import make_processes
from repro.core.ears import Ears
from repro.core.tears import Tears
from repro.core.trivial import TrivialGossip
from repro.core.uniform import UniformEpidemicGossip
from repro.sim.engine import Simulation
from repro.sim.errors import ConfigurationError
from repro.sim.events import Observer
from repro.sim.monitor import GossipCompletionMonitor
from repro.spec import GOSSIP_ALGORITHMS, TRANSPORTS, RunSpec
from repro.spec import build as build_spec

ALGORITHMS = [TrivialGossip, Ears, Tears, UniformEpidemicGossip]

configs = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=3, max_value=20),
        "d": st.integers(min_value=1, max_value=4),
        "delta": st.integers(min_value=1, max_value=3),
        "seed": st.integers(min_value=0, max_value=10 ** 6),
        "steps": st.integers(min_value=1, max_value=60),
        "algorithm_index": st.integers(min_value=0, max_value=3),
        "crash_count": st.integers(min_value=0, max_value=4),
    }
)


def build(cfg, monitored=False):
    n = cfg["n"]
    crash_count = min(cfg["crash_count"], n - 1)
    plan = (
        random_crashes(n, crash_count, 12, seed=cfg["seed"])
        if crash_count else None
    )
    algorithm_class = ALGORITHMS[cfg["algorithm_index"]]
    monitor = None
    if monitored:
        monitor = GossipCompletionMonitor(majority=algorithm_class is Tears)
    return Simulation(
        n=n, f=crash_count,
        algorithms=make_processes(n, crash_count, algorithm_class),
        adversary=ObliviousAdversary.uniform(
            cfg["d"], cfg["delta"], seed=cfg["seed"], crashes=plan,
        ),
        monitor=monitor,
        seed=cfg["seed"],
    )


class TestConservation:
    @given(configs)
    @settings(max_examples=30, deadline=None)
    def test_message_conservation(self, cfg):
        """sent == delivered + dropped + in-flight at every observation."""
        sim = build(cfg)
        for _ in range(cfg["steps"]):
            sim.step()
            m = sim.metrics
            assert m.messages_sent == (
                m.messages_delivered + m.messages_dropped
                + sim.network.in_flight
            )

    @given(configs)
    @settings(max_examples=20, deadline=None)
    def test_kind_counts_sum_to_total(self, cfg):
        sim = build(cfg)
        sim.run_for(cfg["steps"])
        m = sim.metrics
        assert sum(m.messages_by_kind.values()) == m.messages_sent


class PairLog(Observer):
    """Every message's (src, dst), in send order."""

    def __init__(self):
        self.pairs = []

    def on_send(self, t, msg):
        self.pairs.append((msg.src, msg.dst))


class TestScriptedSendCounts:
    """The Theorem 1 adversary's books: what it counts for its named
    senders is exactly what they sent, in a fork as in the original."""

    @given(configs, st.data())
    @settings(max_examples=20, deadline=None)
    def test_counts_sum_to_what_the_counted_senders_sent(self, cfg, data):
        n = cfg["n"]
        counted = data.draw(st.sets(st.integers(0, n - 1)) | st.just(
            set(range(n))))

        def build():
            adversary = ScriptedAdversary()
            adversary.delay = cfg["d"]
            adversary.count_sends(counted)
            return Simulation(
                n=n, f=0, seed=cfg["seed"], monitor=None,
                adversary=adversary, algorithms=make_processes(
                    n, 0, ALGORITHMS[cfg["algorithm_index"]]),
            )

        # A simulation with observers cannot be forked, so the fork is
        # taken from an uninstrumented twin of the logged run, and its
        # log starts as a copy of the original's.
        sim, twin = build(), build()
        logged = sim.add_observer(PairLog())
        sim.run_for(cfg["steps"] // 2)
        twin.run_for(cfg["steps"] // 2)
        fork = twin.fork()
        fork.adversary.scheduled = set(range(0, n, 2))
        fork_log = fork.add_observer(PairLog())
        fork_log.pairs = list(logged.pairs)
        for run, log in ((sim, logged), (fork, fork_log)):
            run.run_for(cfg["steps"] - cfg["steps"] // 2)
            books, log = run.adversary, log.pairs
            mine = [(src, dst) for src, dst in log if src in counted]
            assert sum(books.sent.values()) == len(mine)
            assert Counter(mine) == Counter({
                (src, dst): count for src, to in books.sent_to.items()
                for dst, count in to.items()})
            for src in counted:
                assert books.sent[src] == sum(books.sent_to[src].values())
                # Destinations in first-send order.
                assert list(books.sent_to[src]) == list(dict.fromkeys(
                    dst for s, dst in mine if s == src))
            if counted == set(range(n)):
                assert sum(books.sent.values()) == run.metrics.messages_sent


class TestRealizedBounds:
    @given(configs)
    @settings(max_examples=25, deadline=None)
    def test_realized_within_oblivious_targets(self, cfg):
        sim = build(cfg)
        sim.run_for(cfg["steps"])
        assert sim.metrics.realized_d <= cfg["d"]
        assert sim.metrics.realized_delta <= cfg["delta"]

    @given(configs)
    @settings(max_examples=20, deadline=None)
    def test_crash_budget_never_exceeded(self, cfg):
        sim = build(cfg)
        sim.run_for(cfg["steps"])
        assert sim.metrics.crashes <= sim.f
        assert len(sim.alive_pids) == cfg["n"] - sim.metrics.crashes


class TestCompletionTime:
    @given(configs, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_completed_run_stops_at_its_completion_time(self, cfg, monitored):
        """The monitor is checked after every step, so a run (here entered
        mid-execution) stops at the step its completion is recorded at:
        ``completion_time == steps``."""
        sim = build(cfg, monitored)
        sim.run_for(cfg["steps"])
        result = sim.run(max_steps=20_000)
        if result.completed:
            assert result.completion_time == result.steps == sim.now


class TestStateMonotonicity:
    @given(configs)
    @settings(max_examples=20, deadline=None)
    def test_rumor_sets_only_grow(self, cfg):
        sim = build(cfg)
        previous = [0] * cfg["n"]
        for _ in range(cfg["steps"]):
            sim.step()
            for pid in sim.alive_pids:
                mask = sim.algorithm(pid).rumor_mask
                assert mask & previous[pid] == previous[pid]
                previous[pid] = mask

    @given(configs)
    @settings(max_examples=15, deadline=None)
    def test_ears_informed_list_only_grows(self, cfg):
        cfg = dict(cfg, algorithm_index=1)  # Ears
        sim = build(cfg)
        previous = [sim.algorithm(pid).informed_list
                    for pid in range(cfg["n"])]
        for _ in range(cfg["steps"]):
            sim.step()
            for pid in sim.alive_pids:
                informed = sim.algorithm(pid).informed_list
                assert informed & previous[pid] == previous[pid]
                previous[pid] = informed


# -- the RunSpec space ------------------------------------------------------ #

def _knob_names(algorithm_class):
    params_class = getattr(algorithm_class, "params_class", None)
    if params_class is not None:
        return [knob.name for knob in dataclasses.fields(params_class)]
    return list(inspect.signature(algorithm_class).parameters)[4:]


#: (kind, algorithm, its real knob names) for everything a spec can name.
SPEC_ALGORITHMS = (
    [("gossip", name, _knob_names(cls))
     for name, cls in sorted(GOSSIP_ALGORITHMS.items())]
    + [("consensus", name, _knob_names(cls))
       for name, cls in sorted(TRANSPORTS.items())]
    + [("consensus", "ben-or", [])]
)

knob_values = st.one_of(
    st.none(), st.integers(), st.floats(), st.booleans())


@st.composite
def specs_with_params(draw):
    kind, algorithm, knobs = draw(st.sampled_from(SPEC_ALGORITHMS))
    names = st.sampled_from(knobs + ["junk", "pid", "params", "fanout"])
    return RunSpec(
        kind=kind, algorithm=algorithm, n=draw(st.integers(3, 12)),
        seed=draw(st.integers(0, 10 ** 6)),
        params=draw(st.dictionaries(names, knob_values, max_size=3)),
    )


class TestSpecSpace:
    @given(specs_with_params())
    @settings(max_examples=150, deadline=None)
    def test_any_params_mapping_builds_or_is_refused_by_name(self, spec):
        """The first clause of the spec-space fuzz target: whatever the
        ``params`` mapping holds, ``build`` returns or raises a
        ``ConfigurationError`` — never a TypeError from a constructor."""
        try:
            build_spec(spec)
        except ConfigurationError as exc:
            assert repr(spec.algorithm) in str(exc)
