"""The send path's unit of work is one process-step's outbox.

``Context.send_many`` → engine (delay, count, announce, enqueue) →
``Metrics.record_send(outbox, now)`` → ``Network.enqueue(outbox,
alive)``. These tests pin that the batch forms account exactly as the
per-message forms they replaced, and that the engine keeps calling the
layer boundaries the e2e tracer patches by name.
"""

import gc
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.adaptive import TargetedDelayAdversary
from repro.adversary.base import Adversary
from repro.adversary.crash_plans import crash_at, wave_crashes
from repro.adversary.delay_plans import HashDelay
from repro.adversary.oblivious import ObliviousAdversary
from repro.core.base import make_processes
from repro.core.majority import DeterministicMajorityGossip
from repro.faults.injectors import _AdversaryProxy
from repro.sim.engine import Simulation
from repro.sim.errors import AlgorithmError, InvalidDelayError
from repro.sim.events import Observer
from repro.sim.message import FanOut, Message, expand
from repro.sim.metrics import Metrics
from repro.sim.monitor import GossipCompletionMonitor
from repro.sim.network import Network
from repro.sim.process import Algorithm, Context
from repro.sim.scheduler import RoundRobinWindows
from repro.spec import RunSpec, build
from repro.spec.registry import GOSSIP_ALGORITHMS

from ..plans import CrashEagerSendersAdversary, SubsetEveryStep
from .test_engine_leap import ALGORITHMS, PLAN_FACTORIES, SPEC_CELLS

KINDS = ("gossip", "shutdown", "ben-or", "ben-or-decide")


def per_message_accounting(metrics, kind, now):
    """What ``record_send`` did when it was called once per message."""
    metrics.messages_sent += 1
    metrics.messages_by_kind[kind] += 1
    metrics.last_send_time = now


def send_state(metrics):
    return (
        metrics.messages_sent,
        +metrics.messages_by_kind,
        metrics.last_send_time,
    )


class TestRecordSend:
    @given(st.lists(
        st.lists(st.tuples(
            st.integers(min_value=0, max_value=5),              # dst
            st.sampled_from(KINDS),
            st.booleans(),                                      # fresh str?
        ), max_size=12),
        max_size=8,
    ))
    @settings(max_examples=120, deadline=None)
    def test_outbox_accounting_equals_the_per_message_sum(self, steps):
        batch, reference = Metrics(n=6), Metrics(n=6)
        for now, sends in enumerate(steps):
            outbox = [
                # An equal-but-not-identical kind string must count the
                # same as a shared one (runs are an optimization only).
                Message(0, dst, None,
                        "".join(list(kind)) if fresh else kind)
                for dst, kind, fresh in sends
            ]
            batch.record_send(outbox, now)
            for msg in outbox:
                per_message_accounting(reference, msg.kind, now)
        assert send_state(batch) == send_state(reference)

    def test_empty_outbox_leaves_no_trace(self):
        m = Metrics(n=3)
        m.record_send([], now=4)
        assert send_state(m) == send_state(Metrics(n=3))


def stamped(dst, delay, kind="gossip", sent_at=0):
    return Message(src=0, dst=dst, payload=None, kind=kind,
                   sent_at=sent_at, delay=delay)


class TestEnqueueOutbox:
    def test_crashed_destination_in_the_middle_of_an_outbox(self):
        net = Network(5)
        outbox = [stamped(1, 2), stamped(2, 1, "shutdown"),
                  stamped(3, 1), stamped(2, 4), stamped(4, 3, "ben-or")]
        assert net.enqueue(outbox, alive={0, 1, 3, 4}) == 2
        assert net.in_flight == 3
        assert net.total_enqueued == 3
        assert net.pending_for(2) == 0
        assert [net.pending_for(pid) for pid in (1, 3, 4)] == [1, 1, 1]

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_delay_below_one_anywhere_in_the_outbox_raises(self, position):
        outbox = [stamped(1, 1), stamped(2, 1), stamped(3, 1)]
        outbox[position].delay = 0
        with pytest.raises(InvalidDelayError):
            Network(4).enqueue(outbox, alive=range(4))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_an_enqueue_that_raises_queues_nothing(self, position):
        net = Network(4)
        net.enqueue([stamped(1, 2)], alive=range(4))
        outbox = [stamped(1, 1), stamped(2, 1, "shutdown"), stamped(3, 1)]
        outbox[position].delay = 0
        with pytest.raises(InvalidDelayError):
            net.enqueue(outbox, alive=range(4))
        # Queues and counters still agree for whoever catches the error.
        assert [net.pending_for(pid) for pid in range(4)] == [0, 1, 0, 0]
        assert (net.in_flight, net.total_enqueued) == (1, 1)
        assert len(net.collect(1, 5)) == 1


def stamped_fanout(dsts, delays, kind="gossip", sent_at=0):
    record = FanOut(0, tuple(dsts), None, kind)
    record.sent_at = sent_at
    record.delays = list(delays)
    return record


def queue_view(net, pid):
    return sorted((m.sent_at + m.delay, m.uid, m.src, m.dst, m.kind, m.sent_at,
                   m.delay) for m in net.queued_for(pid))


class TestFanOutEntries:
    """A record in the mailboxes answers every query as the messages it
    stands for, queued one by one, would."""

    def pair(self, alive=range(5)):
        early = stamped(1, 1)
        record = stamped_fanout([1, 2, 1, 3, 4, 1], [2, 2, 2, 5, 1, 4])
        shared, single = Network(5), Network(5)
        for net in (shared, single):
            net.enqueue([early], alive)
        assert shared.enqueue([record], alive) == single.enqueue(
            expand([record]), alive)
        return record, shared, single

    def agree(self, shared, single):
        for pid in range(5):
            assert queue_view(shared, pid) == queue_view(single, pid)
            assert shared.pending_for(pid) == single.pending_for(pid)
        assert (shared.in_flight, shared.total_enqueued) == (
            single.in_flight, single.total_enqueued)

    def test_queued_for_yields_the_expanded_messages(self):
        record, shared, single = self.pair(alive={0, 1, 2, 4})
        self.agree(shared, single)
        assert shared.pending_for(3) == 0 and shared.in_flight == 6
        # Pid 1 holds three copies, two of them in its slot at time 2.
        assert sorted(m.uid for m in shared.queued_for(1)
                      if m.uid >= record.uid) == [
            record.uid, record.uid + 2, record.uid + 5]

    def test_collect_delivers_the_record_in_uid_order(self):
        record, shared, single = self.pair()
        got = shared.collect(1, 4)
        assert got[1:] == [record, record, record]
        assert [m.uid for m in single.collect(1, 4)] == [
            got[0].uid, record.uid, record.uid + 2, record.uid + 5]
        assert shared.max_delivered_delay == single.max_delivered_delay == 4

    def test_a_record_older_than_what_is_queued_is_sorted_in(self):
        record = stamped_fanout([1, 2, 1], [2, 2, 2])
        newer = [stamped(1, 2), stamped(2, 2)]
        shared, single = Network(3), Network(3)
        for net, outbox in ((shared, [record]), (single, expand([record]))):
            net.enqueue(newer, alive=range(3))
            net.enqueue(outbox, alive=range(3))
        for pid in (1, 2):
            got = shared.collect(pid, 2)
            assert [m.uid for m in got] == [
                m.uid for m in single.collect(pid, 2)]
            assert [m.uid for m in got] == sorted(m.uid for m in got)

    def test_a_bad_delay_in_a_record_queues_nothing(self):
        net = Network(4)
        with pytest.raises(InvalidDelayError):
            net.enqueue([stamped(1, 1), stamped_fanout([1, 2, 3], [1, 0, 2])],
                        alive=range(4))
        assert (net.in_flight, net.total_enqueued) == (0, 0)


def blocks_allocated_by(call):
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        call()
        return sys.getallocatedblocks() - before
    finally:
        gc.enable()


def test_a_message_costs_no_allocation_past_its_own():
    """Between ``send_many`` and ``on_step`` the ``Message`` is the only
    thing allocated per message: queueing an outbox grows the heap by its
    slots, counting it not at all."""
    outbox = [stamped(dst=1 + i % 4, delay=3) for i in range(10_000)]
    net, metrics = Network(6), Metrics(n=6)
    alive = frozenset(range(6))
    assert blocks_allocated_by(lambda: net.enqueue(outbox, alive)) <= 64
    assert blocks_allocated_by(
        lambda: metrics.record_send(outbox, 0)) <= 64
    assert net.in_flight == metrics.messages_sent == 10_000
    assert [net.pending_for(pid) for pid in range(6)] == [
        0, 2500, 2500, 2500, 2500, 0]


class ConservationProbe(Observer):
    """sent == delivered + dropped + in-flight, after every step."""

    def __init__(self):
        self.steps = 0

    def on_attach(self, engine):
        self.sim = engine

    def on_step_end(self, t):
        m = self.sim.metrics
        assert m.messages_sent == (
            m.messages_delivered + m.messages_dropped
            + self.sim.network.in_flight
        ), t
        self.steps += 1


@pytest.mark.parametrize("algorithm", ["trivial", "tears", "sears"])
def test_conservation_holds_after_every_step_of_a_crash_wave(algorithm):
    probe = ConservationProbe()
    n = 24
    built = build(RunSpec(
        algorithm=algorithm, n=n, f=n // 2, d=3, delta=3, seed=5,
        crashes={"name": "wave", "count": n // 2, "at": 2},
    ), observers=(probe,))
    built.run()
    assert probe.steps > 0
    # The wave really made both kinds of drop happen: sends addressed to
    # the already-crashed never entered a queue, the rest were emptied
    # out of a queue at crash time.
    sim = built.sim
    dropped_at_send = sim.metrics.messages_sent - sim.network.total_enqueued
    assert sim.metrics.messages_dropped > dropped_at_send > 0


class TestSendMany:
    def context(self, neighbors=None):
        return Context(2, 6, 0, random.Random(0), neighbors)

    def test_queues_in_order_sharing_the_payload(self):
        ctx = self.context()
        payload = ("mask", None)
        assert ctx.send_many([4, 0, 5], payload, kind="direct") == 3
        outbox = expand(ctx.outbox)
        assert [(m.src, m.dst, m.kind) for m in outbox] == [
            (2, 4, "direct"), (2, 0, "direct"), (2, 5, "direct")]
        assert all(m.payload is payload for m in outbox)
        uids = [m.uid for m in outbox]
        assert uids == sorted(uids)
        assert ctx.send_many(iter(()), payload) == 0

    @pytest.mark.parametrize("neighbors, bad", [
        (None, 6), (None, -1), ((0, 1, 3), 4), ((0, 1, 3), 2),
    ])
    def test_rejects_exactly_as_send_and_queues_nothing_of_the_call(
            self, neighbors, bad):
        good = 1
        one = self.context(neighbors)
        with pytest.raises(AlgorithmError) as single:
            one.send(bad, "x")
        ctx = self.context(neighbors)
        ctx.send(good, "before")
        with pytest.raises(AlgorithmError) as many:
            ctx.send_many([good, bad, good], "x")
        assert str(many.value) == str(single.value)
        assert [m.payload for m in ctx.outbox] == ["before"]

    @pytest.mark.parametrize("neighbors, dsts, first_bad", [
        (None, [0, 1, 3, 4, 7, 5], 7),
        (None, [-2, 1, 3, 9, 4], -2),
        (None, [1, 3, 4, 5, 6], 6),
        ((0, 1, 3, 5), [0, 1, 3, 5, 2, 4], 2),
        ((0, 1, 3, 5), [5, 3, 1, 0, 0, 6], 6),
    ])
    def test_a_fan_out_rejects_its_first_bad_destination_as_send_does(
            self, neighbors, dsts, first_bad):
        one = self.context(neighbors)
        with pytest.raises(AlgorithmError) as single:
            one.send(first_bad, "x")
        ctx = self.context(neighbors)
        ctx.send_many([0, 1, 3], "before")
        with pytest.raises(AlgorithmError) as many:
            ctx.send_many(iter(dsts), "x")
        assert str(many.value) == str(single.value)
        assert [m.payload for m in expand(ctx.outbox)] == ["before"] * 3

    def test_a_fan_out_takes_the_uids_its_messages_would_have(self):
        """k destinations: one record, the next k uids of the counter, in
        destination order — the very uids k Message(...) calls take."""
        ctx = self.context()
        dsts = [5, 0, 5, 3, 1]
        before = Message(0, 1, None).uid
        assert ctx.send_many(dsts, "x", kind="k") == 5
        after = Message(0, 1, None).uid
        (record,) = ctx.outbox
        assert type(record) is FanOut
        dsts.append(4)                      # the caller keeps its list
        assert tuple(record.dsts) == (5, 0, 5, 3, 1)
        messages = expand(ctx.outbox)
        assert [m.uid for m in messages] == list(range(before + 1, after))
        assert [(m.src, m.dst, m.kind, m.payload, m.sent_at, m.delay)
                for m in messages] == [(2, dst, "k", "x", -1, 1)
                                       for dst in (5, 0, 5, 3, 1)]
        # Below the threshold nothing changes: a Message per destination.
        ctx.outbox = []
        assert ctx.send_many([4, 4], "y") == 2
        assert [type(m) for m in ctx.outbox] == [Message, Message]
        assert ctx.outbox[1].uid == ctx.outbox[0].uid + 1 == after + 2


TRACED_BOUNDARIES = {
    "adversary": ("schedule_at", "crashes_at", "delay_outbox",
                  "next_event_at"),
    "network": ("enqueue", "collect"),
    "metrics": ("record_send", "record_delivery", "record_scheduled"),
}


def spy_on(owner, attrs, calls):
    for attr in attrs:
        def delegate(*args, _inner=getattr(owner, attr), _attr=attr,
                     **kwargs):
            calls[_attr] += 1
            return _inner(*args, **kwargs)

        setattr(owner, attr, delegate)


def test_engine_calls_every_traced_layer_boundary_on_the_instance():
    """benchmarks/e2e/tracing.py times the layers by replacing methods on
    the built instances; an engine that cached a bound method at
    construction, or routed around one, would leave its layer dark. The
    adversary's delay boundary is ``delay_outbox``."""
    built = build(RunSpec(algorithm="ears", n=16, f=4, crashes=2,
                          d=2, delta=2, seed=3))
    calls = Counter()
    for layer, attrs in TRACED_BOUNDARIES.items():
        spy_on(getattr(built.sim, layer), attrs, calls)
    result = built.run()
    assert result.completed
    assert all(calls[attr] > 0 for attrs in TRACED_BOUNDARIES.values()
               for attr in attrs), calls
    # One span of each send-path layer per sending process-step.
    assert calls["delay_outbox"] == calls["record_send"] == calls["enqueue"]
    assert calls["enqueue"] <= calls["record_scheduled"]


class OnlyAssignDelay(Adversary):
    """All a third-party adversary has to implement."""

    def crashes_at(self, t):
        return set()

    def schedule_at(self, t, alive):
        return set(alive)

    def assign_delay(self, msg):
        return 1 + (msg.src + msg.dst) % 3


def test_an_adversary_that_only_implements_assign_delay_is_asked_per_message():
    n = 12
    sim = Simulation(
        n=n, f=0, algorithms=make_processes(n, 0, GOSSIP_ALGORITHMS["ears"]),
        adversary=OnlyAssignDelay(), monitor=GossipCompletionMonitor(),
        seed=2,
    )
    calls = Counter()
    spy_on(sim.adversary, ("assign_delay", "delay_outbox"), calls)
    spy_on(sim.metrics, ("record_send",), calls)
    assert sim.run(max_steps=5_000).completed
    assert calls["delay_outbox"] == calls["record_send"] > 0
    assert calls["assign_delay"] == sim.metrics.messages_sent
    assert sim.metrics.realized_d == 3


# -- the fan-out record against its expansion -------------------------------- #
#
# A bare Observer() overrides nothing, yet attaching it makes the engine
# expand every fan-out record into its messages: the expanded run is the
# send path as it was before records existed, and the oracle for the
# record path. Everything observable must agree.

def from_spec(spec, adversary=None):
    def make(observers):
        built = build(spec, observers=observers,
                      adversary=adversary() if adversary else None)
        return built.sim, built.max_steps
    return make


def by_hand(algorithms, n, f, adversary, monitor=None):
    def make(observers):
        sim = Simulation(
            n=n, f=f, algorithms=algorithms(n, f), adversary=adversary(),
            monitor=monitor() if monitor else None, seed=4,
            observers=observers,
        )
        return sim, 20_000
    return make


def observe(make, observers):
    # uids come from one process-wide counter: count them from the run's
    # first one.
    first_uid = Message(0, 0, None).uid + 1
    sim, max_steps = make(observers)
    views = []
    for _ in range(6):
        sim.run_for(1)
        views.append([
            sorted((m.sent_at + m.delay, m.uid - first_uid, m.src, m.dst,
                    m.kind, m.sent_at, m.delay, m.payload)
                   for m in sim.network.queued_for(pid))
            for pid in range(sim.n)
        ])
    result = sim.run(max_steps=max_steps)
    network = sim.network
    return (
        result, views, sim.metrics.snapshot(),
        [sim.processes[pid].ctx.rng.getstate() for pid in range(sim.n)],
        (network.total_enqueued, network.in_flight,
         network.max_delivered_delay),
    )


def assert_record_path_is_exact(make):
    assert observe(make, ()) == observe(make, (Observer(),))


class Burst(Algorithm):
    """Mixed outboxes: a single send, a two-destination send_many and a
    fan-out with a repeated destination, every step for four steps."""

    def __init__(self):
        self.sent = 0

    def on_step(self, ctx, inbox):
        for msg in inbox:
            assert (msg.kind, msg.payload[0]) in (
                ("one", "a"), ("two", "b"), ("many", "c"))
        if self.sent < 4:
            draw = ctx.random_peers(5)
            ctx.send(draw[0], ("a", ctx.pid), kind="one")
            ctx.send_many(draw[:2], ("b", ctx.pid), kind="two")
            ctx.send_many(draw + draw[:2], ("c", ctx.pid), kind="many")
            self.sent += 1

    def is_quiescent(self):
        return self.sent >= 4


def _leap_suite():
    """Every case of tests/sim/test_engine_leap.py's differential suite."""
    cases = [
        pytest.param(from_spec(RunSpec(algorithm=algorithm, n=12, seed=5,
                                       **cell.values[0])),
                     id=f"{algorithm}-{cell.id}")
        for algorithm in ALGORITHMS for cell in SPEC_CELLS
    ]
    cases.append(pytest.param(from_spec(RunSpec(
        kind="consensus", algorithm="ears", n=9, f=2, d=2, delta=5, seed=1,
    )), id="consensus"))
    for plan in PLAN_FACTORIES:
        for crashes in (None, {3: [1], 11: [4, 7]}):
            def factory(plan=plan.values[0], crashes=crashes):
                return ObliviousAdversary(
                    schedule=plan(), delays=HashDelay(3, seed=8),
                    crashes=crash_at(crashes) if crashes else None)
            cases.append(pytest.param(
                from_spec(RunSpec(algorithm="ears", n=12, f=4, seed=7),
                          factory),
                id=f"{plan.id}-{'crashes' if crashes else 'failure-free'}"))
    cases.append(pytest.param(from_spec(
        RunSpec(algorithm="ears", n=12, f=0, seed=3, max_steps=300),
        lambda: ObliviousAdversary(
            schedule=SubsetEveryStep({0, 1, 2, 3}, target_delta=400),
            delays=HashDelay(2, seed=1)),
    ), id="subset-starvation"))
    cases.append(pytest.param(from_spec(
        RunSpec(algorithm="ears", n=12, f=11, seed=2, max_steps=500),
        lambda: ObliviousAdversary(
            schedule=RoundRobinWindows(6),
            crashes=wave_crashes(range(1, 12), at=9)),
    ), id="near-total-crash-wave"))
    for name, factory in (
            ("targeted-delay", lambda: TargetedDelayAdversary({1, 2}, d=4)),
            ("crash-eager", lambda: CrashEagerSendersAdversary(budget=3))):
        cases.append(pytest.param(from_spec(
            RunSpec(algorithm="ears", n=12, f=4, seed=9), factory),
            id=f"adaptive-{name}"))
    return cases


LEAP_SUITE = _leap_suite()


def test_the_leap_suite_is_all_here():
    assert len(LEAP_SUITE) == 83


@pytest.mark.parametrize("make", LEAP_SUITE)
def test_every_leap_differential_case_runs_as_its_expansion(make):
    assert_record_path_is_exact(make)


def _fanout_cells():
    cases = []
    for algorithm in ("trivial", "tears", "sears"):
        for d, delta in ((2, 2), (5, 3), (1, 1)):
            cases.append(pytest.param(from_spec(RunSpec(
                algorithm=algorithm, n=40, f=16, d=d, delta=delta, seed=11,
                crashes={"name": "wave", "count": 12, "at": 2},
            )), id=f"{algorithm}-d{d}-delta{delta}-wave"))
        cases.append(pytest.param(from_spec(RunSpec(
            algorithm=algorithm, n=40, f=16, d=3, delta=2, seed=6, crashes=9,
        )), id=f"{algorithm}-random-crashes"))
    # Delays past one byte: each record's delays are packed two-byte.
    for algorithm in ("trivial", "tears"):
        cases.append(pytest.param(from_spec(RunSpec(
            algorithm=algorithm, n=40, f=16, d=300, delta=2, seed=3,
            crashes={"name": "wave", "count": 12, "at": 2},
        )), id=f"{algorithm}-d300-delta2-wave"))
    cases.append(pytest.param(by_hand(
        lambda n, f: make_processes(n, f, DeterministicMajorityGossip),
        40, 16,
        lambda: ObliviousAdversary.uniform(
            3, 2, seed=2, crashes=wave_crashes(range(5, 17), at=3)),
        lambda: GossipCompletionMonitor(majority=True),
    ), id="majority-wave"))
    cases.append(pytest.param(by_hand(
        lambda n, f: [Burst() for _ in range(n)], 9, 3,
        lambda: ObliviousAdversary.uniform(
            4, 2, seed=5, crashes=wave_crashes([2, 7], at=2)),
    ), id="mixed-outboxes-repeated-destinations"))
    return cases


@pytest.mark.parametrize("make", _fanout_cells())
def test_fan_out_cells_with_crashes_run_as_their_expansion(make):
    assert_record_path_is_exact(make)


def outbox_types(sim, steps=4):
    """The entry types the network was handed in the first steps."""
    seen = set()
    enqueue = sim.network.enqueue

    def spy(outbox, alive):
        seen.update(map(type, outbox))
        return enqueue(outbox, alive)

    sim.network.enqueue = spy
    sim.run_for(steps)
    return seen


@pytest.mark.parametrize("adversary, records", [
    (None, True),
    ({"name": "gst", "gst": 3}, True),
])
def test_records_travel_only_where_nothing_looks_at_single_messages(
        adversary, records):
    spec = RunSpec(algorithm="trivial", n=10, f=2, d=3, delta=2, seed=1,
                   adversary=adversary)
    assert (FanOut in outbox_types(build(spec).sim)) is records
    assert FanOut not in outbox_types(
        build(spec, observers=(Observer(),)).sim)
    # A wrapper installed after build (as fault injectors do) is asked
    # again at the next step.
    sim = build(spec).sim
    sim.adversary = _AdversaryProxy(sim.adversary)
    assert FanOut not in outbox_types(sim)
