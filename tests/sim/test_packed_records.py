"""A fan-out record keeps its destinations and delays packed.

``Context.send_many`` packs a record's destinations in the narrowest
unsigned ``array`` typecode that holds n − 1, and every delay plan
stamps its delays in the narrowest one that holds its bound. These
tests pin the typecodes, the no-copy path for senders that keep their
destinations packed, that packing changes no error a send or a plan
raises, and the memory a quadratic-message trial peaks at.
"""

import gc
import random
import tracemalloc
from array import array

import pytest

from repro.adversary.delay_plans import FixedDelay, HashDelay
from repro.adversary.oblivious import ObliviousAdversary
from repro.core.base import make_processes
from repro.core.majority import DeterministicMajorityGossip
from repro.core.tears import Tears
from repro.core.trivial import TrivialGossip
from repro.sim.engine import Simulation
from repro.sim.errors import AlgorithmError, InvalidDelayError
from repro.sim.message import FanOut, expand, typecode
from repro.sim.network import Network
from repro.sim.process import Context
from repro.spec import RunSpec, build

from ..plans import PerMessageDelays


class ByDestination(PerMessageDelays):
    """A plan on the per-message ``stamp``: its delays vary by destination."""

    def __init__(self, d):
        self.target_d = d

    def assign(self, msg):
        return 1 + msg.dst * 7 % self.target_d


def context(n, pid=0):
    return Context(pid, n, 0, random.Random(0))


def record_to_all(n, plan, t=3):
    """One stamped record from pid 0 to every other pid."""
    ctx = context(n)
    ctx.send_many(range(1, n), "x")
    (record,) = ctx.outbox
    plan.stamp(ctx.outbox, t)
    return record


class TestTypecodes:
    @pytest.mark.parametrize("limit, size", [
        (0, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4),
        (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8),
    ])
    def test_the_narrowest_unsigned_code_holds_the_limit(self, limit, size):
        packed = array(typecode(limit), [limit])
        assert packed.itemsize == size and packed[0] == limit

    @pytest.mark.parametrize("n, size", [(6, 1), (256, 1), (257, 2),
                                         (512, 2)])
    def test_destinations_take_the_code_of_n_minus_one(self, n, size):
        record = record_to_all(n, FixedDelay(1))
        assert record.dsts.itemsize == size
        assert list(record.dsts) == list(range(1, n))

    @pytest.mark.parametrize("plan", [
        HashDelay(2, seed=1), FixedDelay(2), ByDestination(2),
    ], ids=lambda plan: type(plan).__name__)
    def test_delays_take_one_byte_at_d_2(self, plan):
        record = record_to_all(512, plan)
        assert record.delays.itemsize == 1
        assert set(record.delays) <= {1, 2}

    @pytest.mark.parametrize("plan", [
        HashDelay(300, seed=1), FixedDelay(300), ByDestination(300),
    ], ids=lambda plan: type(plan).__name__)
    def test_delays_take_two_bytes_at_d_300(self, plan):
        record = record_to_all(64, plan, t=11)
        assert record.delays.itemsize == 2
        assert list(record.delays) == [plan.assign(msg)
                                       for msg in expand([record])]
        assert 1 <= min(record.delays) <= max(record.delays) <= 300
        if isinstance(plan, HashDelay):
            assert max(record.delays) > 255


class TestPackedSenders:
    def test_a_packed_tears_pi_is_queued_without_a_copy(self):
        n = 64
        tears = Tears(5, n, 0)
        ctx = context(n, pid=5)
        tears.on_step(ctx, [])
        (record,) = ctx.outbox
        assert type(record) is FanOut
        assert record.dsts is tears.pi1
        assert tears.pi1.typecode == typecode(n - 1)

    def test_a_packed_majority_pi_is_queued_without_a_copy(self):
        n = 40
        majority = DeterministicMajorityGossip(3, n, 0)
        ctx = context(n, pid=3)
        majority.on_step(ctx, [])
        (record,) = ctx.outbox
        assert record.dsts is majority.pi1

    def test_an_array_of_another_code_is_repacked(self):
        ctx = context(6)
        sent = array("q", [1, 2, 3])
        ctx.send_many(sent, "x")
        (record,) = ctx.outbox
        assert record.dsts is not sent
        assert record.dsts.typecode == typecode(5)
        assert tuple(record.dsts) == (1, 2, 3)


class OneBadLink(PerMessageDelays):
    """Delay ``bad`` to pid 3, ``target_d`` to everyone else."""

    def __init__(self, bad, target_d):
        self.bad = bad
        self.target_d = target_d

    def assign(self, msg):
        return self.bad if msg.dst == 3 else self.target_d


class TestErrorsDoNotChange:
    @pytest.mark.parametrize("n, dsts, bad", [
        (6, [3, 1, -1, 2], -1),
        (6, [-5, 1, 2], -5),
        (6, [1, 2, 3, 300], 300),
        (6, [1, 2, 70_000, -1], 70_000),
        (300, [1, 299, -2, 3], -2),
        (300, [1, 2, 300, 3], 300),
        (300, [1, 2, 2**70, 3], 2**70),
    ])
    def test_a_bad_destination_is_an_algorithm_error(self, n, dsts, bad):
        ctx = context(n)
        with pytest.raises(AlgorithmError) as error:
            ctx.send_many(dsts, "x")
        assert str(error.value) == f"send() to invalid pid {bad} (n={n})"
        assert ctx.outbox == []

    @pytest.mark.parametrize("target_d", [2, 300])
    @pytest.mark.parametrize("bad_delay", [0, -1])
    def test_a_plan_below_one_for_one_destination_queues_nothing(
            self, bad_delay, target_d):
        record = record_to_all(6, OneBadLink(bad_delay, target_d))
        net = Network(6)
        with pytest.raises(InvalidDelayError):
            net.enqueue([record], alive=range(6))
        assert (net.in_flight, net.total_enqueued) == (0, 0)
        assert [net.pending_for(pid) for pid in range(6)] == [0] * 6

    @pytest.mark.parametrize("target_d", [2, 300])
    @pytest.mark.parametrize("bad_delay", [0, -1])
    def test_a_run_with_a_plan_below_one_raises_the_delay_error(
            self, bad_delay, target_d):
        plan = OneBadLink(bad_delay, target_d)
        sim = Simulation(
            n=6, f=0, algorithms=make_processes(6, 0, TrivialGossip),
            adversary=ObliviousAdversary(delays=plan), seed=1,
        )
        with pytest.raises(InvalidDelayError):
            sim.run(max_steps=50)

    @pytest.mark.parametrize("target_d, delay", [(2, 400), (300, 70_000)])
    def test_a_plan_past_its_own_bound_is_still_accepted(self, target_d,
                                                         delay):
        record = record_to_all(6, OneBadLink(delay, target_d))
        assert list(record.delays) == [target_d, target_d, delay,
                                       target_d, target_d]
        net = Network(6)
        assert net.enqueue([record], alive=range(6)) == 0
        assert net.in_flight == 5
        assert net.collect(3, 3 + delay) == [record]


def test_a_tears_trial_at_n_256_peaks_below_its_memory_ceiling():
    """TEARS at n = 256 includes every peer in Π1 and Π2: one record per
    batch, 255 destinations of 1 byte and 255 delays of 1 byte. Packed,
    the trial peaks near 2.3 MiB; with a tuple and a list per record it
    peaked near 4.1 MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build(RunSpec(algorithm="tears", n=256, d=2, delta=2,
                               seed=0)).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.completed
    assert peak < 3.2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
