"""``Adversary.delay_outbox`` ≡ ``assign_delay`` per message, in order.

The engine hands a whole process-step's outbox to the delay layer. The
batched paths (``HashDelay.stamp``, ``GstAdversary.delay_outbox``) must
produce exactly the delays of the per-message contract, which is written
out here as a literal so that neither implementation is its own oracle.
"""

from hashlib import sha256

import pytest

import repro.adversary  # noqa: F401  (defines every Adversary subclass)
from repro.adversary.adaptive import (
    AdaptiveAdversary,
    ScriptedAdversary,
    TargetedDelayAdversary,
)
from repro.adversary.base import Adversary
from repro.adversary.delay_plans import FixedDelay, HashDelay
from repro.adversary.gst import GstAdversary
from repro.adversary.oblivious import ObliviousAdversary
from repro.faults.injectors import _AdversaryProxy, _BurstDelays
from repro.sim.message import FanOut, Message, expand

from ..plans import CrashEagerSendersAdversary, PerMessageDelays

SEEDS = (0, 12345, -7, 2 ** 70)
LENGTHS = (0, 1, 2, 3, 255)
#: One send time per digit count, 1 to 6.
SEND_TIMES = (7, 42, 512, 4096, 65536, 999999)


def literal_delay(seed, src, dst, sent_at, d):
    return 1 + int.from_bytes(
        sha256(f"{seed}/{src}/{dst}/{sent_at}".encode()).digest()[:4], "big"
    ) % d


def outbox_of(length, src=3, salt=0):
    """Destinations spread over 0..2000: one, two, three and four digits."""
    return [Message(src, (salt + 677 * i) % 2001, None)
            for i in range(length)]


def stamps(outbox):
    return [(msg.sent_at, msg.delay) for msg in outbox]


class TestHashDelayStamp:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_literal_per_message_hash(self, d, seed):
        adversary = ObliviousAdversary(delays=HashDelay(d, seed=seed))
        for length in LENGTHS:
            for t in SEND_TIMES:
                outbox = outbox_of(length, src=t % 11, salt=t)
                assert adversary.delay_outbox(outbox, t) is None
                assert stamps(outbox) == [
                    (t, literal_delay(seed, msg.src, msg.dst, t, d))
                    for msg in outbox
                ]
                assert all(type(msg.delay) is int for msg in outbox)

    def test_destinations_have_one_to_four_digits(self):
        assert {len(str(msg.dst)) for msg in outbox_of(255)} == {1, 2, 3, 4}
        assert max(msg.dst for msg in outbox_of(255)) > 1900


class HalfStepsPlan(PerMessageDelays):
    """A foreign plan that answers in floats."""

    target_d = 3

    def assign(self, msg):
        return 1.0 + msg.dst % 3


@pytest.mark.parametrize("plan", [
    FixedDelay(4),
    HalfStepsPlan(),
], ids=lambda plan: type(plan).__name__)
@pytest.mark.parametrize("length", LENGTHS)
def test_the_default_stamp_asks_assign_for_every_message(plan, length):
    outbox, reference = outbox_of(length), outbox_of(length)
    plan.stamp(outbox, 17)
    for msg in reference:
        msg.sent_at = 17
        msg.delay = int(plan.assign(msg))
    assert stamps(outbox) == stamps(reference)
    assert all(type(msg.delay) is int for msg in outbox)


@pytest.mark.parametrize("plan", [
    FixedDelay(4),
    HashDelay(1, seed=3),
    HashDelay(7, seed=5),
    HalfStepsPlan(),
], ids=lambda plan: f"{type(plan).__name__}-{plan.target_d}")
@pytest.mark.parametrize("shape", ["record", "record-message",
                                   "interleaved"])
def test_a_record_gets_the_delays_of_its_messages(plan, shape):
    def outbox():
        record = FanOut(3, (5, 677, 1383, 5, 2000), None)
        message = Message(3, 30, None)
        return {
            "record": [record],
            "record-message": [record, message],
            "interleaved": [message, record, Message(3, 0, None),
                            FanOut(3, (0, 1, 30), None)],
        }[shape]

    records, messages = outbox(), expand(outbox())
    for t in SEND_TIMES[:3]:
        plan.stamp(records, t)
        plan.stamp(messages, t)
        assert stamps(expand(records)) == stamps(messages)
        assert all(type(delay) is int for record in records
                   if type(record) is FanOut for delay in record.delays)


class TestGst:
    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("t", [0, 49, 50, 51, 400])
    def test_both_sides_of_gst_equal_the_literal(self, d, t):
        gst, seed = 50, 9
        adversary = GstAdversary(gst=gst, d=d, delta=2, seed=seed)
        for length in LENGTHS:
            outbox = outbox_of(length, salt=t)
            adversary.delay_outbox(outbox, t)
            hold = gst - t if t < gst else 0
            assert stamps(outbox) == [
                (t, hold + literal_delay(seed, msg.src, msg.dst, t, d))
                for msg in outbox
            ]

    def test_pre_gst_delivery_lands_in_the_post_gst_window(self):
        adversary = GstAdversary(gst=50, d=4, delta=1, seed=2)
        outbox = outbox_of(40)
        adversary.delay_outbox(outbox, 10)
        assert {msg.sent_at + msg.delay - 50 for msg in outbox} == {
            1, 2, 3, 4}


def scripted():
    adversary = ScriptedAdversary()
    adversary.delay = 2
    adversary.suppress_delivery_until = 40
    return adversary


def burst():
    # The burst lands on the fifth message, in the middle of an outbox.
    return _BurstDelays(ObliviousAdversary.uniform(3, 2, seed=1),
                        burst_send=5, boost=2)


#: A fresh instance of every adversary the package defines (and of the
#: fault proxy that overrides ``assign_delay``), each with its delay rule
#: switched on.
FACTORIES = {
    "oblivious-hash": lambda: ObliviousAdversary.uniform(5, 2, seed=4),
    "oblivious-fixed": lambda: ObliviousAdversary(delays=FixedDelay(3)),
    "gst": lambda: GstAdversary(gst=30, d=4, delta=2, seed=6),
    "adaptive": AdaptiveAdversary,
    "scripted": scripted,
    # Victims by dst in the middle of an outbox (t = 3, 29), by src (31).
    "targeted-delay": lambda: TargetedDelayAdversary(
        victims={680, 1383, 31}, d=6),
    "crash-eager": lambda: CrashEagerSendersAdversary(budget=3),
    "burst-proxy": burst,
}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_adversary_class_has_a_factory_above():
    covered = {type(make()) for make in FACTORIES.values()}
    # Defined by other test modules of the same session: not ours to cover.
    packaged = {cls for cls in subclasses(Adversary)
                if cls.__module__.startswith("repro.")}
    assert packaged <= covered
    assert {cls for cls in subclasses(_AdversaryProxy)
            if "assign_delay" in vars(cls)} <= covered


def delay_state(adversary):
    """What ``assign_delay`` may have changed on a stateful adversary."""
    return {key: value for key, value in vars(adversary).items()
            if key in ("_pending", "_victims", "_sends", "burst_delay")}


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("length", LENGTHS)
def test_batch_call_equals_own_assign_delay_per_message(name, length):
    batch, single = FACTORIES[name](), FACTORIES[name]()
    for t in (3, 29, 30, 31):
        outbox = outbox_of(length, src=t, salt=t)
        reference = outbox_of(length, src=t, salt=t)
        batch.delay_outbox(outbox, t)
        for msg in reference:
            msg.sent_at = t
            msg.delay = int(single.assign_delay(msg))
        assert stamps(outbox) == stamps(reference)
        assert delay_state(batch) == delay_state(single)


def test_the_burst_proxy_really_bursts_inside_a_batch():
    proxy = burst()
    outbox = outbox_of(8)
    proxy.delay_outbox(outbox, 0)
    assert proxy.burst_delay == 5
    assert [msg.delay > 3 for msg in outbox] == [
        index == 4 for index in range(8)]
