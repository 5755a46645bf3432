"""Tests for the digest/delta push-pull gossip extension."""

import random

import pytest

from repro.api import run_gossip
from repro.core.epidemic import _repunit
from repro.core.properties import (
    gathering_holds,
    quiescence_holds,
    validity_holds,
)
from repro.core.push_pull import (
    KIND_ACK,
    KIND_DELTA,
    KIND_DIGEST,
    PushPullGossip,
)
from repro.sim.message import Message
from repro.sim.process import Context
from repro.sim.rng import derive_rng


class TestPushPullCompletes:
    @pytest.mark.parametrize("seed", range(4))
    def test_failure_free(self, seed):
        run = run_gossip("push-pull", n=32, f=8, seed=seed)
        assert run.completed, run.reason
        assert gathering_holds(run.sim)
        assert quiescence_holds(run.sim)
        assert validity_holds(run.sim)

    @pytest.mark.parametrize("seed", range(3))
    def test_with_crashes(self, seed):
        run = run_gossip("push-pull", n=48, f=16, seed=seed, crashes=16)
        assert run.completed, run.reason
        assert gathering_holds(run.sim)

    @pytest.mark.parametrize("d,delta", [(3, 1), (1, 3), (3, 3)])
    def test_under_asynchrony(self, d, delta):
        run = run_gossip("push-pull", n=32, f=8, d=d, delta=delta, seed=1,
                         crashes=8)
        assert run.completed
        assert run.realized_d <= d
        assert run.realized_delta <= delta

    def test_payloads_delivered_via_deltas(self):
        run = run_gossip("push-pull", n=16, f=0, seed=2,
                         payloads=[f"r{i}" for i in range(16)])
        assert run.completed
        for pid in range(16):
            assert run.sim.algorithm(pid).rumors.value_of(5) == "r5"


class TestBitProfile:
    def test_bits_per_message_far_below_ears(self):
        """The design goal: digests are n bits, deltas carry only missing
        rumors — no informed-list ever ships."""
        pull = run_gossip("push-pull", n=64, f=16, seed=1, crashes=16,
                          measure_bits=True)
        ears = run_gossip("ears", n=64, f=16, seed=1, crashes=16,
                          measure_bits=True)
        assert pull.completed and ears.completed
        assert pull.bits / pull.messages < (ears.bits / ears.messages) / 10
        # Total bits win too, despite many more messages.
        assert pull.bits < ears.bits

    def test_redundant_traffic_carries_no_payload(self):
        run = run_gossip("push-pull", n=24, f=0, seed=3, measure_bits=True)
        kinds = run.messages_by_kind
        assert kinds.get("pp-digest", 0) > 0
        assert kinds.get("pp-delta", 0) > 0
        # Once everything has spread, digests dominate (the cheap kind).
        assert kinds["pp-digest"] > kinds["pp-delta"]


class TestStoppingTrade:
    def test_local_certificate_costs_coupon_collector_time(self):
        """The documented trade: without relaying informed-lists, the
        certificate needs Θ(n log n) local steps — far slower than EARS'
        polylog quiescence, at the same completion guarantee."""
        pull = run_gossip("push-pull", n=48, f=12, seed=2)
        ears = run_gossip("ears", n=48, f=12, seed=2)
        assert pull.completed and ears.completed
        assert pull.completion_time > 3 * ears.completion_time
        # But gathering itself (ignoring the certificate tail) is epidemic-
        # fast in both.
        assert pull.gathering_time <= 4 * ears.gathering_time

    def test_sleeper_wakes_on_unknown_identities(self):
        # Covered end-to-end: every run with crashes exercises the wake
        # path; assert the terminal state is consistent.
        run = run_gossip("push-pull", n=32, f=8, seed=5, crashes=8)
        assert run.completed
        for pid in run.sim.alive_pids:
            algo = run.sim.algorithm(pid)
            assert algo.asleep
            assert algo.l_is_empty()


class PerMessagePushPull(PushPullGossip):
    """The previous on_step and predicate, kept verbatim as the reference:
    one I(p) update per message and per reply."""

    def l_is_empty(self):
        return not (self.rumors.mask * _repunit(self.n) & ~self._I)

    def on_step(self, ctx, inbox):
        n = self.n
        delta_replies = []
        ack_replies = []
        saw_unknown = False
        for msg in inbox:
            if msg.kind == KIND_DIGEST:
                their_mask = msg.payload
                self._I |= their_mask << (msg.src * n)
                if their_mask & ~self.rumors.mask:
                    saw_unknown = True
                missing = self.rumors.mask & ~their_mask
                if missing:
                    delta_replies.append((msg.src, missing))
                else:
                    ack_replies.append(msg.src)
            elif msg.kind == KIND_ACK:
                self._I |= msg.payload << (msg.src * n)
            else:  # KIND_DELTA
                mask, payloads = msg.payload
                self.rumors.merge(mask, payloads)
                self._I |= mask << (self.pid * n)

        for dst, missing in delta_replies:
            payloads = (
                {pid: value
                 for pid, value in self.rumors.payloads.items()
                 if missing >> pid & 1}
                or None
            )
            ctx.send(dst, (missing, payloads), kind=KIND_DELTA)
            self._I |= missing << (dst * n)
        for dst in ack_replies:
            ctx.send(dst, self.rumors.mask, kind=KIND_ACK)

        if saw_unknown or not self.l_is_empty():
            self.sleep_cnt = 0
        else:
            self.sleep_cnt += 1

        if self.sleep_cnt <= self.shutdown_sends and not ctx.isolated:
            dst = ctx.random_peer()
            ctx.send(dst, self.rumors.mask, kind=KIND_DIGEST)
            self._I |= self.rumors.mask << (dst * n)


@pytest.mark.parametrize("n", [4, 12, 64])
def test_on_step_matches_the_per_message_body(n):
    rng = random.Random(n)
    pid = 1
    procs = [
        (cls(pid, n, 0, rumor_payload="v1", shutdown_constant=0.5),
         Context(pid, n, 0, derive_rng(3, "t", pid)))
        for cls in (PerMessagePushPull, PushPullGossip)
    ]
    slept = woke = 0
    for _ in range(50):
        known = procs[0][0].rumors.mask
        inbox = []
        for _ in range(rng.randrange(5)):
            src = rng.randrange(n)
            some = (rng.getrandbits(n) & rng.getrandbits(n)) | 1 << src
            kind = rng.choice([KIND_DIGEST, KIND_ACK, KIND_DELTA])
            if kind == KIND_DELTA:
                payload = (some, {r: f"v{r}" for r in range(n)
                                  if some >> r & 1 and rng.random() < 0.5})
            else:
                payload = some
            inbox.append(Message(src=src, dst=pid, payload=payload,
                                 kind=kind))
        if rng.random() < 0.15:
            # Everybody acknowledges all I hold: L(p) empties, p sleeps
            # until an unknown rumor shows up.
            inbox += [Message(src=q, dst=pid, payload=known, kind=KIND_ACK)
                      for q in range(n)]
        states = []
        for algo, ctx in procs:
            ctx.outbox = []
            algo.on_step(ctx, inbox)
            states.append((
                algo._I, algo.rumors.mask, list(algo.rumors.payloads.items()),
                algo.sleep_cnt,
                [(m.dst, m.kind, m.payload) for m in ctx.outbox],
                ctx.rng.getstate(),
            ))
        assert states[0] == states[1]
        slept += states[0][3] > 0
        woke += states[0][3] == 0
    assert slept and woke  # both branches of the sleep counter were driven
