"""The folded inbox loops against the one-merge-per-message bodies they
replaced (the pattern of ``test_epidemic.py``'s on_step differential).

Each reference class below carries the previous ``on_step`` verbatim (for
the CK baseline, whose step is a round, the previous round body); both
versions are driven through the same 50 randomized steps and must agree,
after every step, on V(p), the payload dict (keys and insertion order),
every counter, the outbox and the RNG state.
"""

import random

import pytest

from repro.core.adaptive_fanout import KIND_ADAPTIVE, AdaptiveFanoutGossip
from repro.core.majority import (
    KIND_FIRST,
    KIND_SECOND,
    DeterministicMajorityGossip,
)
from repro.core.rumors import RumorSet
from repro.core.sparse import SparseGossip
from repro.core.tears import KIND_FIRST_LEVEL, KIND_SECOND_LEVEL, Tears
from repro.core.trivial import TrivialGossip
from repro.core.uniform import UniformEpidemicGossip
from repro.sim.message import Message, expand
from repro.sim.process import Context
from repro.sim.rng import derive_rng
from repro.sync.ck_gossip import CkStyleGossip


# -- the previous bodies, verbatim ------------------------------------------ #

class PerMessageTrivial(TrivialGossip):
    def on_step(self, ctx, inbox):
        for msg in inbox:
            mask, payloads = msg.payload
            self.rumors.merge(mask, payloads)
        if not self._broadcast_done:
            snapshot = self.rumors.snapshot()
            ctx.send_many(
                [dst for dst in ctx.peers() if dst != self.pid],
                snapshot, kind=self.KIND,
            )
            self._broadcast_done = True


class PerMessageUniform(UniformEpidemicGossip):
    def on_step(self, ctx, inbox):
        for msg in inbox:
            mask, payloads = msg.payload
            self.rumors.merge(mask, payloads)
        if (self.stop_after_steps is None
                or self._steps < self.stop_after_steps) and not ctx.isolated:
            ctx.send(ctx.random_peer(), self.rumors.snapshot(), kind=self.KIND)
        self._steps += 1


class PerMessageSparse(SparseGossip):
    def on_step(self, ctx, inbox):
        learned = False
        for msg in inbox:
            mask, payloads = msg.payload
            if self.rumors.merge(mask, payloads):
                learned = True
        if learned and self.rearm:
            self._remaining = self.budget
        if self._remaining > 0 and not ctx.isolated:
            ctx.send(ctx.random_peer(), self.rumors.snapshot(), kind=self.KIND)
            self._remaining -= 1


class PerMessageAdaptiveFanout(AdaptiveFanoutGossip):
    def on_step(self, ctx, inbox):
        novelty = False
        for msg in inbox:
            mask, payloads = msg.payload
            if self.rumors.merge(mask, payloads):
                novelty = True

        if novelty:
            self.fanout = self.base_fanout
            self.quiet_steps = 0
        else:
            self.fanout = max(self.min_fanout, self.fanout - 1)
            self.quiet_steps += 1

        if self.quiet_steps < self.quiet_threshold and not ctx.isolated:
            targets = set(ctx.random_peers(self.fanout))
            snapshot = self.rumors.snapshot()
            for dst in targets:
                ctx.send(dst, snapshot, kind=KIND_ADAPTIVE)


class PerMessageTears(Tears):
    def on_step(self, ctx, inbox):
        if self.pi1 is None:
            self._build_membership(ctx)

        old_count = self.up_msg_cnt
        for msg in inbox:
            mask, payloads, flag_up = msg.payload
            self.rumors.merge(mask, payloads)
            if flag_up:
                self.up_msg_cnt += 1
                self.first_level_rumor_mask |= mask

        if not self.first_level_sent:
            payload = self._payload(flag_up=True)
            ctx.send_many(self.pi1, payload, kind=KIND_FIRST_LEVEL)
            self.first_level_sent = True

        if self._crossed_trigger(old_count, self.up_msg_cnt):
            payload = self._payload(flag_up=False)
            ctx.send_many(self.pi2, payload, kind=KIND_SECOND_LEVEL)
            self.second_level_batches += 1
            self.safe_rumor_mask = self.first_level_rumor_mask


class PerMessageMajority(DeterministicMajorityGossip):
    def on_step(self, ctx, inbox):
        for msg in inbox:
            mask, payloads, first_level = msg.payload
            self.rumors.merge(mask, payloads)
            if first_level:
                self.first_level_received += 1

        if not self.first_sent:
            payload = self._payload(first_level=True)
            ctx.send_many(self.pi1, payload, kind=KIND_FIRST)
            self.first_sent = True

        if self.first_level_received >= self._next_trigger:
            self._next_trigger += self.trigger_spacing
            payload = self._payload(first_level=False)
            ctx.send_many(self.pi2, payload, kind=KIND_SECOND)


class PerMessageCk(CkStyleGossip):
    def on_step(self, ctx, inbox):
        changed = False
        for msg in inbox:
            mask, payloads = msg.payload
            if self.rumors.merge(mask, payloads):
                changed = True
        if changed or not self._started:
            self._quiet_rounds = 0
            self._started = True
        else:
            self._quiet_rounds += 1
        if self._quiet_rounds <= self._patience:
            snapshot = self.rumors.snapshot()
            ctx.send_many(self._neighbors, snapshot, kind=self.KIND)


# -- the differential -------------------------------------------------------- #

def random_inbox(rng, n, pid, known, with_payloads, flagged, message):
    """0-4 messages of a few rumors each; about one in three carries
    nothing new (a subset of ``known``, the receiver's V before the step),
    so the "nothing learnt" branches run too. ``flagged`` appends the
    third payload field TEARS and the deterministic scheme read."""
    inbox = []
    for _ in range(rng.randrange(5)):
        mask = (rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                | 1 << rng.randrange(n))
        if rng.random() < 0.35:
            mask &= known
        payloads = None
        if with_payloads and rng.random() < 0.7:
            # Values differ by message, so update order is visible.
            payloads = {r: f"v{r}.{len(inbox)}" for r in reversed(range(n))
                        if mask >> r & 1}
        payload = (mask, payloads)
        if flagged:
            payload += (rng.random() < 0.5,)
        inbox.append(message(rng.randrange(n), pid, payload))
    return inbox


def state_of(algo, ctx):
    counters = {name: value for name, value in vars(algo).items()
                if name != "rumors"}
    return (
        algo.rumors.mask, algo.rumors.payloads, list(algo.rumors.payloads),
        counters,
        [(m.dst, m.kind, m.payload) for m in expand(ctx.outbox)],
        ctx.rng.getstate(),
    )


CASES = [
    # (reference, folded, constructor kwargs, third payload field?)
    (PerMessageTrivial, TrivialGossip, {}, False),
    (PerMessageUniform, UniformEpidemicGossip, {"stop_after_steps": 30},
     False),
    (PerMessageSparse, SparseGossip, {"budget": 2}, False),
    (PerMessageSparse, SparseGossip, {"budget": 3, "rearm": False}, False),
    (PerMessageAdaptiveFanout, AdaptiveFanoutGossip,
     {"base_fanout": 3, "quiet_threshold": 2}, False),
    (PerMessageTears, Tears, {}, True),
    (PerMessageMajority, DeterministicMajorityGossip, {}, True),
]


@pytest.mark.parametrize("with_payloads", [False, True])
@pytest.mark.parametrize("n", [5, 12, 64])
@pytest.mark.parametrize(
    "reference,folded,kwargs,flagged", CASES,
    ids=[f"{case[1].__name__}-{i}" for i, case in enumerate(CASES)])
def test_on_step_matches_the_per_message_body(reference, folded, kwargs,
                                              flagged, n, with_payloads):
    rng = random.Random(n * 31 + len(kwargs))
    pid = 3
    procs = [
        (cls(pid, n, 1, rumor_payload="v3" if with_payloads else None,
             **kwargs),
         Context(pid, n, 1, derive_rng(7, "t", pid)))
        for cls in (reference, folded)
    ]
    grew = idle = 0
    for _ in range(50):
        before = procs[0][0].rumors.mask
        inbox = random_inbox(
            rng, n, pid, before, with_payloads, flagged,
            lambda src, dst, payload: Message(src=src, dst=dst,
                                              payload=payload))
        states = []
        for algo, ctx in procs:
            ctx.outbox = []
            algo.on_step(ctx, inbox)
            states.append(state_of(algo, ctx))
        assert states[0] == states[1]
        grew += states[0][0] != before
        idle += states[0][0] == before
    assert grew and idle  # both "learnt" and "nothing new" steps were driven


@pytest.mark.parametrize("with_payloads", [False, True])
@pytest.mark.parametrize("n", [5, 12, 64])
def test_on_round_matches_the_per_message_body(n, with_payloads):
    rng = random.Random(n)
    pid = 3
    procs = [
        (cls(pid, n, 1, rumor_payload="v3" if with_payloads else None),
         Context(pid, n, 1, derive_rng(7, "t", pid)))
        for cls in (PerMessageCk, CkStyleGossip)
    ]
    quiet = 0
    for _ in range(50):
        inbox = random_inbox(rng, n, pid, procs[0][0].rumors.mask,
                             with_payloads, False, Message)
        states = []
        for algo, ctx in procs:
            ctx.outbox = []
            algo.on_step(ctx, inbox)
            states.append(state_of(algo, ctx))
        assert states[0] == states[1]
        quiet += states[0][3]["_quiet_rounds"] > 0
    assert quiet  # the patience counter ran


# -- RumorSet.merge_inbox itself --------------------------------------------- #

def test_merge_inbox_returns_whether_the_mask_grew():
    rumors = RumorSet.initial(0, "a")
    assert rumors.merge_inbox([]) is False
    old = Message(src=1, dst=0, payload=(0b1, {0: "late"}))
    assert rumors.merge_inbox([old]) is False  # payload-only novelty: no
    assert rumors.payloads == {0: "late"}
    new = Message(src=1, dst=0, payload=(0b110, None))
    assert rumors.merge_inbox([old, new]) is True
    assert rumors.mask == 0b111
