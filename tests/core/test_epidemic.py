"""Tests for the EARS/SEARS shared machinery: V, I, L and shut-down logic."""

import random

import pytest

from repro.adversary.crash_plans import crash_at
from repro.adversary.oblivious import ObliviousAdversary
from repro.core.base import make_processes
from repro.core.epidemic import (
    KIND_GOSSIP,
    KIND_SHUTDOWN,
    EpidemicGossip,
    _repunit,
)
from repro.core.push_pull import PushPullGossip
from repro.core.rumors import mask_of
from repro.sim.engine import Simulation
from repro.sim.monitor import GossipCompletionMonitor
from repro.sim.message import Message, expand
from repro.sim.process import Context
from repro.sim.rng import derive_rng
from repro.spec.registry import GOSSIP_ALGORITHMS


def make_proc(pid=0, n=4, f=1, fanout=1, shutdown_sends=2):
    algo = EpidemicGossip(pid, n, f, fanout=fanout,
                          shutdown_sends=shutdown_sends)
    ctx = Context(pid, n, f, derive_rng(0, "t", pid))
    return algo, ctx


def deliver(algo, ctx, payload, src=1):
    msg = Message(src=src, dst=algo.pid, payload=payload)
    ctx.outbox = []
    algo.on_step(ctx, [msg])
    return expand(ctx.outbox)


def knows_sent(algo, rumor, dst):
    """True iff (rumor, dst) ∈ I(p): bit dst·n + rumor of the packed I."""
    return bool(algo._I >> (dst * algo.n + rumor) & 1)


def l_mask(uncertified, n):
    """L(p) as a pid mask: the blocks of ``_uncertified()`` not empty."""
    block = (1 << n) - 1
    return sum(1 << q for q in range(n) if uncertified >> (q * n) & block)


def step(algo, ctx):
    ctx.outbox = []
    algo.on_step(ctx, [])
    return expand(ctx.outbox)


class TestRepunit:
    def test_stamps_each_block(self):
        n = 4
        v = mask_of([1, 3])
        stamped = v * _repunit(n)
        for q in range(n):
            assert (stamped >> (q * n)) & mask_of(range(n)) == v

    def test_n_one(self):
        assert _repunit(1) == 1


class TestInformedList:
    def test_initially_knows_own_rumor_reached_self(self):
        algo, _ = make_proc(pid=2)
        assert knows_sent(algo, rumor=2, dst=2)
        assert not knows_sent(algo, rumor=2, dst=0)

    def test_send_records_pairs_after_snapshot(self):
        algo, ctx = make_proc(pid=0)
        out = step(algo, ctx)
        assert len(out) == 1
        dst = out[0].dst
        # The pair (own rumor, dst) is in I(p) once the send is settled...
        algo._settle()
        assert knows_sent(algo, 0, dst)
        # ...but was NOT in the message payload that just left (Figure 2
        # sends first, records after).
        _, _, informed_sent = out[0].payload
        assert not informed_sent >> (dst * algo.n + 0) & 1 or dst == 0

    def test_a_sender_keeps_the_informed_list_it_sent(self):
        algo, ctx = make_proc(pid=0, n=8, fanout=3)
        out = step(algo, ctx)
        assert out and all(algo._I is m.payload[2] for m in out)
        assert algo._owed == (algo.rumors.mask, [m.dst for m in out])
        assert not algo.l_is_empty() and algo._owed is None
        assert all(knows_sent(algo, 0, m.dst) for m in out)

    def test_receiver_infers_rumor_reached_itself(self):
        algo, ctx = make_proc(pid=0)
        deliver(algo, ctx, (mask_of([1]), None, 0), src=1)
        assert 1 in algo.rumors
        assert knows_sent(algo, rumor=1, dst=0)

    def test_merge_unions_informed_lists(self):
        algo, ctx = make_proc(pid=0, n=4)
        remote_informed = mask_of([2]) << (3 * 4)  # (rumor 2 sent to 3)
        out = deliver(algo, ctx, (mask_of([1, 2]), None, remote_informed),
                      src=1)
        assert knows_sent(algo, 2, 3)
        # (rumor 1, dst 3) was not in the merged informed-list; it can only
        # appear if this step's own epidemic send happened to target 3.
        if 3 not in {m.dst for m in out}:
            assert not knows_sent(algo, 1, 3)
        assert not knows_sent(algo, 3, 3)  # rumor 3 is unknown entirely

    def test_uncertified_mask_lists_l(self):
        algo, ctx = make_proc(pid=0, n=3)
        # Knows only own rumor, sent only to itself: L = {1, 2}.
        assert l_mask(algo._uncertified(), 3) == mask_of([1, 2])
        assert not algo.l_is_empty()


class TestShutdownLogic:
    def _fully_informed(self, algo, ctx):
        """Deliver an informed-list showing everything sent everywhere."""
        n = algo.n
        all_rumors = mask_of(range(n))
        informed = all_rumors * _repunit(n)
        deliver(algo, ctx, (all_rumors, None, informed), src=1)

    def test_sleep_counter_advances_when_l_empty(self):
        algo, ctx = make_proc(shutdown_sends=3)
        self._fully_informed(algo, ctx)
        assert algo.l_is_empty()
        assert algo.sleep_cnt == 1
        assert not algo.asleep

    def test_sends_shutdown_messages_then_sleeps(self):
        algo, ctx = make_proc(shutdown_sends=2)
        self._fully_informed(algo, ctx)
        kinds = []
        for _ in range(4):
            out = step(algo, ctx)
            kinds.extend(m.kind for m in out)
        # One shutdown send happened inside _fully_informed's step (count 1),
        # then one more (count 2), then silence.
        assert kinds.count("shutdown") == 1
        assert algo.asleep
        assert algo.is_quiescent()
        assert step(algo, ctx) == []

    def test_new_rumor_awakens_sleeper(self):
        algo, ctx = make_proc(n=4, shutdown_sends=1)
        self._fully_informed(algo, ctx)
        for _ in range(3):
            step(algo, ctx)
        assert algo.asleep
        # Now a message arrives carrying a rumor with an uncertified pair:
        # rumor 3 is new to this sleeper and nothing says it was sent
        # anywhere but here. L(p) becomes non-empty, sleep_cnt resets, and
        # the process resumes epidemic sends.
        n = algo.n
        # Rebuild a sleeper whose knowledge misses rumor n-1 entirely.
        algo2, ctx2 = make_proc(n=n, shutdown_sends=1)
        known = mask_of(range(n - 1))
        deliver(algo2, ctx2, (known, None, known * _repunit(n)), src=1)
        while not algo2.asleep:
            step(algo2, ctx2)
        # Deliver the late rumor n-1 with an empty informed-list.
        out = deliver(algo2, ctx2, (mask_of([n - 1]), None, 0), src=2)
        assert algo2.sleep_cnt == 0
        assert not algo2.asleep
        assert out and out[0].kind == "gossip"

    def test_wakeup_resets_shutdown_progress(self):
        algo, ctx = make_proc(n=3, shutdown_sends=5)
        self._fully_informed(algo, ctx)
        assert algo.sleep_cnt == 1
        step(algo, ctx)
        assert algo.sleep_cnt == 2
        # Now L becomes non-empty again via a new uncertified pair — deliver
        # an informed-list that doesn't change anything (no-op) but a rumor
        # mask can't grow. Verify the counter logic via direct manipulation
        # of the on_step path: a message with zero new info keeps L empty.
        deliver(algo, ctx, (algo.rumors.mask, None, 0), src=2)
        assert algo.sleep_cnt == 3  # still empty, still counting


class TestFanout:
    def test_fanout_many_targets(self):
        algo, ctx = make_proc(n=32, f=8, fanout=8)
        out = step(algo, ctx)
        assert 1 <= len(out) <= 8
        assert len({m.dst for m in out}) == len(out)  # deduplicated

    def test_fanout_one(self):
        algo, ctx = make_proc(fanout=1)
        assert len(step(algo, ctx)) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EpidemicGossip(0, 4, 1, fanout=0)
        with pytest.raises(ValueError):
            EpidemicGossip(0, 4, 1, shutdown_sends=0)


class TestPayloadCarriage:
    def test_payloads_ride_with_rumors(self):
        algo, ctx = make_proc(pid=0, n=3)
        deliver(algo, ctx, (mask_of([1]), {1: "vote"}, 0), src=1)
        assert algo.rumors.value_of(1) == "vote"
        out = step(algo, ctx)
        _, payloads, _ = out[0].payload
        assert payloads.get(1) == "vote"


# -- the L(p) predicate against its formula --------------------------------- #

def reference_l_is_empty(v, informed, n):
    """The formula the witness path must reproduce, kept verbatim."""
    return not (v * _repunit(n) & ~informed)


def reference_uncertified_mask(v, informed, n):
    """L(p) as the per-destination loop over I(p)'s blocks."""
    mask = 0
    for q in range(n):
        if v & ~(informed >> (q * n)):
            mask |= 1 << q
    return mask


def check_predicate(algo):
    """Every query, asked three times, answers the formula on (V, I) as
    they stand — whatever the witness remembers from earlier states."""
    n, v, informed = algo.n, algo.rumors.mask, algo._I
    expected = reference_l_is_empty(v, informed, n)
    for _ in range(3):
        assert algo.l_is_empty() is expected
        assert 0 <= algo._witness < n
        uncertified = algo._uncertified()
        assert (uncertified == 0) is expected
        if v < 1 << n:
            assert l_mask(uncertified, n) == reference_uncertified_mask(
                v, informed, n)


@pytest.mark.parametrize("cls", [EpidemicGossip, PushPullGossip])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 129])
def test_l_predicate_is_the_formula_on_any_state(cls, n):
    rng = random.Random(n)
    block = (1 << n) - 1
    for trial in range(12):
        algo = cls(rng.randrange(n), n, 0)
        check_predicate(algo)
        for _ in range(10):
            v = rng.getrandbits(n) | 1 << rng.randrange(n)
            algo.rumors.mask = v
            # Certified everywhere, or random pairs only.
            algo._I = rng.getrandbits(n * n) | (
                v * _repunit(n) if rng.random() < 0.6 else 0)
            check_predicate(algo)
            # Tampering, as faults/injectors.py does it and beyond: a block
            # of I(p) cleared, V shrunk after a (possibly true) verdict, a
            # rumor outside the population, then the loss of that one too.
            algo._I &= ~(block << (rng.randrange(n) * n))
            check_predicate(algo)
            algo._I |= v << (rng.randrange(n) * n)
            check_predicate(algo)
            algo.rumors.mask &= ~(algo.rumors.mask & -algo.rumors.mask)
            check_predicate(algo)
            algo.rumors.mask |= 1 << (n + rng.randrange(3))
            check_predicate(algo)
            # ... whose overlapping copies carry into one another: once a
            # sender has stamped it, one block no longer decides.
            algo._I |= algo.rumors.mask * _repunit(n)
            check_predicate(algo)
            algo.rumors.mask &= block
            check_predicate(algo)
            algo.rumors.mask = 0
            check_predicate(algo)


# -- on_step against the one-message-at-a-time body it replaced -------------- #

class PerMessageEpidemic(EpidemicGossip):
    """The previous on_step, kept verbatim as the reference: one I(p)
    update per message and per target, one draw per random_peer call, the
    full formula every step."""

    def l_is_empty(self):
        return not (self.rumors.mask * _repunit(self.n) & ~self._I)

    def _choose_targets(self, ctx):
        if ctx.isolated:
            return []
        if self.fanout == 1:
            return [ctx.random_peer()]
        draws = [ctx.random_peer() for _ in range(self.fanout)]
        return list(dict.fromkeys(draws))

    def on_step(self, ctx, inbox):
        n = self.n
        for msg in inbox:
            mask, payloads, informed = msg.payload
            self.rumors.merge(mask, payloads)
            self._I |= informed
            self._I |= mask << (self.pid * n)

        if self.l_is_empty():
            self.sleep_cnt += 1
        else:
            self.sleep_cnt = 0

        if self.sleep_cnt <= self.shutdown_sends:
            targets = self._choose_targets(ctx)
            payloads = dict(self.rumors.payloads) if self.rumors.payloads else None
            payload = (self.rumors.mask, payloads, self._I)
            kind = KIND_SHUTDOWN if self.sleep_cnt >= 1 else KIND_GOSSIP
            ctx.send_many(targets, payload, kind=kind)
            stamp = self.rumors.mask
            for dst in targets:
                self._I |= stamp << (dst * n)


def random_inbox(rng, n, pid, known, with_payloads, foreign=False):
    """0-4 messages carrying a few rumors and scattered pairs; now and then
    one that certifies all of ``known`` (the receiver's V before the step),
    so that L(p) empties and the process sleeps until a new rumor wakes it.
    With ``foreign``, now and then a rumor outside the population too, as
    ``ForeignRumorFault`` sets one (V ≥ 2ⁿ from then on), and sparser
    pairs, so that a shut-down send may owe pairs I(p) lacks."""
    inbox = []
    for _ in range(rng.randrange(5)):
        if rng.random() < 0.15:
            mask, informed = known, known * _repunit(n)
        else:
            mask = (rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                    | 1 << rng.randrange(n))
            informed = rng.getrandbits(n * n) & rng.getrandbits(n * n)
            if foreign:
                informed &= rng.getrandbits(n * n) & rng.getrandbits(n * n)
                if rng.random() < 0.3:
                    mask |= 1 << n
        payloads = None
        if with_payloads and rng.random() < 0.7:
            payloads = {r: f"v{r}" for r in range(n) if mask >> r & 1}
        inbox.append(Message(src=rng.randrange(n), dst=pid,
                             payload=(mask, payloads, informed)))
    return inbox


def settled_informed(algo):
    """I(p) with the pairs of the last send added, ``algo`` left as it is
    so that its next ``on_step`` settles them itself."""
    view = algo.clone()
    view._settle()
    return view._I


@pytest.mark.parametrize("with_payloads", [False, True])
@pytest.mark.parametrize("n,fanout,neighbors,foreign", [
    (5, 1, None, False), (12, 4, None, False), (64, 9, None, False),
    (12, 4, (1, 5, 6, 11), False), (64, 9, None, True),
])
def test_on_step_matches_the_per_message_body(n, fanout, neighbors, foreign,
                                              with_payloads):
    rng = random.Random(n * 31 + fanout + foreign)
    pid = 3
    procs = []
    for cls in (PerMessageEpidemic, EpidemicGossip):
        algo = cls(pid, n, 1, rumor_payload="v0" if with_payloads else None,
                   fanout=fanout, shutdown_sends=2)
        procs.append((algo, Context(pid, n, 1, derive_rng(7, "t", pid),
                                    neighbors=neighbors)))
    slept = woke = foreign_shutdowns = 0
    for _ in range(50):
        inbox = random_inbox(rng, n, pid, procs[0][0].rumors.mask,
                             with_payloads, foreign)
        states = []
        for algo, ctx in procs:
            ctx.outbox = []
            algo.on_step(ctx, inbox)
            states.append((
                settled_informed(algo), algo.rumors.mask, algo.rumors.payloads,
                list(algo.rumors.payloads), algo.sleep_cnt,
                [(m.dst, m.kind, m.payload) for m in expand(ctx.outbox)],
                ctx.rng.getstate(),
            ))
        assert states[0] == states[1]
        slept += states[0][4] > 0
        woke += states[0][4] == 0
        foreign_shutdowns += bool(states[0][4] and states[0][1] >> n
                                  and states[0][5])
    assert slept and woke  # both branches of the sleep counter were driven
    # Shut-down sends with V ≥ 2ⁿ were driven: they owe pairs (the guard).
    assert bool(foreign_shutdowns) is foreign


class TestWitnessUnderFork:
    def test_clone_carries_an_independent_witness(self):
        algo, ctx = make_proc(n=8)
        step(algo, ctx)
        twin = algo.clone()
        assert twin._witness == algo._witness
        before = algo._witness
        twin._settle()
        twin._I = twin.rumors.mask * _repunit(twin.n)
        twin._I &= ~(1 << (2 * twin.n))          # only q=2 left in L(twin)
        assert not twin.l_is_empty() and twin._witness == 2
        assert algo._witness == before and not algo.l_is_empty()

    @pytest.mark.parametrize("algorithm", ["ears", "sears", "push-pull"])
    def test_fork_midflight_is_bit_identical(self, algorithm):
        def state(sim):
            return [(a._I, a._witness, a.rumors.mask, a.sleep_cnt,
                     sim.processes[p].ctx.rng.getstate())
                    for p, a in ((p, sim.algorithm(p)) for p in range(sim.n))]

        n, f, seed = 24, 6, 5
        sim = Simulation(
            n=n, f=f,
            algorithms=make_processes(n, f, GOSSIP_ALGORITHMS[algorithm]),
            adversary=ObliviousAdversary.uniform(
                2, 2, seed=seed, crashes=crash_at({3: [n - 1], 7: [2]})),
            monitor=GossipCompletionMonitor(), seed=seed,
        )
        sim.run_for(6)
        fork = sim.fork()
        frozen = state(sim)
        fork.run_for(4)
        assert state(sim) == frozen       # the fork's steps moved nothing here
        first = fork.run(max_steps=20_000)
        second = sim.run(max_steps=20_000)
        assert first.completed and second.completed
        assert (first.completion_time, first.messages, first.metrics) == (
            second.completion_time, second.messages, second.metrics)
        assert state(fork) == state(sim)
