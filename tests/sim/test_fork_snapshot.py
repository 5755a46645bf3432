"""Fork/snapshot determinism: clones must be bit-equivalent continuations.

The O(state) snapshot protocol replaced ``copy.deepcopy``; these tests pin
its contract: a simulation forked mid-flight and its original, run to
completion, produce identical RunResults — for every gossip algorithm and
for adaptive adversaries (which hold references back into the simulation).
"""

import copy

import pytest

from repro.adversary.adaptive import ScriptedAdversary, TargetedDelayAdversary
from repro.adversary.crash_plans import crash_at
from repro.adversary.oblivious import ObliviousAdversary
from repro.core.base import make_processes
from repro.sim.engine import Simulation
from repro.sim.monitor import GossipCompletionMonitor
from repro.spec.registry import GOSSIP_ALGORITHMS

from ..conftest import import_benchmark
from ..plans import CrashEagerSendersAdversary


def make_sim(algorithm="ears", n=16, f=4, seed=0, adversary=None):
    cls = GOSSIP_ALGORITHMS[algorithm]
    if adversary is None:
        adversary = ObliviousAdversary.uniform(
            2, 2, seed=seed, crashes=crash_at({3: [n - 1]})
        )
    return Simulation(
        n=n, f=f,
        algorithms=make_processes(n, f, cls),
        adversary=adversary,
        monitor=GossipCompletionMonitor(majority=algorithm == "tears"),
        seed=seed,
    )


def finish(sim):
    result = sim.run(max_steps=20_000)
    return (
        result.completed, result.reason, result.completion_time,
        result.steps, result.messages, result.metrics,
    )


class TestForkEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(GOSSIP_ALGORITHMS))
    def test_fork_midflight_matches_original(self, algorithm):
        sim = make_sim(algorithm)
        sim.run_for(5)
        fork = sim.fork()
        assert finish(fork) == finish(sim)

    def test_fork_at_time_zero_matches(self):
        sim = make_sim("ears")
        fork = sim.fork()
        assert finish(fork) == finish(sim)

    def test_fork_shares_nothing_mutable(self):
        sim = make_sim("ears")
        sim.run_for(5)
        fork = sim.fork()
        fork.run_for(5)
        assert sim.now == 5 and fork.now == 10
        assert sim.metrics.messages_sent < fork.metrics.messages_sent

    @pytest.mark.parametrize("algorithm", ["trivial", "tears"])
    def test_fork_with_unsorted_mailboxes_in_flight(self, algorithm):
        # δ = 3: whoever is not scheduled keeps receiving, so mailboxes
        # hold an appended, not yet sorted tail when the fork is taken.
        def mailboxes(sim):
            return [
                [(msg.sent_at + msg.delay, msg.uid)
                 for msg in sim.network.queued_for(pid)]
                for pid in range(sim.n)
            ]

        sim = make_sim(algorithm, adversary=ObliviousAdversary.uniform(
            4, 3, seed=1, crashes=crash_at({3: [15]})))
        sim.run_for(2)
        before = mailboxes(sim)
        assert any(queue != sorted(queue) for queue in before)
        fork = sim.fork()
        assert mailboxes(fork) == before
        forked = finish(fork)
        assert mailboxes(sim) == before
        assert sim.network.in_flight == sum(map(len, before))
        assert forked == finish(sim)

    @pytest.mark.parametrize("kind", ["targeted-delay", "crash-eager"])
    def test_fork_with_adaptive_adversary(self, kind):
        if kind == "targeted-delay":
            adversary = TargetedDelayAdversary(victims={0, 1}, d=3)
        else:
            adversary = CrashEagerSendersAdversary(budget=2)
        sim = make_sim("ears", adversary=adversary)
        sim.run_for(4)
        fork = sim.fork()
        assert fork.adversary is not sim.adversary
        assert fork.adversary.sim is fork
        # The back-reference is the weak property, not a strong instance
        # attribute the default deepcopy would drag the simulation along by.
        assert "sim" not in vars(fork.adversary)
        assert "sim" not in vars(sim.adversary)
        assert finish(fork) == finish(sim)

    def test_fork_with_scripted_adversary_is_independent(self):
        adversary = ScriptedAdversary()
        adversary.scheduled = {0, 1, 2, 3}
        sim = make_sim("trivial", adversary=adversary)
        sim.run_for(3)
        fork = sim.fork()
        fork.adversary.scheduled = {0}
        fork.run_for(2)
        # Mutating the fork's script must not leak into the original.
        assert sim.adversary.scheduled == {0, 1, 2, 3}
        sim.run_for(2)
        assert sim.metrics.messages_sent != 0


class TestSnapshotRestore:
    def test_restore_rewinds_to_snapshot(self):
        sim = make_sim("ears")
        sim.run_for(5)
        snap = sim.snapshot()
        reference = finish(sim)
        sim.restore(snap)
        assert sim.now == 5
        assert finish(sim) == reference

    def test_snapshot_survives_multiple_restores(self):
        sim = make_sim("sears")
        sim.run_for(4)
        snap = sim.snapshot()
        first = finish(sim)
        second = finish(sim.restore(snap))
        third = finish(sim.restore(snap))
        assert first == second == third

    def test_restore_rejects_mismatched_n(self):
        small = make_sim("ears", n=8, f=2)
        big = make_sim("ears", n=16, f=4)
        with pytest.raises(Exception):
            big.restore(small.snapshot())

    def test_snapshot_is_inert(self):
        sim = make_sim("ears")
        sim.run_for(5)
        snap = sim.snapshot()
        sim.run_for(5)
        assert sim.restore(snap).now == 5


class TestLowerBoundForkPath:
    """The Theorem 1 Phase B usage pattern: fork, reseed, diverge."""

    def test_reseeded_forks_diverge_original_untouched(self):
        from repro.sim.rng import derive_rng

        adversary = ScriptedAdversary()
        adversary.scheduled = set(range(12))
        sim = make_sim("ears", adversary=adversary)
        sim.run_for(4)
        messages_before = sim.metrics.messages_sent
        totals = set()
        for i in range(3):
            fork = sim.fork()
            fork.adversary.scheduled = {15}
            fork.adversary.suppress_delivery_until = 2 ** 40
            fork.processes[15].ctx.rng = derive_rng(0, "resample", 15, i)
            fork.run_for(8)
            totals.add(fork.metrics.messages_sent)
        assert sim.metrics.messages_sent == messages_before
        assert sim.now == 4

    def test_fork_continues_as_a_deepcopy_does(self):
        """``copy.deepcopy`` is what ``fork()`` used to be, and stays the
        oracle: from the point ``benchmarks/bench_fork_snapshot.py`` times
        (n = 64 mid-flight, scripted adversary, no monitor) both clones
        continue bit for bit alike."""
        sim = import_benchmark("bench_fork_snapshot").make_theorem1_sim()
        fork, deep = sim.fork(), copy.deepcopy(sim)
        fork.run_for(10)
        deep.run_for(10)
        assert fork.now == deep.now == sim.now + 10
        assert fork.metrics.messages_sent == deep.metrics.messages_sent \
            > sim.metrics.messages_sent
        assert fork.metrics.snapshot() == deep.metrics.snapshot()
