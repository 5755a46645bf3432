"""Runtime safety invariants: clean runs stay silent, tampering raises."""

import pytest

from repro.sim.errors import InvariantViolation
from repro.sim.events import Observer
from repro.sim.invariants import (
    BoundConsistencyInvariant,
    ConsensusInvariant,
    CrashConsistencyInvariant,
    GossipValidityInvariant,
    TrafficProvenanceInvariant,
    default_invariants,
    state_digest,
)
from repro.sim.message import Message
from repro.sim.monitor import PredicateMonitor
from repro.spec.builder import build, execute
from repro.spec.runspec import RunSpec


def _gossip_built(algorithm="ears", n=8, f=2, crashes=None, **spec_kwargs):
    spec = RunSpec(
        kind="gossip", algorithm=algorithm, n=n, f=f, crashes=crashes,
        check_invariants=True, **spec_kwargs,
    )
    return build(spec)


class TestCleanRuns:
    @pytest.mark.parametrize("algorithm", ["ears", "sears", "tears"])
    def test_gossip_with_invariants_completes(self, algorithm):
        run = execute(RunSpec(
            kind="gossip", algorithm=algorithm, n=16, f=4, d=2, delta=2,
            crashes=3, check_invariants=True,
        ))
        assert run.completed

    def test_consensus_with_invariants_completes(self):
        run = execute(RunSpec(
            kind="consensus", algorithm="ben-or", n=7,
            check_invariants=True,
        ))
        assert run.completed and run.agreement

    def test_spec_without_invariants_keeps_fast_path(self):
        spec = RunSpec(kind="gossip", algorithm="ears", n=8, f=2)
        sim = build(spec).sim
        assert sim.observers == ()
        assert sim._obs_schedule == [] and sim._obs_send == []

    def test_check_invariants_is_hash_stable(self):
        base = RunSpec(kind="gossip", algorithm="ears", n=8)
        flagged = base.replace(check_invariants=True)
        assert base.spec_hash != flagged.spec_hash
        # The default is omitted from serialization, so pre-existing
        # hashes (written before the field existed) are unchanged.
        assert "check_invariants" not in base.to_dict()


class TestGossipValidity:
    def test_lost_rumor_raises_integrity(self):
        built = _gossip_built()
        sim = built.sim
        sim.run_for(3)
        rumors = sim.algorithm(0).rumors
        rumors.mask &= ~(rumors.mask & -rumors.mask)
        with pytest.raises(InvariantViolation) as info:
            sim.run_for(3)
        assert info.value.invariant == "gossip-integrity"
        assert info.value.pid == 0
        assert info.value.step is not None
        assert set(info.value.digest) >= {"now", "alive", "state_sha"}

    def test_foreign_rumor_raises_validity(self):
        built = _gossip_built()
        sim = built.sim
        sim.run_for(2)
        sim.algorithm(3).rumors.mask |= 1 << sim.n
        with pytest.raises(InvariantViolation) as info:
            sim.run_for(3)
        assert info.value.invariant == "gossip-validity"
        assert info.value.pid == 3


class TestCrashConsistency:
    def test_forged_post_crash_message_detected(self):
        built = _gossip_built(n=8, f=2, crashes={"events": {"1": [4]}})
        sim = built.sim
        sim.run_for(3)
        assert not sim.is_alive(4)
        sim.network.enqueue([Message(
            src=4, dst=0, payload=None, kind="forged",
            sent_at=sim.now, delay=1,
        )], sim.alive_pids)
        with pytest.raises(InvariantViolation) as info:
            sim.run_for(3)
        assert info.value.invariant == "crash-consistency"
        assert info.value.pid == 4

    def test_scheduling_a_crashed_pid_detected(self):
        built = _gossip_built(n=8, f=2, crashes={"events": {"1": [4]}})
        sim = built.sim
        sim.run_for(3)
        invariant = next(
            obs for obs in sim.observers
            if isinstance(obs, CrashConsistencyInvariant)
        )
        with pytest.raises(InvariantViolation) as info:
            invariant.on_schedule(sim.now, 4)
        assert info.value.invariant == "crash-consistency"

    def test_double_crash_detected(self):
        built = _gossip_built(n=8, f=2, crashes={"events": {"1": [4]}})
        sim = built.sim
        sim.run_for(3)
        invariant = next(
            obs for obs in sim.observers
            if isinstance(obs, CrashConsistencyInvariant)
        )
        with pytest.raises(InvariantViolation):
            invariant.on_crash(sim.now, 4)


class TestBoundConsistency:
    def test_excess_delay_raises_bound_d(self):
        built = _gossip_built(d=2, delta=1)
        sim = built.sim
        sim.run_for(2)
        invariant = next(
            obs for obs in sim.observers
            if isinstance(obs, BoundConsistencyInvariant)
        )
        assert invariant._d == 2
        msg = Message(src=0, dst=1, payload=None, sent_at=sim.now, delay=5)
        with pytest.raises(InvariantViolation) as info:
            invariant.on_send(sim.now, msg)
        assert info.value.invariant == "bound-d"

    def test_excess_gap_raises_bound_delta(self):
        built = _gossip_built(d=1, delta=2)
        sim = built.sim
        sim.run_for(4)
        invariant = next(
            obs for obs in sim.observers
            if isinstance(obs, BoundConsistencyInvariant)
        )
        assert invariant._delta == 2
        with pytest.raises(InvariantViolation) as info:
            invariant.on_schedule(invariant._last_scheduled[0] + 5, 0)
        assert info.value.invariant == "bound-delta"

    def test_non_declaring_adversary_is_not_checked(self):
        spec = RunSpec(
            kind="gossip", algorithm="ears", n=8, f=2,
            adversary={"name": "gst", "gst": 5},
            check_invariants=True,
        )
        sim = build(spec).sim
        sim.run_for(3)
        invariant = next(
            obs for obs in sim.observers
            if isinstance(obs, BoundConsistencyInvariant)
        )
        assert invariant._primed
        assert invariant._d is None and invariant._delta is None


class TestConsensusInvariant:
    def _built(self):
        spec = RunSpec(
            kind="consensus", algorithm="ben-or", n=5,
            check_invariants=True,
        )
        built = build(spec)
        # Keep running past decisions so tampering is always observable.
        built.sim.monitor = PredicateMonitor(lambda sim: False, name="never")
        return built

    def test_flipped_decision_raises_irrevocability(self):
        built = self._built()
        sim = built.sim
        deadline = min(built.max_steps, 2000)
        while sim.now < deadline:
            sim.run_for(1)
            decided = [
                pid for pid in sim.alive_pids
                if sim.algorithm(pid).decided is not None
            ]
            if decided:
                break
        assert decided, "no process decided within the deadline"
        sim.algorithm(decided[0]).decided = ("corrupt", 1)
        with pytest.raises(InvariantViolation) as info:
            sim.run_for(2)
        assert info.value.invariant == "consensus-irrevocability"

    def test_invalid_decision_raises_validity(self):
        built = self._built()
        sim = built.sim
        sim.run_for(1)
        sim.algorithm(0).decided = "not-an-initial-value"
        with pytest.raises(InvariantViolation) as info:
            sim.run_for(2)
        assert info.value.invariant == "consensus-validity"

    # -- the wire nets, fed through ``network.enqueue`` --------------------- #
    #
    # Each case replays a message Ben-Or really sent, under its own
    # (src, dst, kind, sent_at) signature, so traffic-provenance lets it
    # through, but with a payload the sender never sent. Put straight
    # into the network the way a fault injector puts its messages.

    def _sent(self, kind, steps=2000):
        """Run until some process sends a ``kind`` message; return the
        built run and that message."""
        class Tap(Observer):
            sent = None

            def on_send(self, t, msg):
                if self.sent is None and msg.kind == kind:
                    self.sent = msg

        built = self._built()
        tap = built.sim.add_observer(Tap())
        while tap.sent is None and built.sim.now < steps:
            built.sim.run_for(1)
        assert tap.sent is not None, f"no {kind!r} message within {steps}"
        return built, tap.sent

    def _replay(self, built, msg, payload, steps=50):
        """Enqueue ``msg`` again with ``payload``; run until it trips."""
        sim = built.sim
        sim.network.enqueue([Message(
            src=msg.src, dst=msg.dst, payload=payload, kind=msg.kind,
            sent_at=msg.sent_at, delay=msg.delay,
        )], sim.alive_pids)
        with pytest.raises(InvariantViolation) as info:
            sim.run_for(steps)
        assert info.value.pid == msg.src
        return info.value

    def test_equivocating_vote_raises_equivocation(self):
        built, vote = self._sent("ben-or")
        phase, rnd, value = vote.payload
        other = 1 if value == 0 else 0
        violation = self._replay(built, vote, (phase, rnd, other))
        assert violation.invariant == "consensus-equivocation"
        assert "voted both" in str(violation)

    def test_out_of_universe_vote_raises_integrity(self):
        built, vote = self._sent("ben-or")
        phase, rnd, value = vote.payload
        violation = self._replay(built, vote, (phase, rnd, ("x", value)))
        assert violation.invariant == "consensus-integrity"
        assert "outside the value universe" in str(violation)

    def test_out_of_universe_decision_raises_integrity(self):
        built, decide = self._sent("ben-or-decide")
        violation = self._replay(built, decide, ("x", decide.payload))
        assert violation.invariant == "consensus-integrity"
        assert "broadcast decision" in str(violation)


class TestCatalog:
    def test_default_invariants_by_kind(self):
        gossip = default_invariants("gossip")
        assert {type(inv) for inv in gossip} == {
            GossipValidityInvariant, CrashConsistencyInvariant,
            TrafficProvenanceInvariant, BoundConsistencyInvariant,
        }
        consensus = default_invariants("consensus")
        assert ConsensusInvariant in {type(inv) for inv in consensus}
        assert TrafficProvenanceInvariant in {
            type(inv) for inv in consensus
        }
        assert GossipValidityInvariant not in {
            type(inv) for inv in consensus
        }

    def test_state_digest_shape(self):
        sim = _gossip_built().sim
        sim.run_for(2)
        digest = state_digest(sim)
        assert digest["now"] == sim.now
        assert digest["alive"] == len(sim.alive_pids)
        assert len(digest["state_sha"]) == 16
