"""Each fault injector trips exactly its expected detector."""

import pytest

from repro.faults.injectors import FAULTS, FaultInjector
from repro.sim.errors import (
    ConfigurationError,
    IncompleteRunError,
    InvariantViolation,
)
from repro.sim.monitor import PredicateMonitor
from repro.sim.rng import derive_rng
from repro.spec.builder import build
from repro.spec.runspec import RunSpec


def _built(kind="gossip", algorithm="ears", with_crashes=False, seed=0):
    if kind == "gossip":
        spec = RunSpec(
            kind="gossip", algorithm=algorithm, n=16, f=4, d=2, delta=2,
            seed=seed, crashes=(2 if with_crashes else None),
            check_invariants=True,
        )
    else:
        spec = RunSpec(
            kind="consensus", algorithm=algorithm, n=7, seed=seed,
            crashes=(2 if with_crashes else None), check_invariants=True,
        )
    return build(spec)


def _run_with_fault(fault_name, kind="gossip", algorithm="ears", seed=0,
                    run_on=True):
    fault = FAULTS[fault_name]()
    built = _built(kind, algorithm, with_crashes=fault.needs_crashes,
                   seed=seed)
    fault.arm(built, derive_rng(seed, "test", fault_name))
    if run_on:
        built.sim.monitor = PredicateMonitor(lambda s: False, name="never")
        built.max_steps = min(built.max_steps, 2000)
    return fault, built


DETECT_CASES = [
    ("rumor-loss", "gossip", "ears", "gossip-integrity"),
    ("foreign-rumor", "gossip", "sears", "gossip-validity"),
    ("forged-message", "gossip", "tears", "crash-consistency"),
    ("forged-message", "consensus", "ben-or", "crash-consistency"),
    ("delay-burst", "gossip", "ears", "bound-d"),
    ("schedule-stall", "gossip", "ears", "bound-delta"),
    ("decision-flip", "consensus", "ben-or", "consensus-irrevocability"),
]


class TestDetection:
    @pytest.mark.parametrize(
        "fault_name,kind,algorithm,expected", DETECT_CASES,
        ids=[f"{c[0]}-{c[1]}" for c in DETECT_CASES],
    )
    def test_fault_raises_expected_invariant(self, fault_name, kind,
                                             algorithm, expected):
        fault, built = _run_with_fault(fault_name, kind, algorithm)
        with pytest.raises(InvariantViolation) as info:
            built.sim.run(max_steps=built.max_steps, strict=True)
        assert info.value.invariant == expected
        assert expected in fault.expects
        assert fault.fired

    def test_silent_stall_raises_incomplete(self):
        fault, built = _run_with_fault("silent-stall", run_on=False)
        with pytest.raises(IncompleteRunError):
            built.sim.run(max_steps=built.max_steps, strict=True)

    def test_step_budget_raises_incomplete(self):
        fault, built = _run_with_fault("step-budget", run_on=False)
        assert built.max_steps == 3
        with pytest.raises(IncompleteRunError) as info:
            built.sim.run(max_steps=built.max_steps, strict=True)
        assert info.value.reason == "step-limit"


class TestTolerance:
    def test_message_duplication_is_tolerated(self):
        fault, built = _run_with_fault("message-duplication", run_on=False)
        result = built.sim.run(max_steps=built.max_steps, strict=True)
        assert result.completed
        assert fault.fired


class TestRegistry:
    def test_all_faults_registered(self):
        assert {
            "rumor-loss", "foreign-rumor", "forged-message", "delay-burst",
            "schedule-stall", "decision-flip", "silent-stall",
            "step-budget", "message-duplication",
        } <= set(FAULTS)

    def test_forged_message_live_registered(self):
        assert "forged-message-live" in FAULTS
        fault = FAULTS["forged-message-live"]()
        assert fault.kind == "any"
        assert fault.expects == ("traffic-provenance",)

    def test_unknown_fault_lists_registered(self):
        with pytest.raises(KeyError, match="choose from"):
            FAULTS["no-such-fault"]

    def test_faults_are_seeded_and_reproducible(self):
        first, built_a = _run_with_fault("rumor-loss", seed=3)
        with pytest.raises(InvariantViolation) as info_a:
            built_a.sim.run(max_steps=built_a.max_steps, strict=True)
        second, built_b = _run_with_fault("rumor-loss", seed=3)
        with pytest.raises(InvariantViolation) as info_b:
            built_b.sim.run(max_steps=built_b.max_steps, strict=True)
        assert info_a.value.pid == info_b.value.pid
        assert info_a.value.step == info_b.value.step

    def test_base_injector_contract(self):
        fault = FaultInjector()
        assert not fault.fired
        # An armed injector observes the run, so the run cannot be forked.
        _, built = _run_with_fault("rumor-loss", run_on=False)
        with pytest.raises(ConfigurationError, match="RumorLossFault"):
            built.sim.fork()
