"""Tests for oblivious delay plans."""

import pytest

from repro.adversary.delay_plans import FixedDelay, HashDelay
from repro.sim.errors import ConfigurationError
from repro.sim.message import Message


def msg(src=0, dst=1, sent_at=0):
    m = Message(src=src, dst=dst, payload=None)
    m.sent_at = sent_at
    return m


class TestFixedDelay:
    def test_constant(self):
        plan = FixedDelay(4)
        assert plan.assign(msg()) == 4
        assert plan.target_d == 4

    def test_rejects_bad_d(self):
        with pytest.raises(ConfigurationError):
            FixedDelay(0)


class TestHashDelay:
    def test_within_bounds(self):
        plan = HashDelay(6, seed=3)
        delays = {plan.assign(msg(s, r, t))
                  for s in range(5) for r in range(5) for t in range(5)}
        assert delays <= set(range(1, 7))
        assert len(delays) > 1  # actually varies

    def test_oblivious_function_of_message_coordinates(self):
        plan = HashDelay(6, seed=3)
        assert plan.assign(msg(1, 2, 9)) == plan.assign(msg(1, 2, 9))

    def test_seed_changes_pattern(self):
        a = HashDelay(50, seed=1)
        b = HashDelay(50, seed=2)
        samples_a = [a.assign(msg(0, 1, t)) for t in range(20)]
        samples_b = [b.assign(msg(0, 1, t)) for t in range(20)]
        assert samples_a != samples_b

    def test_d_one_short_circuits(self):
        assert HashDelay(1).assign(msg()) == 1
