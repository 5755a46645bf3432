"""Tests for instance-tag ordering and envelope records."""

from repro.consensus.canetti_rabin import CanettiRabinConsensus
from repro.consensus.values import (
    VOTING_COIN,
    VOTING_ESTIMATE,
    VOTING_PREFERENCE,
    Envelope,
    first_instance,
)


def next_instance(tag):
    """The instance a Canetti-Rabin process moves to when ``tag``
    completes with split votes (no decision)."""
    process = CanettiRabinConsensus(pid=0, n=4, f=1, initial_value=0,
                                    gossip_factory=None)
    process.instance = tag
    process._complete_instance({0: 0, 1: 1})
    assert process.decided is None
    return process.instance


class TestInstanceOrder:
    def test_first(self):
        assert first_instance() == (1, VOTING_ESTIMATE, 0)

    def test_stage_progression(self):
        assert next_instance((1, 1, 0)) == (1, 1, 1)
        assert next_instance((1, 1, 1)) == (1, 1, 2)

    def test_voting_progression(self):
        assert next_instance((1, VOTING_ESTIMATE, 2)) == (
            1, VOTING_PREFERENCE, 0)
        assert next_instance((1, VOTING_PREFERENCE, 2)) == (1, VOTING_COIN, 0)

    def test_round_progression(self):
        assert next_instance((1, VOTING_COIN, 2)) == (2, VOTING_ESTIMATE, 0)

    def test_total_order_is_lexicographic(self):
        tags = [first_instance()]
        for _ in range(20):
            tags.append(next_instance(tags[-1]))
        assert tags == sorted(tags)
        assert len(set(tags)) == len(tags)

    def test_nine_instances_per_round(self):
        tag = first_instance()
        count = 0
        while tag[0] == 1:
            tag = next_instance(tag)
            count += 1
        assert count == 9


class TestEnvelope:
    def test_defaults(self):
        env = Envelope(instance=(1, 1, 0), inner="x")
        assert env.history == {}
        assert env.decided is None
        assert not env.probe
