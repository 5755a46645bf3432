"""Tests for the bitmask rumor-set representation."""

from repro.core.rumors import RumorSet, mask_of


class TestMaskOf:
    def test_basic(self):
        assert mask_of([0, 2, 5]) == 0b100101

    def test_empty(self):
        assert mask_of([]) == 0


class TestRumorSet:
    def test_initial(self):
        r = RumorSet.initial(3)
        assert 3 in r
        assert len(r) == 1
        assert list(r) == [3]

    def test_initial_with_payload(self):
        r = RumorSet.initial(2, payload="vote-1")
        assert r.value_of(2) == "vote-1"
        assert r.value_of(0, default="none") == "none"

    def test_merge_payload_and_contains(self):
        r = RumorSet.initial(0)
        r.merge(mask_of([4]), {4: 10})
        assert 4 in r
        assert 1 not in r
        assert r.value_of(4) == 10

    def test_merge_reports_novelty(self):
        r = RumorSet.initial(0)
        assert r.merge(mask_of([1, 2]))
        assert not r.merge(mask_of([1]))
        assert len(r) == 3

    def test_merge_with_payloads(self):
        a = RumorSet.initial(0, payload="a")
        b = RumorSet.initial(1, payload="b")
        assert a.merge(*b.snapshot())
        assert a.value_of(1) == "b"
        assert a.value_of(0) == "a"

    def test_snapshot_is_detached(self):
        r = RumorSet.initial(0, payload="a")
        mask, payloads = r.snapshot()
        r.merge(mask_of([1]), {1: "b"})
        assert mask == mask_of([0])
        assert payloads == {0: "a"}

    def test_snapshot_without_payloads_is_none(self):
        r = RumorSet.initial(0)
        _, payloads = r.snapshot()
        assert payloads is None
