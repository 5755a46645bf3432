"""Property-based tests for the rumor-set algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import popcount
from repro.core.rumors import RumorSet

pids = st.integers(min_value=0, max_value=63)
masks = st.integers(min_value=0, max_value=2 ** 64 - 1)


class TestMergeAlgebra:
    @given(masks, masks)
    def test_merge_is_union(self, a, b):
        r = RumorSet(a)
        r.merge(b)
        assert r.mask == a | b

    @given(masks, masks)
    def test_merge_commutative(self, a, b):
        x, y = RumorSet(a), RumorSet(b)
        x.merge(b)
        y.merge(a)
        assert x.mask == y.mask

    @given(masks, masks, masks)
    def test_merge_associative(self, a, b, c):
        x = RumorSet(a)
        x.merge(b)
        x.merge(c)
        y = RumorSet(b)
        y.merge(c)
        z = RumorSet(a)
        z.merge(y.mask)
        assert x.mask == z.mask

    @given(masks)
    def test_merge_idempotent(self, a):
        r = RumorSet(a)
        assert not r.merge(a)
        assert r.mask == a

    @given(masks, masks)
    def test_merge_novelty_report(self, a, b):
        r = RumorSet(a)
        novel = r.merge(b)
        assert novel == bool(b & ~a)

    @given(masks)
    def test_len_is_popcount(self, a):
        assert len(RumorSet(a)) == popcount(a)

    @given(masks)
    def test_iter_matches_contains(self, a):
        r = RumorSet(a)
        listed = set(r)
        for pid in range(64):
            assert (pid in listed) == (pid in r)


class TestSnapshots:
    @given(pids, st.text(max_size=5))
    @settings(max_examples=25)
    def test_snapshot_immune_to_later_changes(self, pid, payload):
        r = RumorSet.initial(pid, payload or None)
        mask, payloads = r.snapshot()
        later = (pid + 1) % 64
        r.merge(1 << later, {later: "later"})
        assert mask == 1 << pid
        if payload:
            assert payloads == {pid: payload}
        else:
            assert payloads is None
