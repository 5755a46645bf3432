"""Atomic insert-if-absent (`put_record_new`) on both store backends.

The fleet's dedupe primitive: when two workers race one spec hash,
exactly one insert wins, the loser receives the winner's record
unchanged, and the store ends with zero superseded entries.
"""

import pytest

from repro.spec import RunSpec
from repro.store import open_store
from repro.store.base import canonical_body, make_record

SPEC = RunSpec(kind="gossip", algorithm="ears", n=16, f=4, seed=3)
OTHER = RunSpec(kind="gossip", algorithm="ears", n=16, f=4, seed=4)


def _store(tmp_path, backend):
    return open_store(str(tmp_path / f"s.{backend}"))


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
class TestPutRecordNew:
    def test_first_insert_wins(self, tmp_path, backend):
        store = _store(tmp_path, backend)
        record = make_record(SPEC, {"messages": 1})
        stored, inserted = store.put_record_new(record)
        assert inserted and stored == record
        assert store.get(SPEC.spec_hash) == record

    def test_duplicate_returns_existing_unchanged(self, tmp_path,
                                                  backend):
        store = _store(tmp_path, backend)
        first = make_record(SPEC, {"messages": 1})
        second = make_record(SPEC, {"messages": 999})
        store.put_record_new(first)
        stored, inserted = store.put_record_new(second)
        assert not inserted
        assert canonical_body(stored) == canonical_body(first)
        assert store.get(SPEC.spec_hash)["metrics"] == {"messages": 1}

    def test_no_superseded_lines_after_races(self, tmp_path, backend):
        store = _store(tmp_path, backend)
        record = make_record(SPEC, {"messages": 1})
        for _ in range(5):
            store.put_record_new(record)
        store.put_record_new(make_record(OTHER, {"messages": 2}))
        verify = store.verify()
        assert verify["ok"]
        assert verify["unique"] == 2
        assert verify["superseded"] == 0

    def test_cross_handle_visibility(self, tmp_path, backend):
        # a second handle on the same path must observe the first
        # handle's insert and lose the race (the fleet's actual shape)
        path_store = _store(tmp_path, backend)
        record = make_record(SPEC, {"messages": 1})
        path_store.put_record_new(record)
        peer = _store(tmp_path, backend)
        stored, inserted = peer.put_record_new(
            make_record(SPEC, {"messages": 7}))
        assert not inserted
        assert stored["metrics"] == {"messages": 1}

    def test_put_new_wraps_spec_and_metrics(self, tmp_path, backend):
        store = _store(tmp_path, backend)
        record, inserted = store.put_new(SPEC, {"messages": 5})
        assert inserted and record["spec_hash"] == SPEC.spec_hash
        again, inserted = store.put_new(SPEC, {"messages": 5})
        assert not inserted
        assert canonical_body(again) == canonical_body(record)
