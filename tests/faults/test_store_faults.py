"""Artifact-store corruption injectors and their chaos-campaign matrix."""

import random

import pytest

from repro.faults import STORE_FAULTS, run_campaign
from repro.spec import RunSpec
from repro.store import JsonlStore

SPEC = RunSpec(algorithm="ears", n=16, f=4, d=1, delta=1, seed=0)


def _store_with_records(path, count=4):
    store = JsonlStore(str(path))
    for seed in range(count):
        store.put(SPEC.replace(seed=seed),
                  {"completed": True, "time": seed})
    return store


@pytest.mark.parametrize("fault_name", sorted(STORE_FAULTS))
@pytest.mark.parametrize("trial", range(3))
def test_injected_corruption_is_detected_and_salvaged(
        tmp_path, fault_name, trial):
    path = tmp_path / "runs.jsonl"
    _store_with_records(path)
    fault = STORE_FAULTS[fault_name]()
    info = fault.inject(str(path), random.Random(trial))

    report = JsonlStore(str(path)).verify()
    assert not report["ok"]
    assert len(report["corrupt"]) == info["corrupted_lines"]
    assert report["corrupt"][0]["line"] == info["line"]

    recovered = JsonlStore(str(path))
    assert len(recovered) == info["surviving_records"]
    assert len(recovered.quarantined_entries()) == info["corrupted_lines"]


def test_torn_write_leaves_no_trailing_newline(tmp_path):
    path = tmp_path / "runs.jsonl"
    _store_with_records(path)
    STORE_FAULTS["store-torn-write"]().inject(str(path), random.Random(0))
    assert not path.read_text().endswith("\n")


def test_checksum_flip_keeps_line_as_valid_json(tmp_path):
    import json

    path = tmp_path / "runs.jsonl"
    _store_with_records(path)
    info = STORE_FAULTS["store-checksum-flip"]().inject(
        str(path), random.Random(0))
    lines = path.read_text().splitlines()
    flipped = json.loads(lines[info["line"] - 1])  # still parses
    assert flipped["spec_hash"]  # payload intact; only the CRC lies
    reasons = [c["reason"]
               for c in JsonlStore(str(path)).verify()["corrupt"]]
    assert reasons == ["checksum-mismatch"]


def test_faults_refuse_uncorruptible_stores(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="no lines"):
        STORE_FAULTS["store-torn-write"]().inject(str(empty),
                                                  random.Random(0))
    no_crc = tmp_path / "v1.jsonl"
    no_crc.write_text('{"schema": 1, "spec_hash": "aa", "metrics": {}}\n')
    with pytest.raises(ValueError, match="no checksummed"):
        STORE_FAULTS["store-checksum-flip"]().inject(str(no_crc),
                                                     random.Random(0))


def test_campaign_store_matrix_detects_all(tmp_path):
    report = run_campaign(seed=1, trials=2, faults=[],
                          store_faults=sorted(STORE_FAULTS), n=16,
                          consensus_n=5)
    store_cells = [cell for cell in report.cells if cell.kind == "store"]
    assert len(store_cells) == 2 * len(STORE_FAULTS)
    assert all(cell.ok for cell in store_cells)
    assert all(cell.detected == "store-corruption"
               for cell in store_cells)
    assert not report.false_positives


def test_campaign_store_matrix_can_be_skipped():
    report = run_campaign(seed=0, trials=1, faults=[], store_faults=[],
                          n=16, consensus_n=5)
    assert not any(cell.kind == "store" for cell in report.cells)
