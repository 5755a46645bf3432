"""Kill-and-resume: a SIGKILLed campaign finishes correctly on resume.

The crash-safety end-to-end test: a real child process runs a drainable
``execute_batch``; the parent SIGKILLs it mid-campaign (after at least a
few records hit the store) and then resumes from the store alone, the
campaign's only progress record.  The final record set must be
identical, spec for spec, to an uninterrupted run — no lost records, no
duplicates, no re-seeded cells.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import GracefulShutdown
from repro.spec import RunSpec
from repro.store import JsonlStore, execute_batch, open_store

N_SPECS = 30

CHILD_SCRIPT = """\
import sys

from repro.experiments import GracefulShutdown
from repro.spec import RunSpec
from repro.store import execute_batch, open_store

specs = [
    RunSpec(kind="gossip", algorithm="ears", n=96, f=24, seed=seed,
            engine="{engine}")
    for seed in range({n_specs})
]
with GracefulShutdown() as shutdown:
    execute_batch(specs, store=open_store(sys.argv[1], fsync="always"),
                  shutdown=shutdown)
"""


def _specs(engine="auto"):
    return [
        RunSpec(kind="gossip", algorithm="ears", n=96, f=24, seed=seed,
                engine=engine)
        for seed in range(N_SPECS)
    ]


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _stored_count(store_path):
    """Record count as a second process sees it, backend by extension."""
    if not os.path.exists(store_path):
        return 0
    if not store_path.endswith(".sqlite"):
        with open(store_path, encoding="utf-8") as handle:
            return handle.read().count("\n")
    import sqlite3

    try:
        with sqlite3.connect(store_path, timeout=1.0) as conn:
            return conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]
    except sqlite3.Error:
        return 0  # mid-initialization or briefly locked: try again


def _wait_for_records(store_path, minimum, proc, timeout=60.0):
    """Poll until the store holds ``minimum`` complete records."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _stored_count(store_path) >= minimum:
            return
        if proc.poll() is not None:
            pytest.fail(
                f"campaign child exited early (rc={proc.returncode}) "
                f"before writing {minimum} records"
            )
        time.sleep(0.002)
    pytest.fail(f"no {minimum} records within {timeout}s")


def _metrics_by_hash(records):
    return {record["spec_hash"]: record["metrics"] for record in records}


# engine="batch" exercises the vectorized engine under the same kill:
# drainable campaigns stay per-trial (a chunk is not a retryable unit)
# but every eligible spec still routes through the batch engine as a
# batch of one, so resume must land the *batch* RNG discipline's records
# and the uninterrupted comparison run must reproduce them.
@pytest.mark.parametrize(
    "backend, engine",
    [("jsonl", "auto"), ("sqlite", "auto"), ("jsonl", "batch")],
)
def test_sigkill_mid_campaign_then_resume_matches_uninterrupted(
        tmp_path, backend, engine):
    store_path = str(tmp_path / f"runs.{backend}")
    script = tmp_path / "campaign_child.py"
    script.write_text(CHILD_SCRIPT.format(n_specs=N_SPECS, engine=engine))

    proc = subprocess.Popen(
        [sys.executable, str(script), store_path],
        env=_child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_records(store_path, 3, proc)
        assert proc.poll() is None, "campaign finished before the kill"
        proc.kill()  # SIGKILL: no handlers, no flushing, no goodbye
    finally:
        proc.wait(timeout=30)

    # The store survives the kill: whatever tail damage the kill left is
    # salvaged (JSONL quarantines the torn line; SQLite recovers through
    # its own WAL), and the valid records load.
    interrupted = open_store(store_path)
    survived = len(interrupted)
    assert 0 < survived < N_SPECS, "kill landed mid-campaign"

    # Resume from the store: exactly the missing specs re-run.
    records = execute_batch(
        _specs(engine), store=open_store(store_path, fsync="always"),
        shutdown=GracefulShutdown(verbose=False),
    )
    assert len(records) == N_SPECS
    assert not any(record.get("failed") for record in records)
    assert len(open_store(store_path)) == N_SPECS

    # Byte-for-byte the same science as a never-interrupted campaign.
    uninterrupted = execute_batch(
        _specs(engine), store=JsonlStore(str(tmp_path / "clean.jsonl")),
    )
    assert _metrics_by_hash(records) == _metrics_by_hash(uninterrupted)

    # And the repaired store itself verifies clean after a compact.
    final = open_store(store_path)
    final.compact()
    assert final.verify()["ok"]


def test_cli_batch_drains_on_sigterm_and_resumes(tmp_path):
    """One SIGTERM → graceful drain, exit 75, a resumable store; the
    re-run finishes the campaign and exits 0."""
    store_path = str(tmp_path / "runs.jsonl")
    specs_path = tmp_path / "specs.jsonl"
    with open(specs_path, "w", encoding="utf-8") as handle:
        for spec in _specs():
            handle.write(spec.to_json(indent=None) + "\n")

    argv = [
        sys.executable, "-m", "repro", "batch",
        "--specs", str(specs_path), "--resume", store_path,
    ]
    proc = subprocess.Popen(
        argv, env=_child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_records(store_path, 2, proc)
        proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait(timeout=30)

    assert returncode == 75  # DRAIN_EXIT_CODE: interrupted but resumable
    assert 0 < len(JsonlStore(store_path)) < N_SPECS

    finish = subprocess.run(argv, env=_child_env(), capture_output=True,
                            text=True, timeout=120)
    assert finish.returncode == 0, finish.stderr
    assert f"{N_SPECS}/{N_SPECS} spec(s) ok" in finish.stdout
    assert len(JsonlStore(store_path)) == N_SPECS
