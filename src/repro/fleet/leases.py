"""Crash-safe, peer-observable job leases over a shared filesystem.

A lease is a small JSON file ``leases/<spec_hash>.json``.  The protocol
uses only two filesystem primitives, both atomic on POSIX:

* **claim** — write a temp file, fsync it, then ``os.link`` it to the
  lease path.  Hard-link creation fails with ``FileExistsError`` when
  the name exists, so exactly one of any number of racing workers wins;
  losers see the failure and move on.  There is no read-check-write
  window.
* **refresh / expire** — ``os.replace`` swaps in a new lease body
  atomically.  A holder refreshes only after re-reading the file and
  confirming it still owns it (same worker id, claim time, and attempt);
  a peer that reaped the lease and re-claimed the key has changed those
  fields, so a stale holder observes the loss instead of silently
  overwriting the new owner.

**Any** worker may reap expired or unparseable leases — liveness never
depends on a distinguished coordinator surviving.  The race this allows
(holder refreshes in the instant between a peer's expiry check and
unlink) at worst double-executes a job, which is safe: records are
deterministic and the store inserts first-completion-wins.  Leases are
an *efficiency* mechanism that keeps duplicate work rare; they are never
a correctness mechanism.

Speculative straggler markers (``speculative/<hash>.json``) reuse the
same claim/expire machinery with ``speculative=True``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "Lease",
    "claim",
    "create_exclusive",
    "read_all_leases",
    "read_lease",
    "reap_expired",
    "refresh",
    "release",
]


@dataclass(frozen=True)
class Lease:
    """One claimed job.  Ownership identity is (worker, claimed_at,
    attempt): a re-claim of the same key by the same worker still gets a
    fresh identity, so stale refreshers always lose."""

    key: str
    worker: str
    pid: int
    attempt: int
    claimed_at: float
    expires_at: float
    speculative: bool = False

    @property
    def age(self) -> float:
        return time.time() - self.claimed_at

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Lease":
        return cls(
            key=str(payload["key"]),
            worker=str(payload["worker"]),
            pid=int(payload["pid"]),
            attempt=int(payload["attempt"]),
            claimed_at=float(payload["claimed_at"]),
            expires_at=float(payload["expires_at"]),
            speculative=bool(payload.get("speculative", False)),
        )

    def owns(self, other: Optional["Lease"]) -> bool:
        """Is ``other`` (the lease file's current content) still mine?"""
        return (other is not None
                and other.worker == self.worker
                and other.claimed_at == self.claimed_at
                and other.attempt == self.attempt)


def _lease_path(leases_dir: str, key: str) -> str:
    return os.path.join(leases_dir, f"{key}.json")


def _write_payload(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())


def create_exclusive(path: str, payload: Dict[str, Any],
                     worker: str) -> bool:
    """Create ``path`` holding ``payload`` unless it already exists.

    Writes a fsynced temp file beside ``path`` and hard-links it into
    place: of any number of racing writers exactly one gets ``True``;
    ``False`` means a peer created ``path`` first.
    """
    tmp = os.path.join(os.path.dirname(path),
                       f".claim-{worker}-{os.getpid()}.json")
    _write_payload(tmp, payload)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)
    return True


def claim(leases_dir: str, key: str, worker: str, ttl: float,
          attempt: int = 1, speculative: bool = False,
          pid: Optional[int] = None) -> Optional[Lease]:
    """Atomically claim ``key``; ``None`` means a peer holds it."""
    now = time.time()
    lease = Lease(key=key, worker=worker,
                  pid=os.getpid() if pid is None else pid,
                  attempt=attempt, claimed_at=now, expires_at=now + ttl,
                  speculative=speculative)
    if create_exclusive(_lease_path(leases_dir, key), lease.to_dict(),
                        worker):
        return lease
    return None


def read_lease(leases_dir: str, key: str) -> Optional[Lease]:
    """The current lease on ``key``; ``None`` if absent or corrupt
    (corrupt lease files count as broken claims and are reaped)."""
    try:
        with open(_lease_path(leases_dir, key),
                  encoding="utf-8") as handle:
            return Lease.from_dict(json.load(handle))
    except (FileNotFoundError, json.JSONDecodeError, KeyError,
            TypeError, ValueError):
        return None


def read_all_leases(leases_dir: str) -> List[Lease]:
    out: List[Lease] = []
    try:
        names = sorted(os.listdir(leases_dir))
    except FileNotFoundError:
        return out
    for name in names:
        if not name.endswith(".json") or name.startswith("."):
            continue
        lease = read_lease(leases_dir, name[:-5])
        if lease is not None:
            out.append(lease)
    return out


def refresh(leases_dir: str, lease: Lease,
            ttl: float) -> Optional[Lease]:
    """Extend my lease; ``None`` means I lost it (a peer expired it and
    may have re-issued the job — the caller must treat its execution as
    speculative and rely on store dedupe)."""
    current = read_lease(leases_dir, lease.key)
    if not lease.owns(current):
        return None
    renewed = Lease(key=lease.key, worker=lease.worker, pid=lease.pid,
                    attempt=lease.attempt, claimed_at=lease.claimed_at,
                    expires_at=time.time() + ttl,
                    speculative=lease.speculative)
    path = _lease_path(leases_dir, lease.key)
    tmp = os.path.join(leases_dir,
                       f".renew-{lease.worker}-{os.getpid()}.json")
    _write_payload(tmp, renewed.to_dict())
    # The ownership check above makes overwriting a peer's re-claim
    # unlikely, not impossible (no compare-and-swap on POSIX renames).
    # A lost refresh is harmless: both executions insert-if-absent.
    os.replace(tmp, path)
    return renewed


def release(leases_dir: str, lease: Lease) -> bool:
    """Drop my lease after finishing the job.  Only the owner releases;
    a lease lost to a peer is left for that peer."""
    if not lease.owns(read_lease(leases_dir, lease.key)):
        return False
    try:
        os.unlink(_lease_path(leases_dir, lease.key))
    except FileNotFoundError:
        return False
    return True


def reap_expired(leases_dir: str,
                 now: Optional[float] = None) -> List[str]:
    """Unlink every expired or unparseable lease; returns reaped keys.

    Run by *every* worker on its idle loop — the fleet stays live after
    any subset of workers (including whichever spawned the others) dies.
    """
    now = time.time() if now is None else now
    reaped: List[str] = []
    try:
        names = sorted(os.listdir(leases_dir))
    except FileNotFoundError:
        return reaped
    for name in names:
        if not name.endswith(".json") or name.startswith("."):
            continue
        key = name[:-5]
        lease = read_lease(leases_dir, key)
        if lease is not None and lease.expires_at >= now:
            continue
        try:
            os.unlink(os.path.join(leases_dir, name))
        except FileNotFoundError:
            continue  # a peer reaped it first
        reaped.append(key)
    return reaped
