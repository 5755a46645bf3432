"""Per-worker heartbeat records.

Each worker atomically rewrites ``workers/<id>.json`` on every refresh
tick with its state, the key it is executing, and its progress counters.
Heartbeats are *observability*, not coordination: liveness decisions run
on lease expiry alone (a worker whose heartbeat stalls but whose lease
keeps refreshing is slow, not dead — and vice versa).  ``fleet workers``
and the chaos injectors read these records.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from ..store.base import atomic_replace_json

__all__ = ["EXITED", "beat", "read_workers"]

#: The states a worker beats as it leaves its loop: its record stays fresh
#: for a while, but the worker is gone.
EXITED = frozenset({"done", "timeout", "budget-exhausted"})


def beat(workers_dir: str, worker_id: str, state: str,
         current_key: Optional[str] = None,
         counters: Optional[Dict[str, Any]] = None) -> None:
    """Write this worker's heartbeat record (atomic replace)."""
    atomic_replace_json(os.path.join(workers_dir, f"{worker_id}.json"), {
        "worker": worker_id,
        "pid": os.getpid(),
        "state": state,
        "current_key": current_key,
        "counters": dict(counters or {}),
        "updated_at": time.time(),
    })


def read_workers(workers_dir: str) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(workers_dir))
    except FileNotFoundError:
        return out
    for name in names:
        if not name.endswith(".json") or name.startswith("."):
            continue
        try:
            with open(os.path.join(workers_dir, name),
                      encoding="utf-8") as handle:
                out.append(json.load(handle))
        except (OSError, json.JSONDecodeError):
            continue
    return out

