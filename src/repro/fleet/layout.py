"""On-disk layout and configuration of a fleet campaign.

A fleet campaign is a directory every worker can reach (local disk for
locally-spawned workers, a shared filesystem for attached ones).  All
coordination state lives in that directory as small, atomically-written
files — there is no coordinator socket, no master process, and therefore
no single point of failure:

.. code-block:: text

    campaign/
      fleet.json            frozen FleetConfig (budgets, TTLs, store)
      specs.jsonl           the campaign's RunSpecs, one per line
      store.jsonl|.sqlite   the shared artifact store (results)
      leases/<hash>.json    active job claims (atomic hard-link create)
      speculative/<hash>.json  straggler re-issue markers
      workers/<id>.json     per-worker heartbeat records
      attempts/<hash>.json  per-key attempt count, backoff, last error
      failed/<hash>.json    terminal failures (re-issue budget exhausted)
      timings.jsonl         completion durations (straggler median feed)

Progress is defined purely by the store and the ``failed/`` directory: a
key is *done* when the store holds its record or a terminal failure is
recorded; everything else is *missing* and eligible for (re-)claiming.
Because RunSpec seeds are pinned by the spec hash and the store inserts
first-completion-wins (:meth:`~repro.store.base.Store.put_record_new`),
any number of workers may execute the same key — crash recovery, lease
expiry, and speculative straggler re-issue all degrade to harmless
duplicate execution, never to lost or double-counted cells.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..sim.errors import ConfigurationError
from ..spec.runspec import RunSpec
from ..store import open_store
from ..store.base import Store, advisory_lock, atomic_replace_json
from .leases import create_exclusive

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "FleetCampaign",
    "FleetConfig",
]

FLEET_SCHEMA_VERSION = 1

#: Recorded failure strings are capped at this many characters: a job
#: that fails with a multi-kilobyte traceback on every retry must not
#: grow its attempts and failure files without bound.
MAX_FAILURE_CHARS = 2000


@dataclass(frozen=True)
class FleetConfig:
    """The knobs every worker of one campaign must agree on.

    Written once at campaign creation and read (never rewritten) by
    every joining worker, so the whole fleet shares one lease TTL, one
    re-issue budget, and one backoff schedule.
    """

    #: Store file name inside the campaign directory.
    store: str = "store.jsonl"
    backend: str = "auto"
    fsync: str = "always"
    #: Seconds a lease lives without a refresh before any peer may
    #: expire it and re-issue the job.
    lease_ttl: float = 10.0
    #: Seconds between lease refreshes / heartbeat writes while a job
    #: runs.  Must leave several refresh opportunities per TTL.
    heartbeat_interval: float = 2.0
    #: Re-issue budget: a key tried this many times degrades to a
    #: recorded terminal failure instead of livelocking the fleet.
    max_attempts: int = 5
    #: Capped exponential backoff between attempts of the same key.
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    #: A leased job older than ``straggler_factor`` x the trailing
    #: median completion time (but at least ``straggler_min_age``
    #: seconds) is speculatively duplicated to an idle worker.
    straggler_factor: float = 4.0
    straggler_min_age: float = 2.0
    #: Idle poll interval when no job is claimable.
    poll_interval: float = 0.05

    def validate(self) -> "FleetConfig":
        for name in ("lease_ttl", "heartbeat_interval", "backoff_base",
                     "backoff_cap", "straggler_factor",
                     "straggler_min_age", "poll_interval"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"fleet config {name} must be positive, "
                    f"got {getattr(self, name)!r}"
                )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"fleet config max_attempts must be >= 1, "
                f"got {self.max_attempts}"
            )
        if self.heartbeat_interval * 2 > self.lease_ttl:
            raise ConfigurationError(
                f"heartbeat_interval ({self.heartbeat_interval}) must be "
                f"at most half the lease_ttl ({self.lease_ttl}), or a "
                f"healthy worker cannot keep its own lease alive"
            )
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": FLEET_SCHEMA_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FleetConfig":
        schema = payload.get("schema")
        if schema != FLEET_SCHEMA_VERSION:
            raise ConfigurationError(
                f"fleet config has schema version {schema!r}; this build "
                f"reads version {FLEET_SCHEMA_VERSION}"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in payload.items()
                      if key in known}).validate()


@dataclass
class FleetCampaign:
    """Handle on one fleet campaign directory."""

    root: str
    config: FleetConfig = field(default_factory=FleetConfig)

    # -- paths ------------------------------------------------------------#

    @property
    def config_path(self) -> str:
        return os.path.join(self.root, "fleet.json")

    @property
    def specs_path(self) -> str:
        return os.path.join(self.root, "specs.jsonl")

    @property
    def store_path(self) -> str:
        return os.path.join(self.root, self.config.store)

    @property
    def leases_dir(self) -> str:
        return os.path.join(self.root, "leases")

    @property
    def speculative_dir(self) -> str:
        return os.path.join(self.root, "speculative")

    @property
    def workers_dir(self) -> str:
        return os.path.join(self.root, "workers")

    @property
    def attempts_dir(self) -> str:
        return os.path.join(self.root, "attempts")

    @property
    def failed_dir(self) -> str:
        return os.path.join(self.root, "failed")

    @property
    def timings_path(self) -> str:
        return os.path.join(self.root, "timings.jsonl")

    # -- lifecycle ---------------------------------------------------------#

    @classmethod
    def create(cls, root: str, specs: List[RunSpec],
               config: Optional[FleetConfig] = None) -> "FleetCampaign":
        """Initialize a fresh campaign directory (refuses to clobber)."""
        config = (config or FleetConfig()).validate()
        campaign = cls(root=str(root), config=config)
        if os.path.exists(campaign.config_path):
            raise ConfigurationError(
                f"fleet campaign already exists at {root!r}; open it "
                f"instead (or point --dir somewhere fresh)"
            )
        if not specs:
            raise ConfigurationError("fleet campaign needs at least one spec")
        for sub in (campaign.leases_dir, campaign.speculative_dir,
                    campaign.workers_dir, campaign.attempts_dir,
                    campaign.failed_dir):
            os.makedirs(sub, exist_ok=True)
        tmp = campaign.specs_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for spec in specs:
                handle.write(spec.to_json(indent=None) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, campaign.specs_path)
        atomic_replace_json(campaign.config_path, config.to_dict())
        return campaign

    @classmethod
    def open(cls, root: str) -> "FleetCampaign":
        """Attach to an existing campaign directory."""
        campaign = cls(root=str(root))
        try:
            with open(campaign.config_path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise ConfigurationError(
                f"no fleet campaign at {root!r} (missing fleet.json); "
                f"create one with 'repro fleet run --specs ...'"
            ) from None
        campaign.config = FleetConfig.from_dict(payload)
        for sub in (campaign.leases_dir, campaign.speculative_dir,
                    campaign.workers_dir, campaign.attempts_dir,
                    campaign.failed_dir):
            os.makedirs(sub, exist_ok=True)
        return campaign

    @classmethod
    def ensure(cls, root: str, specs: Optional[List[RunSpec]] = None,
               config: Optional[FleetConfig] = None) -> "FleetCampaign":
        """Open an existing campaign, or create one from ``specs``."""
        if os.path.exists(os.path.join(str(root), "fleet.json")):
            return cls.open(root)
        if specs is None:
            raise ConfigurationError(
                f"no fleet campaign at {root!r} and no specs to create "
                f"one from"
            )
        return cls.create(root, specs, config=config)

    # -- specs and store ---------------------------------------------------#

    def load_specs(self) -> List[RunSpec]:
        return RunSpec.load_many(self.specs_path)

    def open_store(self) -> Store:
        return open_store(self.store_path, backend=self.config.backend,
                          fsync=self.config.fsync)

    # -- attempts, backoff, and the re-issue budget ------------------------#

    def _attempt_path(self, key: str) -> str:
        return os.path.join(self.attempts_dir, f"{key}.json")

    def attempt_state(self, key: str) -> Dict[str, Any]:
        """``{"attempts", "not_before", "error"}`` for one key."""
        try:
            with open(self._attempt_path(key),
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return {"attempts": 0, "not_before": 0.0, "error": None}
        return {
            "attempts": int(payload.get("attempts", 0)),
            "not_before": float(payload.get("not_before", 0.0)),
            "error": payload.get("error"),
        }

    def backoff_for(self, attempts: int) -> float:
        """Capped exponential backoff before attempt ``attempts + 1``."""
        return min(self.config.backoff_base * (2 ** max(0, attempts - 1)),
                   self.config.backoff_cap)

    def record_attempt(self, key: str, worker: str) -> int:
        """Count one more try of ``key``; returns the new attempt number.

        Called under the key's lease, so writers do not race in normal
        operation (and the file is atomically replaced regardless).
        """
        state = self.attempt_state(key)
        attempts = state["attempts"] + 1
        atomic_replace_json(self._attempt_path(key), {
            "key": key, "attempts": attempts, "worker": worker,
            "not_before": state["not_before"], "error": state["error"],
            "updated_at": time.time(),
        })
        return attempts

    def record_job_failure(self, key: str, worker: str,
                           error: str) -> Optional[Dict[str, Any]]:
        """One failed try: backoff the key, or terminally fail it.

        Returns the terminal-failure payload when the re-issue budget is
        exhausted, ``None`` while retries remain.
        """
        state = self.attempt_state(key)
        attempts = max(1, state["attempts"])
        error = str(error)[:MAX_FAILURE_CHARS]
        atomic_replace_json(self._attempt_path(key), {
            "key": key, "attempts": attempts, "worker": worker,
            "not_before": time.time() + self.backoff_for(attempts),
            "error": error, "updated_at": time.time(),
        })
        if attempts >= self.config.max_attempts:
            return self.record_terminal_failure(key, worker, error,
                                                attempts)
        return None

    def record_terminal_failure(self, key: str, worker: str, error: str,
                                attempts: int) -> Dict[str, Any]:
        """Mark ``key`` permanently failed (exactly-once via hard link)."""
        payload = {
            "key": key, "error": str(error)[:MAX_FAILURE_CHARS],
            "attempts": attempts, "worker": worker, "time": time.time(),
        }
        # Exactly once: if a peer recorded the failure first, its stands.
        create_exclusive(os.path.join(self.failed_dir, f"{key}.json"),
                         payload, worker)
        return payload

    def terminal_failures(self) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(self.failed_dir))
        except FileNotFoundError:
            return out
        for name in names:
            if not name.endswith(".json") or name.startswith("."):
                continue
            try:
                with open(os.path.join(self.failed_dir, name),
                          encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):  # pragma: no cover
                continue
            out[payload.get("key", name[:-5])] = payload
        return out

    # -- timings (straggler median feed) -----------------------------------#

    def record_timing(self, key: str, worker: str,
                      duration: float) -> None:
        line = json.dumps({
            "key": key, "worker": worker,
            "duration": round(float(duration), 6), "time": time.time(),
        }, sort_keys=True) + "\n"
        with advisory_lock(self.timings_path + ".lock"):
            with open(self.timings_path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()

    def trailing_median_duration(self, window: int = 32
                                 ) -> Optional[float]:
        """Median of the last ``window`` completion durations, if any."""
        try:
            with open(self.timings_path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return None
        durations: List[float] = []
        for raw in lines[-window:]:
            try:
                durations.append(float(json.loads(raw)["duration"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue
        if not durations:
            return None
        durations.sort()
        mid = len(durations) // 2
        if len(durations) % 2:
            return durations[mid]
        return (durations[mid - 1] + durations[mid]) / 2.0

    # -- progress ----------------------------------------------------------#

    def missing_keys(self, store: Optional[Store] = None,
                     specs: Optional[List[RunSpec]] = None) -> List[str]:
        """Keys with neither a stored record nor a terminal failure."""
        store = store if store is not None else self.open_store()
        specs = specs if specs is not None else self.load_specs()
        failed = self.terminal_failures()
        return [
            spec.spec_hash for spec in specs
            if spec.spec_hash not in failed and spec.spec_hash not in store
        ]

    def status(self, store: Optional[Store] = None) -> Dict[str, Any]:
        from .heartbeat import EXITED, read_workers
        from .leases import read_all_leases

        store = store if store is not None else self.open_store()
        specs = self.load_specs()
        failed = self.terminal_failures()
        missing = self.missing_keys(store=store, specs=specs)
        leases = read_all_leases(self.leases_dir)
        now = time.time()
        workers = read_workers(self.workers_dir)
        stale_after = 3 * self.config.heartbeat_interval
        return {
            "root": self.root,
            "specs": len(specs),
            "stored": len(specs) - len(missing) - len(failed),
            "failed": len(failed),
            "missing": len(missing),
            "leased": len(leases),
            "stale_leases": sum(
                1 for lease in leases if lease.expires_at < now),
            "workers": len(workers),
            "live_workers": sum(
                1 for worker in workers
                if worker.get("state") not in EXITED
                and now - worker.get("updated_at", 0) <= stale_after),
            "complete": not missing,
        }
