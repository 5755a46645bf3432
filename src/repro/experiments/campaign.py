"""Crash-safe campaigns: checkpoint manifests and graceful shutdown.

A *campaign* is any long multi-trial driver — a spec batch, a grid, a
population sweep, a Theorem 1 portfolio run.  The trial pool makes the
individual trials fault-tolerant; this module makes the campaign itself
survive process death:

* :class:`CampaignManifest` — a small JSON checkpoint, atomically
  replaced on a configurable cadence, recording every **submitted** job
  (key and payload), the **completed** jobs (with their results, when no
  artifact store holds them), the **failed** jobs (with their terminal
  errors), and the campaign's RNG provenance.  A campaign SIGKILLed
  mid-run resumes from the manifest alone and re-runs exactly the
  missing jobs, seed for seed.
* :class:`GracefulShutdown` — a SIGINT/SIGTERM drain handler: the first
  signal stops new submissions and lets in-flight trials finish (bounded
  by the driver's per-trial timeout and chunk size); the second signal
  hard-terminates.  Drivers surface the drain as
  :class:`CampaignDrained` and the CLI exits with
  :data:`DRAIN_EXIT_CODE` so wrappers can distinguish "interrupted but
  resumable" from failure.
* :func:`run_jobs` — the one execution loop behind
  :func:`repro.store.execute_batch`, which runs every spec campaign —
  grids, sweeps, Theorem 1 portfolios, ``repro batch``: key dedupe, the
  pool, the ok/cancelled/failed triage, manifest checkpointing and the
  drain.
  Store-less drivers keep their results in the manifest; with an
  artifact store the store is the source of truth and the manifest
  tracks membership and progress.

The manifest write discipline matches the store's: serialize to a
temporary file, fsync, ``os.replace`` — a crash leaves either the old
checkpoint or the new one, never a torn one.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from .pool import CANCELLED, OK, TrialOutcome, TrialPool

__all__ = [
    "CampaignDrained",
    "CampaignManifest",
    "DRAIN_EXIT_CODE",
    "GracefulShutdown",
    "MANIFEST_SCHEMA_VERSION",
    "MAX_FAILURE_CHARS",
    "job_key",
    "run_jobs",
    "truncate_error",
    "validate_checkpoint_every",
]

#: Version of the manifest layout; loaders refuse versions they do not
#: know rather than resume from a misread checkpoint.
MANIFEST_SCHEMA_VERSION = 1

#: Process exit code for a campaign that drained cleanly after a
#: shutdown signal (EX_TEMPFAIL: re-run with ``--resume`` to finish).
DRAIN_EXIT_CODE = 75

#: Stored failure strings are capped at this many characters: a job that
#: fails with a multi-kilobyte traceback on every retry must not grow
#: the checkpoint without bound (the manifest is rewritten whole on
#: every save).
MAX_FAILURE_CHARS = 2000


def truncate_error(error: Any, limit: int = MAX_FAILURE_CHARS) -> str:
    """Cap an error string at ``limit`` characters, marking the cut."""
    text = str(error)
    if len(text) <= limit:
        return text
    marker = f" ... [truncated {len(text) - limit} chars]"
    return text[:limit] + marker


def validate_checkpoint_every(value: Any) -> int:
    """``checkpoint_every`` as a positive int, or a clear error.

    A zero or negative cadence used to be silently clamped; since a
    caller passing one almost certainly expected "never checkpoint" or
    made a sign mistake, it is now rejected outright.
    """
    from ..sim.errors import ConfigurationError

    try:
        cadence = int(value)
        if cadence != float(value):  # reject silent 2.5 -> 2 truncation
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"checkpoint_every must be a positive integer, got {value!r}"
        ) from None
    if cadence < 1:
        raise ConfigurationError(
            f"checkpoint_every must be >= 1, got {cadence}: a "
            f"non-positive cadence would never write the checkpoint"
        )
    return cadence


def job_key(payload: Any) -> str:
    """Canonical JSON identity of one job's parameters.

    Order- and representation-independent, so a job submitted before a
    crash and its re-submission after resume key identically.
    """
    return json.dumps(payload, sort_keys=True, default=str)


class CampaignDrained(RuntimeError):
    """A campaign stopped early on a shutdown request, checkpoint saved.

    ``manifest`` is the saved :class:`CampaignManifest`; ``completed``
    and ``remaining`` count jobs.  Not an error in the usual sense — the
    checkpoint is consistent and ``--resume`` finishes the campaign —
    but the normal return contract (one result per job) cannot be met,
    so drivers raise instead of returning partial lists silently.
    """

    def __init__(self, manifest: "CampaignManifest") -> None:
        self.manifest = manifest
        self.completed = len(manifest.completed)
        self.remaining = len(manifest.missing_keys())
        super().__init__(
            f"campaign drained after shutdown request: "
            f"{self.completed} job(s) checkpointed, {self.remaining} "
            f"remaining; resume from {manifest.path!r}"
        )


class CampaignManifest:
    """Atomically-replaced JSON checkpoint of a campaign's progress.

    State:

    * ``meta`` — driver name, parameters, and RNG provenance (seed
      lists / base seeds), recorded once at creation;
    * ``submitted`` — key → job payload for every job the campaign
      owns (payloads are JSON-native, so a resume can rebuild the job
      list from the manifest alone);
    * ``completed`` — key → result payload (``None`` when an artifact
      store holds the record; the JSON-encoded result otherwise);
    * ``failed`` — key → terminal error string, capped at
      :data:`MAX_FAILURE_CHARS` so retry loops cannot grow the
      checkpoint without bound.  Failed jobs stay *missing*: a resume
      retries exactly them.
    * ``attempts`` — key → how many times the job has been tried and
      failed.  Survives resume, so re-issue budgets (the fleet layer's
      poison-job cap) count attempts across process lifetimes, not per
      run.  A completion keeps the count as provenance.

    ``checkpoint_every`` sets the save cadence: :meth:`maybe_save`
    persists once at least that many completions accumulated since the
    last write (and :meth:`save` always persists).  Zero or negative
    cadences are rejected (:func:`validate_checkpoint_every`).
    """

    def __init__(self, path: str, meta: Optional[Dict[str, Any]] = None,
                 checkpoint_every: int = 1) -> None:
        self.path = str(path)
        self.meta: Dict[str, Any] = dict(meta or {})
        self.checkpoint_every = validate_checkpoint_every(checkpoint_every)
        self.submitted: Dict[str, Any] = {}
        self.completed: Dict[str, Any] = {}
        self.failed: Dict[str, str] = {}
        self.attempts: Dict[str, int] = {}
        self.drained = False
        self._unsaved = 0

    # -- persistence ------------------------------------------------------#

    @classmethod
    def load(cls, path: str) -> "CampaignManifest":
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        schema = payload.get("schema")
        if schema != MANIFEST_SCHEMA_VERSION:
            from ..sim.errors import ConfigurationError

            raise ConfigurationError(
                f"manifest {path!r} has schema version {schema!r}; this "
                f"build reads version {MANIFEST_SCHEMA_VERSION}"
            )
        manifest = cls(path, meta=payload.get("meta") or {})
        manifest.submitted = dict(payload.get("submitted") or {})
        manifest.completed = dict(payload.get("completed") or {})
        manifest.failed = dict(payload.get("failed") or {})
        manifest.attempts = {
            key: int(count)
            for key, count in (payload.get("attempts") or {}).items()
        }
        manifest.drained = bool(payload.get("drained", False))
        return manifest

    @classmethod
    def ensure(cls, manifest: Any,
               meta: Optional[Dict[str, Any]] = None,
               checkpoint_every: int = 1) -> "CampaignManifest":
        """Coerce ``manifest`` (instance or path) to an instance.

        A path whose file exists loads (resume); a fresh path creates a
        new manifest stamped with ``meta``.  ``meta`` from the caller is
        only applied to fresh manifests — a resumed campaign keeps its
        original provenance.
        """
        if isinstance(manifest, CampaignManifest):
            manifest.checkpoint_every = validate_checkpoint_every(
                checkpoint_every)
            return manifest
        path = str(manifest)
        if os.path.exists(path):
            loaded = cls.load(path)
            loaded.checkpoint_every = validate_checkpoint_every(
                checkpoint_every)
            return loaded
        return cls(path, meta=meta, checkpoint_every=checkpoint_every)

    def save(self) -> None:
        """Persist atomically (fsynced tmp file + rename)."""
        from ..store import atomic_replace_json

        atomic_replace_json(self.path, {
            "schema": MANIFEST_SCHEMA_VERSION,
            "meta": self.meta,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "attempts": self.attempts,
            "drained": self.drained,
        })
        self._unsaved = 0

    def maybe_save(self, force: bool = False) -> bool:
        if force or self._unsaved >= self.checkpoint_every:
            self.save()
            return True
        return False

    # -- progress ---------------------------------------------------------#

    def submit(self, key: str, payload: Any = None) -> None:
        self.submitted.setdefault(key, payload)

    def complete(self, key: str, result: Any = None) -> None:
        self.completed[key] = result
        self.failed.pop(key, None)
        self._unsaved += 1

    def fail(self, key: str, error: str,
             attempts: Optional[int] = None) -> None:
        """Record a failed try: capped error text, attempt count bumped.

        ``attempts`` overrides the count (for callers that track it
        themselves, like the fleet's on-disk attempt files); by default
        each ``fail`` is one more attempt, so budgets survive resume.
        """
        self.failed[key] = truncate_error(error)
        if attempts is None:
            self.attempts[key] = self.attempts.get(key, 0) + 1
        else:
            self.attempts[key] = max(
                self.attempts.get(key, 0), int(attempts))
        self._unsaved += 1

    def missing_keys(self) -> List[str]:
        """Submitted jobs with no completion — exactly the resume set."""
        return [key for key in self.submitted if key not in self.completed]

    def summary(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "submitted": len(self.submitted),
            "completed": len(self.completed),
            "failed": len(self.failed),
            "missing": len(self.missing_keys()),
            "attempts": sum(self.attempts.values()),
            "drained": self.drained,
        }


class GracefulShutdown:
    """SIGINT/SIGTERM drain handler for long campaigns.

    Used as a context manager around a campaign, and passed to drivers
    as their ``shutdown`` (it is callable, so it plugs directly into the
    pool's ``stop_check``).  First signal: set the drain flag — drivers
    stop submitting, wait (bounded) for in-flight trials, flush their
    stores, write their manifests, and raise :class:`CampaignDrained`.
    Second signal: raise ``KeyboardInterrupt`` from the handler — a hard
    stop that unwinds immediately (the ``TrialPool`` context manager
    terminates its workers on the way out).

    Outside the main thread (or under a harness that owns the signal
    disposition) installation fails silently and the instance degrades
    to an inert flag the owner may set by hand.
    """

    def __init__(self, signals: Sequence[int] = (signal.SIGINT,
                                                 signal.SIGTERM),
                 verbose: bool = True) -> None:
        self.signals = tuple(signals)
        self.verbose = verbose
        self.requested = False
        self.signal_count = 0
        self._previous: Dict[int, Any] = {}

    def __call__(self) -> bool:
        return self.requested

    def __bool__(self) -> bool:
        return self.requested

    def _handle(self, signum: int, frame: Any) -> None:
        self.signal_count += 1
        self.requested = True
        if self.signal_count >= 2:
            raise KeyboardInterrupt(
                f"second shutdown signal ({signum}); hard stop"
            )
        if self.verbose:
            print(
                "shutdown requested: draining in-flight trials and "
                "writing the checkpoint (signal again to hard-stop)",
                file=sys.stderr,
            )

    def __enter__(self) -> "GracefulShutdown":
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - non-main
                pass
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - non-main
                pass
        self._previous.clear()


def run_jobs(
    fn: Callable[[Any], Any],
    jobs: Iterable[Any],
    *,
    keys: Optional[Sequence[str]] = None,
    processes: int = 1,
    trial_timeout: Optional[float] = None,
    retries: int = 0,
    manifest: Any = None,
    meta: Optional[Dict[str, Any]] = None,
    checkpoint_every: int = 8,
    shutdown: Optional[Callable[[], bool]] = None,
    store: Any = None,
    sink: Optional[Callable[[int, Any], Any]] = None,
) -> List[TrialOutcome]:
    """Run ``fn`` over ``jobs``; one :class:`TrialOutcome` per job.

    The one execution loop behind ``execute_batch``, and so behind every
    spec campaign: it builds the jobs, picks a ``sink`` and shapes the
    outcomes; everything else is here.

    * ``keys`` name the jobs (default :func:`job_key` of each job).
      Jobs sharing a key execute once and share the outcome.
    * ``store`` is the caller's result cache (an artifact store —
      anything answering ``key in store``).  A hit runs
      nothing and comes back as an ok outcome with no value and
      ``attempts == 0``; the caller reads the result from its store.
    * ``trial_timeout``/``retries`` select the fault-tolerant
      :meth:`~repro.experiments.pool.TrialPool.map_outcomes`: a job
      that hangs, raises or kills its worker yields a non-ok outcome
      instead of aborting the run.  Otherwise the first job exception
      propagates (fail-fast ``map``).
    * ``sink(index, value)`` receives every freshly executed ok value,
      in job order, and returns what the manifest should record for it
      — ``None`` when the result lives in ``store``.  Without a sink the
      manifest records the value itself.
    * ``manifest`` (path or :class:`CampaignManifest`) checkpoints the
      run: every job is recorded as submitted, jobs execute in chunks
      of ``max(checkpoint_every, processes)``, and the manifest is
      atomically rewritten after each chunk.  Jobs the manifest (or
      ``store``) already completed never re-execute; failed jobs are
      recorded and stay missing, so the next run retries exactly them.
      Recorded and fresh results both come back in their JSON form, so
      resumed and uninterrupted runs return identical shapes.  Without a
      manifest the run is one pool call.
    * ``shutdown`` truthy between chunks (or mid-chunk, via the pool's
      ``stop_check``) drains: in-flight jobs finish, ``store`` is
      synced (when it has a ``sync()``), the checkpoint is written
      with ``drained=True`` and :class:`CampaignDrained` is raised.

    ``processes < 1``, ``retries < 0`` and ``trial_timeout <= 0`` are a
    :class:`~repro.sim.errors.ConfigurationError` before any job runs.
    """
    from ..sim.errors import ConfigurationError

    for name, value, valid, rule in (
        ("processes", processes, processes >= 1, ">= 1"),
        ("retries", retries, retries >= 0, ">= 0"),
        ("trial_timeout", trial_timeout,
         trial_timeout is None or trial_timeout > 0, "> 0 seconds"),
    ):
        if not valid:
            raise ConfigurationError(f"{name} must be {rule}, got {value!r}")
    jobs = list(jobs)
    keys = ([job_key(job) for job in jobs] if keys is None else list(keys))
    if shutdown is not None and manifest is None:
        raise ValueError(
            "a shutdown hook needs a manifest to checkpoint into: pass "
            "manifest= (a path or a CampaignManifest) along with shutdown="
        )
    if manifest is not None:
        manifest = CampaignManifest.ensure(
            manifest, meta=meta, checkpoint_every=checkpoint_every
        )
        manifest.drained = False
        for key, job in zip(keys, jobs):
            manifest.submit(key, job)

    def drain() -> None:
        if hasattr(store, "sync"):
            store.sync()
        manifest.drained = True
        manifest.save()
        raise CampaignDrained(manifest)

    by_key: Dict[str, TrialOutcome] = {}
    first: Dict[str, int] = {}  # key -> index of the job that runs it
    for index, key in enumerate(keys):
        if key in by_key or key in first:
            continue
        if store is not None:
            done, value = key in store, None
            if done and manifest is not None:
                # Back-fill results that reached the store before a
                # crash could checkpoint them.
                manifest.complete(key)
        else:
            done = manifest is not None and key in manifest.completed
            value = manifest.completed[key] if done else None
        if done:
            by_key[key] = TrialOutcome(index, OK, value=value, attempts=0)
        else:
            first[key] = index
    pending = list(first.values())

    tolerant = trial_timeout is not None or retries > 0
    chunk_size = (len(pending) if manifest is None
                  else max(manifest.checkpoint_every, processes))
    if pending:
        with TrialPool(processes) as pool:
            for start in range(0, len(pending), chunk_size):
                if shutdown is not None and shutdown():
                    drain()
                chunk = pending[start:start + chunk_size]
                chunk_jobs = [jobs[index] for index in chunk]
                if tolerant:
                    outcomes = pool.map_outcomes(
                        fn, chunk_jobs, timeout=trial_timeout,
                        retries=retries, stop_check=shutdown,
                    )
                else:
                    outcomes = [
                        TrialOutcome(index, OK, value=value)
                        for index, value in zip(
                            chunk, pool.map(fn, chunk_jobs))
                    ]
                cancelled = False
                for index, outcome in zip(chunk, outcomes):
                    outcome.index = index
                    key = keys[index]
                    by_key[key] = outcome
                    if outcome.ok:
                        payload = (outcome.value if sink is None
                                   else sink(index, outcome.value))
                        if manifest is not None:
                            manifest.complete(key, payload)
                            if payload is not None:
                                outcome.value = json.loads(
                                    json.dumps(payload, default=str))
                    elif outcome.status == CANCELLED:
                        cancelled = True
                    elif manifest is not None:
                        manifest.fail(key, outcome.error or "failed")
                if manifest is not None:
                    manifest.maybe_save()
                if cancelled:
                    drain()
    if manifest is not None:
        manifest.maybe_save(force=True)
        if shutdown is not None and shutdown():
            drain()
    return [by_key[key] for key in keys]
