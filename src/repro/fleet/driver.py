"""Spawning and shepherding a local fleet of worker processes.

The driver is *convenience*, not coordination: it creates the campaign
directory, forks N ``repro fleet join`` subprocesses, and waits.  Every
invariant the fleet relies on — leases, reaping, budgets, dedupe — lives
in the workers and the filesystem, so killing the driver (or any worker)
mid-run leaves a campaign any new worker can finish.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..sim.errors import ConfigurationError, SimulationError
from ..spec.runspec import RunSpec
from .layout import FleetCampaign, FleetConfig
from .leases import read_all_leases

__all__ = ["FleetTimeout", "LiveFleet", "run_fleet", "spawn_worker",
           "start_fleet"]


class FleetTimeout(SimulationError):
    """The fleet failed to drain the campaign within the wall budget."""


def _worker_env() -> Dict[str, str]:
    """Child env with this package importable regardless of cwd."""
    import repro

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn_worker(campaign: FleetCampaign, worker_id: str,
                 shard: Optional[str] = None,
                 max_jobs: Optional[int] = None) -> subprocess.Popen:
    """Fork one ``repro fleet join`` worker onto ``campaign``."""
    argv = [sys.executable, "-m", "repro", "fleet", "join",
            "--dir", campaign.root, "--worker-id", worker_id]
    if shard is not None:
        argv += ["--shard", shard]
    if max_jobs is not None:
        argv += ["--max-jobs", str(max_jobs)]
    return subprocess.Popen(argv, env=_worker_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


@dataclass
class LiveFleet:
    """A running fleet: the campaign plus its worker processes."""

    campaign: FleetCampaign
    procs: List[subprocess.Popen] = field(default_factory=list)

    def wait(self, timeout: float = 300.0) -> List[int]:
        """Wait for every worker to exit; kill-and-raise on overrun."""
        deadline = time.time() + timeout
        for proc in self.procs:
            remaining = deadline - time.time()
            if remaining <= 0 or _wait_quiet(proc, remaining) is None:
                for straggler in self.procs:
                    if straggler.poll() is None:
                        straggler.kill()
                for straggler in self.procs:
                    _wait_quiet(straggler, 10.0)
                raise FleetTimeout(
                    f"fleet did not drain within {timeout}s "
                    f"(status: {self.campaign.status()})"
                )
        return [proc.returncode for proc in self.procs]

    def kill_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            _wait_quiet(proc, 10.0)


def _wait_quiet(proc: subprocess.Popen,
                timeout: float) -> Optional[int]:
    try:
        return proc.wait(timeout=max(0.0, timeout))
    except subprocess.TimeoutExpired:
        return None


def start_fleet(root: str, specs: Optional[List[RunSpec]] = None,
                workers: int = 2, config: Optional[FleetConfig] = None,
                shard: bool = True,
                max_jobs: Optional[int] = None) -> LiveFleet:
    """Create/open the campaign at ``root`` and launch ``workers``
    subprocesses (sharded ``i/workers`` unless ``shard=False``)."""
    if workers < 1:
        raise ConfigurationError(f"need at least 1 worker, got {workers}")
    campaign = FleetCampaign.ensure(root, specs=specs, config=config)
    fleet = LiveFleet(campaign=campaign)
    for index in range(workers):
        fleet.procs.append(spawn_worker(
            campaign, worker_id=f"w{index}",
            shard=f"{index}/{workers}" if shard else None,
            max_jobs=max_jobs))
    return fleet


def run_fleet(root: str, specs: Optional[List[RunSpec]] = None,
              workers: int = 2, config: Optional[FleetConfig] = None,
              shard: bool = True,
              timeout: float = 300.0) -> Dict[str, Any]:
    """Blocking fleet run: spawn, drain, verify.

    Returns the final status dict plus worker exit codes and the store
    verify report.  Raises :class:`FleetTimeout` on livelock.
    """
    fleet = start_fleet(root, specs=specs, workers=workers,
                        config=config, shard=shard)
    try:
        exit_codes = fleet.wait(timeout=timeout)
    except BaseException:
        fleet.kill_all()
        raise
    campaign = fleet.campaign
    store = campaign.open_store()
    verify = store.verify()
    status = campaign.status(store=store)
    status["exit_codes"] = exit_codes
    status["verify_ok"] = bool(verify.get("ok"))
    status["verify"] = verify
    return status
