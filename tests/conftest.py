"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib
import os
import sys

import pytest

from repro.adversary.oblivious import ObliviousAdversary
from repro.core.base import make_processes
from repro.sim.engine import Simulation
from repro.sim.monitor import GossipCompletionMonitor

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BENCHMARKS = os.path.join(ROOT, "benchmarks")
EXAMPLES = os.path.join(ROOT, "examples")


def import_benchmark(name, directory=BENCHMARKS):
    """Import ``<directory>/<name>.py`` (``benchmarks/`` by default).
    Neither scripts directory is a package: a bench finds ``_harness`` as
    a sibling, so the directory goes on the path."""
    if directory not in sys.path:
        sys.path.insert(0, directory)
    return importlib.import_module(name)


def build_gossip_sim(
    algorithm_class,
    n=16,
    f=4,
    d=1,
    delta=1,
    seed=0,
    crashes=None,
    majority=False,
    **algorithm_kwargs,
):
    """Construct a ready-to-run gossip simulation with a uniform adversary."""
    adversary = ObliviousAdversary.uniform(d, delta, seed=seed, crashes=crashes)
    processes = make_processes(n, f, algorithm_class, **algorithm_kwargs)
    return Simulation(
        n=n,
        f=f,
        algorithms=processes,
        adversary=adversary,
        monitor=GossipCompletionMonitor(majority=majority),
        seed=seed,
    )


@pytest.fixture
def gossip_sim_factory():
    return build_gossip_sim
