"""repro — a reproduction of "On the Complexity of Asynchronous Gossip"
(Georgiou, Gilbert, Guerraoui, Kowalski; PODC 2008).

The package provides:

* :mod:`repro.sim` — the paper's asynchronous system model as a
  deterministic discrete-step simulator with measured per-execution
  synchrony parameters (d, δ);
* :mod:`repro.adversary` — oblivious and adaptive adversaries, including
  the executable Theorem 1 lower-bound strategy;
* :mod:`repro.core` — the gossip algorithms: Trivial, EARS, SEARS, TEARS;
* :mod:`repro.sync` — synchronous baselines (the d = δ = 1 execution);
* :mod:`repro.consensus` — the Canetti–Rabin-based randomized consensus
  protocols built on each gossip algorithm (Section 6);
* :mod:`repro.analysis` — complexity bound formulas, scaling-exponent
  fits, and cost-of-asynchrony ratios;
* :mod:`repro.experiments` — the per-table/figure reproduction drivers;
* :mod:`repro.spec` — the declarative configuration plane: frozen
  :class:`~repro.spec.runspec.RunSpec` descriptions with canonical
  hashes, central registries, and the spec→simulation builder;
* :mod:`repro.store` — the provenance-stamped JSONL artifact store
  (a stored spec hash is a cache hit).

Quickstart::

    from repro import run_gossip
    result = run_gossip("ears", n=64, f=16, d=2, delta=2, seed=1)
    print(result.completion_time, result.messages)

or, declaratively::

    from repro import RunSpec, execute
    result = execute(RunSpec(algorithm="ears", n=64, f=16,
                             d=2, delta=2, seed=1))
"""

from ._util import lazy_exports

__version__ = "1.7.0"

# name -> defining submodule, imported on first use (see lazy_exports):
# ``import repro`` is what every ``repro.x.y`` import pays first.
_EXPORTS = {
    "GossipRun": "api",
    "run_gossip": "api",
    "run_consensus": "consensus",
    "Ears": "core",
    "Sears": "core",
    "Tears": "core",
    "TrivialGossip": "core",
    "UniformEpidemicGossip": "core",
    "RunResult": "sim",
    "Simulation": "sim",
    "RunSpec": "spec",
    "build": "spec",
    "execute": "spec",
}

__all__ = sorted([*_EXPORTS, "__version__"])

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
