"""``build(spec) -> Simulation`` / ``execute(spec) -> run`` — the one
place a declarative :class:`~repro.spec.runspec.RunSpec` becomes a live
execution.

Every entry point — ``repro.api.run_gossip``, ``repro.consensus.runner.
run_consensus``, grids, the sweep drivers, the CLI — is a
shim over this module.  The builder is written to be *seed-for-seed
bit-identical* to the historical entry points it absorbed: it constructs
the same crash plan, adversary, monitor, processes and simulation, with
the same arguments in the same order, so `tests/test_seed_regression.py`
pins the equivalence.

Live objects that cannot be serialized — observer instances, rumor
payloads, a hand-built adversary — are accepted as keyword overrides to
:func:`build` / :func:`execute`; everything else, algorithm parameters
included, is spec data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from .._util import ceil_log2
from ..adversary.crash_plans import CrashPlan, no_crashes, random_crashes
from ..core.base import make_processes
from ..core.properties import gathering_holds
from ..sim.engine import Simulation
from ..sim.errors import ConfigurationError
from ..sim.events import BitMeterObserver, Observer
from ..sim.monitor import GossipCompletionMonitor, PredicateMonitor
from ..sim.topology import build_topology
from .registry import (
    ADVERSARIES,
    BEN_OR,
    CRASH_PLANS,
    GATHERING_ONLY_ALGORITHMS,
    GOSSIP_ALGORITHMS,
    LOWER_BOUND,
    MAJORITY_ALGORITHMS,
    SCENARIOS,
    TRANSPORTS,
)
from .results import GossipRun
from .runspec import RunSpec

__all__ = [
    "BuiltRun",
    "build",
    "crash_plan_config",
    "default_step_limit",
    "execute",
    "resolve_crash_plan",
]


def default_step_limit(n: int, f: int, d: int, delta: int) -> int:
    """A generous ceiling: ~100× the slowest algorithm's expected completion.

    EARS completes in O((n/(n−f)) log² n (d+δ)) w.h.p.; the limit leaves two
    orders of magnitude of slack so a hit limit signals a real bug, not an
    unlucky seed.
    """
    scale = n / max(1, n - f)
    return int(max(10_000, 400 * scale * ceil_log2(n) ** 2 * (d + delta)))


# -- crash-plan resolution ------------------------------------------------- #

def resolve_crash_plan(
    crashes: Union[None, int, CrashPlan, Mapping[str, Any]],
    n: int,
    f: int,
    d: int,
    delta: int,
    seed: int,
) -> CrashPlan:
    """Resolve every crash-workload form to a concrete :class:`CrashPlan`.

    This is the single home of the defaulting logic that used to be
    copy-pasted between ``api.run_gossip`` and ``consensus.runner``:
    ``None`` means failure-free, an int means that many random early
    victims (horizon ``8·(d+δ)``), a :class:`CrashPlan` passes through,
    and a mapping is either an explicit ``{"events": ...}`` table or a
    registered factory ``{"name": ..., **knobs}``.  Whatever the form,
    the resolved plan must respect the failure bound ``f`` and name only
    pids in ``[0, n)``.
    """
    if crashes is None:
        plan = no_crashes()
    elif isinstance(crashes, CrashPlan):
        plan = crashes
    elif isinstance(crashes, Mapping):
        plan = _plan_from_config(crashes, n, f, d, delta, seed)
    else:
        plan = random_crashes(
            n, int(crashes), max(1, 8 * (d + delta)), seed=seed
        )
    if plan.total > f:
        raise ConfigurationError(
            f"crash plan kills {plan.total} > f={f} processes"
        )
    strangers = sorted(pid for pid in plan.victims if not 0 <= pid < n)
    if strangers:
        raise ConfigurationError(
            f"crash plan names pids {strangers} outside [0, n={n})")
    return plan


def _plan_from_config(
    config: Mapping[str, Any], n: int, f: int, d: int, delta: int, seed: int
) -> CrashPlan:
    knobs = dict(config)
    if "events" in knobs:
        events = knobs.pop("events")
        if knobs:
            raise ConfigurationError(
                f"explicit crash events take no extra knobs, got "
                f"{sorted(knobs)}"
            )
        return CrashPlan({int(t): set(pids) for t, pids in events.items()})
    name = knobs.pop("name", None)
    if name is None:
        raise ConfigurationError(
            "a crash config needs either 'events' or a registered 'name'"
        )
    factory = CRASH_PLANS[name]
    try:
        return factory(n, f, d, delta, seed, **knobs)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad knobs for crash plan {name!r}: {exc}"
        ) from None


def crash_plan_config(plan: CrashPlan) -> Dict[str, Any]:
    """The serializable spec form of an explicit plan (full fidelity)."""
    return {
        "events": {str(t): sorted(pids) for t, pids in plan.events()}
    }


# -- scenario / adversary resolution --------------------------------------- #

def _apply_scenario(spec: RunSpec):
    """(d, delta, crashes) after the named scenario, if any: its (d, δ)
    and, unless the spec sets ``crashes``, its crash-plan config."""
    if spec.scenario is None:
        return spec.d, spec.delta, spec.crashes
    scenario = SCENARIOS[spec.scenario]
    crashes = scenario["crashes"] if spec.crashes is None else spec.crashes
    return scenario["d"], scenario["delta"], crashes


def _make_adversary(config: Optional[Mapping[str, Any]], *coordinates):
    """The factory ``config`` names, called with its family's coordinates
    — ``(d, delta, seed, plan)``, ``lower-bound``'s ``(make_algorithm, n,
    f, seed)`` — and the config's own knobs."""
    if config is None:
        config = {"name": "uniform"}
    knobs = dict(config)
    name = knobs.pop("name", None)
    if name is None:
        raise ConfigurationError("an adversary config needs a 'name'")
    factory = ADVERSARIES[name]
    try:
        return factory(*coordinates, **knobs)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad knobs for adversary {name!r}: {exc}"
        ) from None


def _algorithm_kwargs(spec: RunSpec, algorithm_class: type,
                      f: int) -> Dict[str, Any]:
    """The constructor keywords ``spec.params`` stands for: the fields of
    the algorithm's parameter dataclass where it names one
    (``params_class``), the constructor's own keywords otherwise."""
    if not spec.params:
        return {}
    params_class = getattr(algorithm_class, "params_class", None)
    try:
        kwargs = (dict(spec.params) if params_class is None
                  else {"params": params_class(**spec.params)})
        # The constructors own the range checks, and Canetti–Rabin builds
        # its transport mid-run: construct one process now so that every
        # misfit fails here, by name.
        algorithm_class(0, spec.n, f, None, **kwargs)
    except (TypeError, ValueError, OverflowError,
            ConfigurationError) as exc:
        raise ConfigurationError(
            f"bad params for algorithm {spec.algorithm!r}: {exc}"
        ) from None
    return kwargs


# -- build ------------------------------------------------------------------#

@dataclass
class BuiltRun:
    """A spec realized into a ready-to-run simulation."""

    spec: RunSpec
    sim: Simulation
    max_steps: int
    monitor: Any
    #: Kind-specific resolved inputs needed to post-process the result
    #: (effective f, consensus initial values, ...).
    extras: Dict[str, Any] = field(default_factory=dict)

    def run(self):
        """Run to completion and return the kind-appropriate result."""
        if self.spec.kind == "gossip":
            return _finish_gossip(self)
        return _finish_consensus(self)


def build(
    spec: RunSpec,
    *,
    observers: Sequence[Observer] = (),
    payloads: Optional[Sequence[Any]] = None,
    adversary: Any = None,
) -> BuiltRun:
    """Realize ``spec`` into a :class:`BuiltRun` without running it."""
    if (spec.adversary or {}).get("name") == LOWER_BOUND:
        raise ConfigurationError(f"a {LOWER_BOUND!r} spec steers its own "
                                 f"Simulation; execute() it, not build()")
    if spec.kind == "gossip":
        return _build_gossip(spec, observers, payloads, adversary)
    if payloads is not None:
        raise ConfigurationError("payloads are a gossip-only input")
    return _build_consensus(spec, observers, adversary)


def execute(
    spec: RunSpec,
    *,
    observers: Sequence[Observer] = (),
    payloads: Optional[Sequence[Any]] = None,
    adversary: Any = None,
):
    """Build and run ``spec``; returns a :class:`GossipRun` or
    :class:`~repro.consensus.values.ConsensusRun` by kind (a
    ``lower-bound`` adversary spec: its ``LowerBoundReport``).

    ``engine="batch"`` routes eligible specs (EARS/SEARS under the
    oblivious uniform adversary, no runtime overrides) through the
    vectorized batch engine as a batch of one; everything else falls
    back to the scalar engines with results identical to
    ``engine="auto"``. This is the single choke point, so every layer
    above — store batch execution, resumable campaigns, grids, sweeps,
    the CLI — inherits the routing for free.
    """
    if (spec.adversary or {}).get("name") == LOWER_BOUND:
        return _execute_lower_bound(spec, observers=observers,
                                    payloads=payloads, adversary=adversary)
    if spec.engine == "batch" and not (
        observers or payloads is not None or adversary is not None
    ):
        from .vectorized import execute_batch_spec

        run = execute_batch_spec(spec)
        if run is not None:
            return run
    return build(
        spec, observers=observers, payloads=payloads, adversary=adversary,
    ).run()


#: The fields a lower-bound spec may set. The construction fixes
#: d = δ = 1 and its own crashes, so any other field or override would be
#: ignored, letting two spec hashes name one execution: it is refused.
#: ``engine`` is not identity; the adaptive adversary runs stepwise.
_LOWER_BOUND_FIELDS = ("algorithm", "n", "f", "seed", "params", "adversary",
                       "engine")


def _execute_lower_bound(spec: RunSpec, **overrides):
    """Run the Theorem 1 construction against ``spec.algorithm``."""
    ignored = [knob.name for knob in fields(spec)
               if knob.name not in _LOWER_BOUND_FIELDS
               and getattr(spec, knob.name) != knob.default]
    ignored += [name for name, value in overrides.items()
                if value not in (None, ())]
    if ignored:
        raise ConfigurationError(
            f"the {LOWER_BOUND!r} adversary plays gossip at d = delta = 1 "
            f"with crashes of its own choosing; it cannot honor {ignored}")
    algorithm_class = GOSSIP_ALGORITHMS[spec.algorithm]
    f = spec.resolved_f
    make_algorithm = partial(algorithm_class,
                             **_algorithm_kwargs(spec, algorithm_class, f))
    return _make_adversary(
        spec.adversary, make_algorithm, spec.n, f, spec.seed).execute()


def _scalar_engine(engine: str) -> str:
    """The scalar strategy realizing a spec's engine choice: ``"batch"``
    falls back to ``"auto"`` when a cell cannot be vectorized."""
    return "auto" if engine == "batch" else engine


def _with_invariants(spec: RunSpec, observers: Sequence[Observer]
                     ) -> Sequence[Observer]:
    """Append the kind's safety invariants when the spec asks for them."""
    if not spec.check_invariants:
        return observers
    from ..sim.invariants import default_invariants

    return tuple(observers) + tuple(default_invariants(spec.kind))


# -- gossip ---------------------------------------------------------------- #

def _build_gossip(spec, observers, payloads, adversary) -> BuiltRun:
    algorithm_class = GOSSIP_ALGORITHMS[spec.algorithm]
    n, seed = spec.n, spec.seed
    f = spec.resolved_f
    d, delta, crashes = _apply_scenario(spec)
    kwargs = _algorithm_kwargs(spec, algorithm_class, f)

    if adversary is None:
        plan = resolve_crash_plan(crashes, n, f, d, delta, seed)
        adversary = _make_adversary(spec.adversary, d, delta, seed, plan)

    majority = spec.majority
    if majority is None:
        majority = spec.algorithm in MAJORITY_ALGORITHMS

    monitor: Any
    if (spec.algorithm in GATHERING_ONLY_ALGORITHMS
            and kwargs.get("stop_after_steps") is None):
        # No stopping rule, so these never quiesce; completion =
        # gathering only. (The uniform baseline's stop_after_steps knob
        # restores quiescence and the standard monitor.)
        monitor = PredicateMonitor(
            lambda sim: gathering_holds(sim), name="gathering-only",
            state_driven=True,
        )
    else:
        monitor = GossipCompletionMonitor(majority=majority)

    topology = build_topology(spec.topology, n, seed)
    incompleteness = None
    if topology is not None and not topology.connected():
        # Rumors travel only along edges, so completing (every live
        # process gathering every live rumor) requires all live processes
        # to share one component — i.e. everything outside one component
        # must crash. When even the largest component leaves more
        # survivors-to-kill than the failure budget allows, no execution
        # can complete: run zero steps and report a structured reason
        # instead of grinding the never-true monitor to the step limit.
        if not majority and n - topology.largest_component_size() > f:
            incompleteness = "topology-disconnected"

    processes = make_processes(n, f, algorithm_class, payloads, **kwargs)
    observers = _with_invariants(spec, observers)
    if spec.measure_bits:
        from ..sim.bits import BitMeter

        observers = (*observers, BitMeterObserver(BitMeter(n)))
    sim = Simulation(
        n=n,
        f=f,
        algorithms=processes,
        adversary=adversary,
        monitor=monitor,
        seed=seed,
        observers=observers,
        engine=_scalar_engine(spec.engine),
        topology=topology,
    )
    limit = (
        spec.max_steps if spec.max_steps is not None
        else default_step_limit(n, f, d, delta)
    )
    extras: Dict[str, Any] = {"f": f}
    if incompleteness is not None:
        limit = 0
        extras["incomplete_reason"] = incompleteness
    return BuiltRun(
        spec=spec, sim=sim, max_steps=limit, monitor=monitor,
        extras=extras,
    )


def _finish_gossip(built: BuiltRun) -> GossipRun:
    spec, sim = built.spec, built.sim
    result = sim.run(max_steps=built.max_steps)
    gathering_time = getattr(built.monitor, "gathering_time", None)
    if gathering_time is None and result.completed:
        gathering_time = result.completion_time
    reason = result.reason
    if not result.completed and "incomplete_reason" in built.extras:
        reason = built.extras["incomplete_reason"]
    return GossipRun(
        algorithm=spec.algorithm,
        n=spec.n,
        f=built.extras["f"],
        completed=result.completed,
        reason=reason,
        completion_time=result.completion_time,
        gathering_time=gathering_time,
        messages=result.messages,
        messages_by_kind=dict(result.metrics["messages_by_kind"]),
        bits=result.metrics["bits_sent"],
        realized_d=result.metrics["realized_d"],
        realized_delta=result.metrics["realized_delta"],
        crashes=result.metrics["crashes"],
        result=result,
        sim=sim,
    )


# -- consensus ------------------------------------------------------------- #

def _build_consensus(spec, observers, adversary) -> BuiltRun:
    # Lazy: a gossip cell does not load the consensus package.
    from ..consensus.ben_or import BenOrConsensus
    from ..consensus.canetti_rabin import CanettiRabinConsensus
    from ..consensus.runner import default_values

    n, seed = spec.n, spec.seed
    f = spec.resolved_f
    if not 0 <= f < n / 2:
        raise ConfigurationError(
            f"consensus requires 0 <= f < n/2, got f={f}, n={n}"
        )
    values = (
        list(spec.values) if spec.values is not None else default_values(n)
    )
    if len(values) != n:
        raise ConfigurationError(
            f"expected {n} initial values, got {len(values)}"
        )
    d, delta, crashes = _apply_scenario(spec)

    plan = None
    if adversary is None:
        plan = resolve_crash_plan(crashes, n, f, d, delta, seed)

    if spec.algorithm == BEN_OR:
        knobs = _algorithm_kwargs(spec, BenOrConsensus, f)  # it has none
        algorithms = [
            BenOrConsensus(pid, n, f, values[pid], **knobs)
            for pid in range(n)
        ]
    else:
        transport = TRANSPORTS[spec.algorithm]
        factory = partial(transport, **_algorithm_kwargs(spec, transport, f))
        algorithms = [
            CanettiRabinConsensus(pid, n, f, values[pid], factory)
            for pid in range(n)
        ]

    if adversary is None:
        adversary = _make_adversary(spec.adversary, d, delta, seed, plan)
    monitor = PredicateMonitor(
        lambda sim: all(
            sim.algorithm(pid).decided is not None for pid in sim.alive_pids
        ),
        name="all-decided",
        state_driven=True,
    )
    observers = _with_invariants(spec, observers)
    sim = Simulation(
        n=n, f=f, algorithms=algorithms, adversary=adversary,
        monitor=monitor, seed=seed, observers=observers,
        engine=_scalar_engine(spec.engine),
    )
    limit = (
        spec.max_steps if spec.max_steps is not None
        else max(20_000, 600 * (d + delta) * n)
    )
    return BuiltRun(
        spec=spec, sim=sim, max_steps=limit, monitor=monitor,
        extras={"f": f, "values": list(values)},
    )


def _finish_consensus(built: BuiltRun):
    from ..consensus.properties import (
        agreement_holds,
        collect_decisions,
        termination_holds,
        validity_holds,
    )
    from ..consensus.values import ConsensusRun

    spec, sim = built.spec, built.sim
    result = sim.run(max_steps=built.max_steps)
    decisions = collect_decisions(sim)
    rounds = max(
        (sim.algorithm(pid).decided_round or 0 for pid in decisions),
        default=0,
    )
    return ConsensusRun(
        gossip=spec.algorithm,
        n=spec.n,
        f=built.extras["f"],
        completed=result.completed and termination_holds(sim, decisions),
        reason=result.reason,
        decision_time=result.completion_time,
        messages=result.messages,
        messages_by_kind=dict(result.metrics["messages_by_kind"]),
        decisions=decisions,
        rounds_used=rounds,
        agreement=agreement_holds(decisions),
        validity=validity_holds(decisions, built.extras["values"]),
        realized_d=result.metrics["realized_d"],
        realized_delta=result.metrics["realized_delta"],
        crashes=result.metrics["crashes"],
        sim=sim,
    )
