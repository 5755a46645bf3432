"""The declarative configuration plane: RunSpec, registries, builder."""

import gc
import json
import weakref

import pytest

from repro.adversary.adaptive import TargetedDelayAdversary
from repro.adversary.crash_plans import (
    CrashPlan,
    random_crashes,
    staggered_halving,
)
from repro.sim.errors import ConfigurationError, UnknownNameError
from repro.spec import (
    GOSSIP_ALGORITHMS,
    RunSpec,
    SPEC_SCHEMA_VERSION,
    TRANSPORTS,
    build,
    execute,
    resolve_crash_plan,
)
from repro.spec.registry import (
    ADVERSARIES,
    CRASH_PLANS,
    SCENARIOS,
)
from repro.store.base import metrics_of


# -- RunSpec serialization -------------------------------------------------- #

class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = RunSpec(
            kind="gossip", algorithm="sears", n=48, f=12, d=3, delta=2,
            seed=7, crashes=5, measure_bits=True,
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_round_trip_preserves_nested_fields(self):
        spec = RunSpec(
            kind="consensus", algorithm="ears", n=8, seed=1,
            values=(0, 1, 0, 1, 0, 1, 0, 1),
            crashes={"name": "wave", "at": 3, "count": 2},
            adversary=None,
        )
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.values == (0, 1, 0, 1, 0, 1, 0, 1)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = RunSpec(algorithm="tears", n=24, seed=9)
        spec.save(str(path))
        assert RunSpec.load(str(path)) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown RunSpec field"):
            RunSpec.from_dict({"algorithm": "ears", "fanout": 3})

    def test_future_schema_version_rejected(self):
        with pytest.raises(ConfigurationError, match="schema version"):
            RunSpec.from_dict({"schema": SPEC_SCHEMA_VERSION + 1,
                               "algorithm": "ears"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            RunSpec(kind="broadcast")

    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("d", 0), ("d", -3), ("delta", 0), ("delta", -1),
    ])
    def test_model_bounds_below_one_rejected(self, field, value):
        # The oblivious adversary would run d = δ = 1 under another hash.
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be >= 1, got {value}"):
            RunSpec(algorithm="ears", **{"n": 8, field: value})

    def test_scenario_and_adversary_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            RunSpec(scenario="calm", adversary={"name": "uniform"})


class TestHashStability:
    def test_hash_ignores_field_source_representation(self):
        a = RunSpec(kind="consensus", algorithm="ears", n=8, values=(0, 1))
        b = RunSpec.from_dict(
            {"kind": "consensus", "algorithm": "ears", "n": 8,
             "values": [0, 1]}
        )
        assert a.spec_hash == b.spec_hash

    def test_hash_unchanged_by_explicit_defaults(self):
        # Defaulted knobs are omitted from the canonical form, so writing
        # one out explicitly must not change the identity of the run.
        implicit = RunSpec(algorithm="ears", n=32)
        explicit = RunSpec(algorithm="ears", n=32, measure_bits=False,
                           check_invariants=False)
        assert implicit.spec_hash == explicit.spec_hash

    def test_hash_differs_across_seeds(self):
        assert (RunSpec(algorithm="ears", seed=0).spec_hash
                != RunSpec(algorithm="ears", seed=1).spec_hash)

    def test_pinned_example_hash(self):
        # The checked-in examples/spec_ears.json identity.  If this drifts,
        # every stored artifact silently stops being a cache hit — bump
        # SPEC_SCHEMA_VERSION instead of changing canonicalization.
        spec = RunSpec(kind="gossip", algorithm="ears", n=32, f=8, d=2,
                       delta=2, seed=0, crashes=4)
        assert spec.spec_hash == "4b533c0adb6065c5"

    def test_canonical_json_is_sorted_and_compact(self):
        spec = RunSpec(algorithm="ears", n=16)
        text = spec.canonical_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert ": " not in text

    def test_example_spec_file_matches_pin(self):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "spec_ears.json")
        assert RunSpec.load(path).spec_hash == "4b533c0adb6065c5"


class TestEngineKnob:
    def test_engine_never_enters_the_hash(self):
        # Engines are bit-identical by construction: the same run under a
        # different execution strategy must dedupe to the same artifact.
        spec = RunSpec(algorithm="ears", n=16, seed=3)
        for engine in ("auto", "stepwise", "leap"):
            assert spec.replace(engine=engine).spec_hash == spec.spec_hash
            assert "engine" not in json.loads(
                spec.replace(engine=engine).canonical_json()
            )

    def test_engine_round_trips_through_serialization(self):
        spec = RunSpec(algorithm="ears", n=16, engine="stepwise")
        assert spec.to_dict()["engine"] == "stepwise"
        assert RunSpec.from_dict(spec.to_dict()) == spec
        # The default is omitted, keeping old spec files readable.
        assert "engine" not in RunSpec(algorithm="ears", n=16).to_dict()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            RunSpec(algorithm="ears", engine="warp")


# -- registries ------------------------------------------------------------- #

class TestRegistries:
    def test_registries_are_mappings(self):
        assert "ears" in GOSSIP_ALGORITHMS
        assert sorted(TRANSPORTS) == ["all-to-all", "ears", "sears", "tears"]
        assert set(ADVERSARIES) == {
            "uniform", "synchronous", "gst", "lower-bound"}
        assert "random-early" in CRASH_PLANS

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(UnknownNameError, match="did you mean 'ears'"):
            GOSSIP_ALGORITHMS["earz"]

    def test_unknown_name_is_both_key_and_configuration_error(self):
        with pytest.raises(KeyError):
            TRANSPORTS["nope"]
        with pytest.raises(ConfigurationError):
            TRANSPORTS["nope"]

    def test_transports_do_not_suggest_ben_or(self):
        # 'ben-or' is a consensus protocol, not a gossip transport; the
        # old error message wrongly listed it among the choices.
        with pytest.raises(UnknownNameError) as err:
            TRANSPORTS["ben-or"]
        assert "ben-or" not in str(err.value).split("choose from")[1]

    def test_scenarios_register_centrally(self):
        # One table, no import-time registration: a scenario is a row of
        # (d, delta, crash-plan config) and nothing else keeps a copy.
        import repro.workloads

        assert SCENARIOS["flaky"] == {
            "d": 2, "delta": 2,
            "crashes": {"name": "random-early", "horizon": 16},
            "description": "mild asynchrony plus f random early crashes",
        }
        assert not hasattr(repro.workloads, "SCENARIOS")


# -- a scenario is spec data ------------------------------------------------ #

class TestScenarioIsSpec:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_equals_its_explicit_spec(self, name, seed):
        row = SCENARIOS[name]
        named = RunSpec(algorithm="ears", n=32, f=8, seed=seed,
                        scenario=name)
        explicit = RunSpec(algorithm="ears", n=32, f=8, seed=seed,
                           d=row["d"], delta=row["delta"],
                           crashes=row["crashes"])
        assert metrics_of(execute(named)) == metrics_of(execute(explicit))

    def test_consensus_scenario_equals_its_explicit_spec(self):
        row = SCENARIOS["failure-wave"]
        named = RunSpec(kind="consensus", algorithm="ears", n=16, f=4,
                        seed=2, scenario="failure-wave")
        explicit = RunSpec(kind="consensus", algorithm="ears", n=16, f=4,
                           seed=2, d=row["d"], delta=row["delta"],
                           crashes=row["crashes"])
        assert metrics_of(execute(named)) == metrics_of(execute(explicit))

    @pytest.mark.parametrize("name, events", [
        # The plans the scenario catalogue's own crash factories drew
        # before scenarios became configs (n=16, f=4, seed=1).
        ("calm", []),
        ("flaky", [(7, [6]), (10, [1, 15]), (14, [7])]),
        ("failure-wave", [(4, [1, 3, 5, 14])]),
        ("halving-epochs", [(0, [0, 1]), (24, [8]), (48, [10])]),
    ])
    def test_scenario_crash_plan_is_pinned(self, name, events):
        row = SCENARIOS[name]
        plan = resolve_crash_plan(row["crashes"], 16, 4, row["d"],
                                  row["delta"], seed=1)
        assert [(t, sorted(pids)) for t, pids in plan.events()] == events


# -- inputs out of range are refused by name -------------------------------- #

@pytest.mark.parametrize("make, match", [
    (lambda: RunSpec(n=8, f=-1), "f must be in"),
    (lambda: RunSpec(n=8, f=8), "f must be in"),
    (lambda: RunSpec(n=8, f=2, crashes=-2), "crashes must be >= 0"),
    (lambda: RunSpec(max_steps=0), "max_steps must be >= 1"),
    (lambda: RunSpec(max_steps=-5), "max_steps must be >= 1"),
    (lambda: resolve_crash_plan({"events": {"2": [99]}}, 16, 4, 1, 1, 0),
     "outside"),
    (lambda: CrashPlan({-3: {1}}), "negative crash times"),
    (lambda: random_crashes(8, -1, 4), "cannot crash -1"),
    (lambda: staggered_halving(16, 4, epoch_length=0),
     "epoch_length must be >= 1"),
    # Removed (the paper's adversary is crash-only), and with no
    # neighbour to suggest: the message ends at the list of choices.
    (lambda: build(RunSpec(adversary={"name": "byzantine"})),
     r"^unknown adversary 'byzantine'; choose from "
     r"\['gst', 'lower-bound', 'synchronous', 'uniform'\]$"),
], ids=["f-negative", "f-equals-n", "crashes-negative", "max-steps-zero",
        "max-steps-negative", "pid-outside-n", "negative-time",
        "count-negative", "epoch-length-zero", "byzantine-adversary"])
def test_out_of_range_inputs_are_refused(make, match):
    with pytest.raises(ConfigurationError, match=match):
        make()


# -- builder ---------------------------------------------------------------- #

class TestBuilder:
    def test_build_returns_runnable_simulation(self):
        built = build(RunSpec(algorithm="ears", n=16, f=4, seed=0))
        assert built.sim.n == 16
        run = built.run()
        assert run.completed

    def test_unknown_algorithm_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="ears"):
            execute(RunSpec(algorithm="earz", n=8))

    @pytest.mark.parametrize("adversary", [
        None,
        {"name": "gst", "gst": 10, "pre_gst_delta": 4},
        lambda: TargetedDelayAdversary(victims={0, 1}, d=3),
    ], ids=["oblivious", "gst", "adaptive"])
    def test_a_finished_run_is_freed_without_the_cycle_collector(
            self, adversary):
        """``sim.adversary.sim`` is a weak reference, so an un-instrumented
        simulation is no cycle: dropping the run frees it at once."""
        spec = RunSpec(algorithm="sears", n=16, f=4, crashes=2, d=2,
                       delta=2, seed=1)
        if callable(adversary):
            def kwargs():
                return {"adversary": adversary()}
        else:
            spec = spec.replace(adversary=adversary)
            kwargs = dict
        built = build(spec, **kwargs())
        assert built.sim.adversary.sim is built.sim
        assert "sim" not in vars(built.sim.adversary)
        del built
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(execute(spec, **kwargs()).sim)
            assert ref() is None
        finally:
            gc.enable()

    def test_scenario_supplies_regime_and_crashes(self):
        run = execute(RunSpec(algorithm="ears", n=16, f=4, seed=2,
                              scenario="flaky"))
        assert run.completed
        assert run.crashes == 4

    def test_explicit_crashes_override_scenario_plan(self):
        run = execute(RunSpec(algorithm="ears", n=16, f=4, seed=2,
                              scenario="flaky", crashes=0))
        assert run.crashes == 0

    def test_named_adversary(self):
        run = execute(RunSpec(algorithm="ears", n=16, f=4, d=2, delta=2,
                              seed=2,
                              adversary={"name": "gst", "gst": 10,
                                         "pre_gst_delta": 4}))
        assert run.completed

    def test_named_crash_plan(self):
        run = execute(RunSpec(algorithm="ears", n=16, f=4, d=2, delta=2,
                              seed=0,
                              crashes={"name": "wave", "at": 3, "count": 4}))
        assert run.crashes == 4

    def test_explicit_event_table_crash_plan(self):
        run = execute(RunSpec(algorithm="ears", n=16, f=4, seed=0,
                              crashes={"events": {"2": [0, 1]}}))
        assert run.crashes == 2

    def test_crash_budget_enforced(self):
        with pytest.raises(ConfigurationError, match="crash plan kills"):
            execute(RunSpec(algorithm="ears", n=16, f=1, seed=0, crashes=3))

    def test_consensus_spec_runs(self):
        run = execute(RunSpec(kind="consensus", algorithm="tears", n=8,
                              f=2, seed=0))
        assert run.completed and run.agreement and run.validity


# -- algorithm knobs -------------------------------------------------------- #

def _transport_knob(name):
    """Read a knob off the gossip instance a CR process's factory makes."""
    def read(consensus):
        gossip = consensus.gossip_factory(pid=0, n=8, f=3,
                                          rumor_payload=None)
        return getattr(gossip.params, name)
    return read


#: (kind, algorithm) -> (one valid knob, its value, how process 0 shows
#: it, what it shows), or None for an algorithm that takes no knobs.
KNOBS = {
    ("gossip", "ears"): ("shutdown_constant", 4.0,
                         lambda a: a.params.shutdown_constant, 4.0),
    ("gossip", "sears"): ("eps", 0.25, lambda a: a.params.eps, 0.25),
    ("gossip", "tears"): ("c_a", 1.0, lambda a: a.params.c_a, 1.0),
    ("gossip", "uniform"): ("stop_after_steps", 20,
                            lambda a: a.stop_after_steps, 20),
    ("gossip", "sparse"): ("budget", 3, lambda a: a.budget, 3),
    ("gossip", "adaptive-fanout"): ("quiet_threshold", 5,
                                    lambda a: a.quiet_threshold, 5),
    # n = 8, f = 0: ceil(4 · n/(n−f) · ln n) = 9 shut-down sends
    ("gossip", "push-pull"): ("shutdown_constant", 4.0,
                              lambda a: a.shutdown_sends, 9),
    ("gossip", "trivial"): None,
    ("gossip", "ps-push-pull"): None,
    ("consensus", "ears"): ("shutdown_constant", 4.0,
                            _transport_knob("shutdown_constant"), 4.0),
    ("consensus", "sears"): ("eps", 0.25, _transport_knob("eps"), 0.25),
    ("consensus", "tears"): ("c_kappa", 2.0, _transport_knob("c_kappa"),
                             2.0),
    ("consensus", "all-to-all"): None,
    ("consensus", "ben-or"): None,
}


class TestParams:
    def test_table_covers_every_registered_algorithm(self):
        assert set(KNOBS) == (
            {("gossip", name) for name in GOSSIP_ALGORITHMS}
            | {("consensus", name) for name in [*TRANSPORTS, "ben-or"]}
        )

    @pytest.mark.parametrize("kind, algorithm", sorted(KNOBS))
    def test_valid_knob_reaches_the_algorithm_misspelt_is_named(
            self, kind, algorithm):
        spec = RunSpec(kind=kind, algorithm=algorithm, n=8, seed=0)
        build(spec)  # no params
        knob, value, read, shown = (KNOBS[(kind, algorithm)]
                                    or ("knob", 1, None, None))
        if read is not None:
            built = build(spec.replace(params={knob: value}))
            assert read(built.sim.algorithm(0)) == shown
            knob += "z"
        with pytest.raises(ConfigurationError) as caught:
            build(spec.replace(params={knob: value}))
        assert repr(algorithm) in str(caught.value)
        assert repr(knob) in str(caught.value)

    def test_out_of_range_value_is_a_configuration_error(self):
        for algorithm, params in (("sears", {"eps": 2}),
                                  ("sparse", {"budget": 0})):
            with pytest.raises(ConfigurationError, match=algorithm):
                build(RunSpec(algorithm=algorithm, n=8, params=params))

    def test_same_gossip_run_three_ways(self):
        from repro import run_gossip
        from repro.core.params import SearsParams
        from repro.store import metrics_of

        spec = RunSpec(algorithm="sears", n=32, f=8, seed=3,
                       params={"eps": 0.25})
        again = RunSpec.from_json(spec.to_json())
        assert again.spec_hash == spec.spec_hash == spec.replace(
            params=SearsParams(eps=0.25)).spec_hash
        runs = [
            run_gossip("sears", n=32, f=8, seed=3,
                       params=SearsParams(eps=0.25)),
            execute(spec), execute(again),
        ]
        assert [metrics_of(run) for run in runs] == [metrics_of(runs[0])] * 3
        # pinned at the parent of the PR that made params spec data
        assert (runs[0].messages, runs[0].completion_time) == (1486, 7)

    @pytest.mark.parametrize("transport, params, messages, time", [
        ("tears", "scaled", 4722, 26),
        ("sears", {"eps": 0.25}, 2850, 35),
    ])
    def test_same_consensus_run_three_ways(self, transport, params,
                                           messages, time):
        from repro.consensus import run_consensus
        from repro.core.params import TearsParams
        from repro.store import metrics_of

        if params == "scaled":
            params = TearsParams.scaled(0.25)
        spec = RunSpec(kind="consensus", algorithm=transport, n=16, seed=3,
                       params=params)
        again = RunSpec.from_json(spec.to_json())
        assert again.spec_hash == spec.spec_hash
        runs = [run_consensus(transport, n=16, seed=3, params=params),
                execute(spec), execute(again)]
        assert [metrics_of(run) for run in runs] == [metrics_of(runs[0])] * 3
        assert (runs[0].messages, runs[0].decision_time) == (messages, time)

    def test_completion_monitor_follows_the_knob_not_the_type(self):
        base = RunSpec(algorithm="uniform", n=16, seed=1)
        bare, empty = execute(base), execute(base.replace(params={}))
        assert base.spec_hash != base.replace(params={}).spec_hash
        assert (empty.completed, empty.completion_time, empty.messages) \
            == (bare.completed, bare.completion_time, bare.messages) \
            == (True, 10, 160)
        assert not empty.sim.algorithm(0).is_quiescent()  # by gathering
        stopping = execute(base.replace(params={"stop_after_steps": 20}))
        assert stopping.completed and stopping.completion_time == 21
        assert all(stopping.sim.algorithm(pid).is_quiescent()
                   for pid in stopping.sim.alive_pids)
