"""Differential tests: the time-leap engine vs. the stepwise reference.

The tentpole guarantee of the leap engine is that it is seed-for-seed
bit-identical to stepwise execution — same RunResult, same metrics
snapshot (realized d/δ included), same RNG consumption, same observer
event stream — across every registered gossip algorithm, schedule plan,
crash plan and adversary family, including mid-run fork/restore. These
tests enforce that by running every configuration under both engines and
comparing everything observable.
"""

import pytest

from repro.adversary.adaptive import (
    CrashEagerSendersAdversary,
    TargetedDelayAdversary,
)
from repro.adversary.crash_plans import crash_at, wave_crashes
from repro.adversary.delay_plans import HashDelay
from repro.adversary.oblivious import ObliviousAdversary
from repro.sim.engine import ENGINES, Simulation
from repro.sim.errors import ConfigurationError
from repro.sim.events import Observer
from repro.sim.scheduler import (
    ExplicitSchedule,
    RoundRobinWindows,
    StaggeredWindows,
    SubsetEveryStep,
)
from repro.spec.builder import execute
from repro.spec.registry import GOSSIP_ALGORITHMS
from repro.spec.runspec import RunSpec

ALGORITHMS = sorted(GOSSIP_ALGORITHMS)


def assert_equivalent(a, b):
    """Everything observable about two finished gossip runs must match."""
    assert a.completed == b.completed
    assert a.reason == b.reason
    assert a.completion_time == b.completion_time
    assert a.gathering_time == b.gathering_time
    assert a.messages == b.messages
    assert a.realized_d == b.realized_d
    assert a.realized_delta == b.realized_delta
    assert a.result.steps == b.result.steps
    assert a.result.metrics == b.result.metrics
    # Same RNG consumption: every process's private stream must sit at
    # exactly the same state after the run.
    for pid in a.sim.processes:
        assert (
            a.sim.processes[pid].ctx.rng.getstate()
            == b.sim.processes[pid].ctx.rng.getstate()
        ), f"pid {pid} consumed different randomness"


def run_pair(spec, adversary_factory=None):
    runs = {}
    for engine in ("stepwise", "leap"):
        overrides = {}
        if adversary_factory is not None:
            overrides["adversary"] = adversary_factory()
        runs[engine] = execute(spec.replace(engine=engine), **overrides)
    assert_equivalent(runs["stepwise"], runs["leap"])
    return runs["leap"]


SPEC_CELLS = [
    pytest.param(dict(d=1, delta=1), id="synchronous"),
    pytest.param(dict(d=2, delta=7), id="round-robin-d2"),
    pytest.param(dict(d=3, delta=16), id="sparse-delta16"),
    pytest.param(dict(d=2, delta=5, f=4, crashes=4), id="random-crashes"),
    pytest.param(
        dict(d=2, delta=7, f=4, crashes={"name": "wave", "count": 3, "at": 5}),
        id="wave-crashes",
    ),
    pytest.param(
        dict(d=2, delta=4, f=5, crashes={"name": "staggered-halving"}),
        id="staggered-halving",
    ),
    pytest.param(
        dict(d=2, delta=3, adversary={"name": "gst", "gst": 37}),
        id="gst",
    ),
    pytest.param(
        dict(d=2, delta=3, f=4, crashes=3,
             adversary={"name": "gst", "gst": 29, "pre_gst_delta": 40}),
        id="gst-crashes",
    ),
]


class TestSpecMatrix:
    """All registered algorithms × adversary/crash cells, both engines."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("cell", SPEC_CELLS)
    def test_bit_identical(self, algorithm, cell):
        spec = RunSpec(
            kind="gossip", algorithm=algorithm, n=12, seed=5, **cell
        )
        run_pair(spec)

    def test_consensus_kind(self):
        for engine in ("stepwise", "leap"):
            spec = RunSpec(
                kind="consensus", algorithm="ears", n=9, f=2, d=2, delta=5,
                seed=1, engine=engine,
            )
            run = execute(spec)
            assert run.completed and run.agreement
            if engine == "stepwise":
                reference = run
        assert reference.decision_time == run.decision_time
        assert reference.messages == run.messages
        assert reference.decisions == run.decisions
        assert reference.realized_delta == run.realized_delta


PLAN_FACTORIES = [
    pytest.param(lambda: StaggeredWindows(5, seed=2), id="staggered"),
    pytest.param(
        lambda: ExplicitSchedule(
            [set(), set(), {0, 1, 2}, set(), set(), set(), {3, 4, 5},
             set(), {6, 7, 8, 9, 10, 11}] + [set()] * 20,
            target_delta=40,
        ),
        id="explicit-sparse",
    ),
    pytest.param(lambda: RoundRobinWindows(31), id="rrw-gt-useful"),
]


class TestPlanMatrix:
    """Plans only reachable by hand-built adversaries."""

    @pytest.mark.parametrize("make_plan", PLAN_FACTORIES)
    @pytest.mark.parametrize("crashes", [None, {3: [1], 11: [4, 7]}],
                             ids=["failure-free", "crashes"])
    def test_bit_identical(self, make_plan, crashes):
        def factory():
            return ObliviousAdversary(
                schedule=make_plan(),
                delays=HashDelay(3, seed=8),
                crashes=crash_at(crashes) if crashes else None,
            )

        spec = RunSpec(kind="gossip", algorithm="ears", n=12, f=4, seed=7)
        run_pair(spec, adversary_factory=factory)

    def test_subset_starvation_step_limit(self):
        # SubsetEveryStep starves everyone outside the subset: the run
        # cannot complete and must hit the step limit identically (the
        # trailing-gap δ fold included).
        def factory():
            return ObliviousAdversary(
                schedule=SubsetEveryStep({0, 1, 2, 3}, target_delta=400),
                delays=HashDelay(2, seed=1),
            )

        spec = RunSpec(
            kind="gossip", algorithm="ears", n=12, f=0, seed=3, max_steps=300,
        )
        run = run_pair(spec, adversary_factory=factory)
        assert not run.completed
        assert run.reason in ("step-limit", "stalled")
        assert run.realized_delta >= 300  # the fold made starvation visible

    def test_near_total_crash_wave(self):
        # All but one process dead mid-run: the leap engine must stop
        # exactly where stepwise does.
        def factory():
            return ObliviousAdversary(
                schedule=RoundRobinWindows(6),
                crashes=wave_crashes(range(1, 12), at=9),
            )

        spec = RunSpec(
            kind="gossip", algorithm="ears", n=12, f=11, seed=2, max_steps=500,
        )
        run_pair(spec, adversary_factory=factory)


class TestAdaptiveFallback:
    """Adaptive adversaries return next_event_at=None: the leap loop must
    degrade to plain stepwise iteration, bit-identically."""

    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(lambda: TargetedDelayAdversary({1, 2}, d=4),
                         id="targeted-delay"),
            pytest.param(lambda: CrashEagerSendersAdversary(budget=3),
                         id="crash-eager"),
        ],
    )
    def test_bit_identical(self, factory):
        assert factory().next_event_at(0) is None
        spec = RunSpec(kind="gossip", algorithm="ears", n=12, f=4, seed=9)
        run_pair(spec, adversary_factory=factory)


class RecordingObserver(Observer):
    """Records the full event stream (step boundaries included)."""

    def __init__(self):
        self.events = []

    def on_step_begin(self, t):
        self.events.append(("begin", t))

    def on_step_end(self, t):
        self.events.append(("end", t))

    def on_schedule(self, t, pid):
        self.events.append(("schedule", t, pid))

    def on_crash(self, t, pid):
        self.events.append(("crash", t, pid))

    def on_complete(self, t):
        self.events.append(("complete", t))

    def clone(self):
        dup = RecordingObserver()
        dup.events = list(self.events)
        return dup


class TestObserverBackfill:
    @staticmethod
    def _streams(**cell):
        streams = {}
        for engine in ("stepwise", "leap"):
            observer = RecordingObserver()
            spec = RunSpec(
                kind="gossip", n=10, d=2, delta=13, engine=engine, **cell
            )
            execute(spec, observers=[observer])
            streams[engine] = observer.events
        return streams

    def test_step_stream_is_identical(self):
        streams = self._streams(algorithm="ears", seed=6)
        assert streams["stepwise"] == streams["leap"]

    @pytest.mark.parametrize("seed", [3, 9, 11])
    def test_backfill_stops_at_the_completing_boundary(self, seed):
        # A never-quiescing algorithm completes inside a gap; the
        # back-fill must not run past the completing step.
        streams = self._streams(algorithm="ps-push-pull", seed=seed)
        assert streams["stepwise"] == streams["leap"]


def _build_sim(engine="auto", n=10, delta=9, seed=4, max_steps=None,
               f=None):
    spec = RunSpec(
        kind="gossip", algorithm="ears", n=n, f=f, d=2, delta=delta,
        seed=seed, engine=engine, max_steps=max_steps,
    )
    from repro.spec.builder import build

    return build(spec)


class TestForkRestore:
    def test_fork_mid_run_diverges_identically(self):
        built = _build_sim(engine="leap")
        sim = built.sim
        sim.run_for(25)
        stepwise_fork = sim.fork()
        stepwise_fork.engine = "stepwise"
        leap_fork = sim.fork()
        leap_fork.engine = "leap"
        a = stepwise_fork.run(max_steps=built.max_steps)
        b = leap_fork.run(max_steps=built.max_steps)
        assert a == b
        assert stepwise_fork.now == leap_fork.now

    def test_snapshot_restore_across_engines(self):
        built = _build_sim(engine="stepwise")
        sim = built.sim
        sim.run_for(17)
        snap = sim.snapshot()
        sim.engine = "leap"
        first = sim.run(max_steps=built.max_steps)
        sim.restore(snap)
        # restore copies the snapshot's engine setting back in; force the
        # reference loop for the second pass.
        sim.engine = "stepwise"
        second = sim.run(max_steps=built.max_steps)
        assert first == second

    def test_run_for_equivalence(self):
        sims = {}
        for engine in ("stepwise", "leap"):
            built = _build_sim(engine=engine, delta=17)
            built.sim.run_for(123)
            sims[engine] = built.sim
        a, b = sims["stepwise"], sims["leap"]
        assert a.now == b.now == 123
        assert a.metrics.snapshot() == b.metrics.snapshot()


class CountingAdversary:
    """Forwards to a real adversary while counting next_event_at calls
    and executed steps (one schedule_at call each)."""

    def __init__(self, inner):
        self._inner = inner
        self.next_event_calls = 0
        self.schedule_calls = 0

    def next_event_at(self, now):
        self.next_event_calls += 1
        return self._inner.next_event_at(now)

    def schedule_at(self, t, alive):
        self.schedule_calls += 1
        return self._inner.schedule_at(t, alive)

    def clone_into(self, target):
        clone = CountingAdversary(self._inner.clone_into(target))
        clone.next_event_calls = self.next_event_calls
        clone.schedule_calls = self.schedule_calls
        return clone

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _run_counted(engine, *, n=12, delta=None, crashes=None, seed=3):
    """Execute a spec under ``engine`` with a counting adversary wrapped
    around whatever adversary the spec builds; returns (run, counter)."""
    from repro.spec.builder import build

    spec = RunSpec(
        kind="gossip", algorithm="ears", n=n, d=2,
        delta=(delta if delta is not None else n),
        f=(len(crashes) if crashes else 0), seed=seed, engine=engine,
    )
    built = build(spec)
    counter = CountingAdversary(built.sim.adversary)
    if crashes:
        counter._inner.crashes = wave_crashes(crashes, at=1)
    built.sim.adversary = counter
    run = built.sim.run(max_steps=built.max_steps)
    return run, counter


class TestAutoEngineProbe:
    """The default engine is the leap path: one cheap next_event_at query
    per busy step, an index rebuilt only when the live set changes, and a
    monitor that stays exact."""

    def test_failure_free_sparse_run_executes_only_busy_steps(self):
        # n >= 64 keeps a 64-step prefix of every window busy; delta > n
        # leaves the rest of it empty. One pid per busy step (n < delta),
        # so local steps count busy steps.
        run, counter = _run_counted("auto", n=72, delta=288)
        assert run.completed
        busy_steps = run.metrics["local_steps_taken"]
        assert counter.schedule_calls == busy_steps < run.steps / 2
        assert counter.next_event_calls <= busy_steps + 1

    def test_sparse_run_keeps_leaping(self):
        # delta >> n: most steps are empty — far fewer next_event_at
        # calls than there are time steps.
        run, counter = _run_counted("auto", n=8, delta=96)
        assert run.completed
        assert counter.next_event_calls < run.steps / 2

    def test_crash_wave_turns_schedule_sparse(self):
        # Dense until the wave at t=1 leaves 2 survivors in an n-sized
        # window: the now-sparse schedule must be leapt (calls ≪ steps).
        run, counter = _run_counted(
            "auto", n=16, delta=16, crashes=range(2, 16)
        )
        assert counter.next_event_calls < run.steps / 2

    @pytest.mark.parametrize(
        "crashes, builds", [(None, 1), (range(2, 16), 2)],
        ids=["dense", "crash-wave"],
    )
    def test_residue_index_built_once_per_live_set(
        self, monkeypatch, crashes, builds
    ):
        calls = []
        build_index = RoundRobinWindows._build_index

        def spy(plan, alive):
            calls.append(alive)
            return build_index(plan, alive)

        monkeypatch.setattr(RoundRobinWindows, "_build_index", spy)
        run, _ = _run_counted("auto", n=16, delta=16, crashes=crashes)
        assert run.steps > 16
        assert len(calls) == builds

    def test_forks_sharing_a_plan_stay_identical_to_stepwise(self):
        # Forks share the oblivious plans, so two forks whose live sets
        # differ evict each other's index on every interleaved call; the
        # index is a pure memo, so that must cost rebuilds and nothing else.
        def continuations(engine, forked):
            """Interleave two continuations of one start, one of which
            crashes pid 5: forks of one simulation, or separate builds.
            The crashed one runs first, so a shared index is first built
            from the smaller live set."""
            def start():
                return _build_sim(engine=engine, n=12, delta=24, f=1).sim

            if forked:
                base = start()
                keeps, crashes = base.fork(), base.fork()
                assert keeps.adversary.schedule is crashes.adversary.schedule
            else:
                keeps, crashes = start(), start()
            crashes.crash(5)
            trace = []
            for _ in range(40):
                for sim in (crashes, keeps):
                    sim.run_for(7)
                    trace.append((sim.now, sim.metrics.snapshot()))
            return trace

        assert continuations("auto", forked=True) == continuations(
            "stepwise", forked=False
        )

    def test_monitor_does_not_latch(self):
        built = _build_sim(n=8, delta=8)
        sim, monitor = built.sim, built.sim.monitor
        before = sim.snapshot()
        assert not monitor.gathered(sim)
        sim.run(max_steps=built.max_steps)
        assert monitor.gathered(sim) and monitor.check(sim)
        # What the rumor-loss state tamperer does: V(p) is not monotone
        # under chaos runs, so a true verdict must be re-derived.
        sim.algorithm(3).rumors.mask &= ~(1 << 6)
        assert not monitor.check(sim)
        sim.restore(before)
        assert sim.monitor.gathering_time is None
        assert not sim.monitor.check(sim)
        assert sim.run(max_steps=built.max_steps).completed

    @pytest.mark.parametrize("cell", SPEC_CELLS)
    def test_auto_bit_identical_to_stepwise(self, cell):
        spec = RunSpec(kind="gossip", algorithm="ears", n=12, seed=5, **cell)
        runs = {}
        for engine in ("stepwise", "auto"):
            runs[engine] = execute(spec.replace(engine=engine))
        assert_equivalent(runs["stepwise"], runs["auto"])

    def test_auto_bit_identical_on_dense_long_run(self):
        # Every step busy: every iteration asks and then steps.
        spec = RunSpec(
            kind="gossip", algorithm="ears", n=12, d=2, delta=12, seed=5,
        )
        runs = {}
        for engine in ("stepwise", "auto"):
            runs[engine] = execute(spec.replace(engine=engine))
        assert_equivalent(runs["stepwise"], runs["auto"])


class TestEngineKnob:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            _build_sim(engine="warp")

    def test_engines_tuple_exposed(self):
        assert ENGINES == ("auto", "stepwise", "leap")

    def test_auto_is_default_and_forks_inherit(self):
        built = _build_sim()
        assert built.sim.engine == "auto"
        built.sim.run_for(5)
        assert built.sim.fork().engine == "auto"

    def test_simulation_rejects_unknown_engine_directly(self):
        from repro.sim.process import Algorithm

        class Noop(Algorithm):
            def on_step(self, ctx, inbox):
                return None

        with pytest.raises(ConfigurationError):
            Simulation(
                n=1, f=0, algorithms=[Noop()],
                adversary=ObliviousAdversary.synchronous_like(),
                engine="fast",
            )
