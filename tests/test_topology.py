"""Topology layer: graph construction, neighbor-restricted gossip, the
complete-graph fast path's bit-identity, and the fitting fallbacks."""

import math

import pytest

from repro.analysis.fitting import (
    SkippedFit,
    fit_power_law,
    safe_fit_power_law,
)
from repro.api import run_gossip
from repro.sim.batch.eligibility import batch_ineligibility
from repro.sim.errors import AlgorithmError, ConfigurationError
from repro.sim.process import Context
from repro.sim.rng import derive_rng
from repro.sim.topology import (
    TOPOLOGY_BUILDERS,
    build_topology,
    normalize_topology,
    parse_topology_arg,
    topology_name,
)
from repro.spec import RunSpec, execute

from .conftest import import_benchmark

RANDOM_FAMILIES = ("gnp", "random-regular", "small-world")


# -- graph construction ----------------------------------------------------- #

def edges(topo):
    """Every edge once, as a sorted ``(u, v)`` pair with ``u < v``."""
    return [(u, v) for u in range(topo.n) for v in topo.neighbors(u) if u < v]


def degrees(topo):
    return {len(topo.neighbors(pid)) for pid in range(topo.n)}


class TestConstruction:
    @pytest.mark.parametrize("name", [n for n in sorted(TOPOLOGY_BUILDERS)
                                      if n != "complete"])
    def test_deterministic_per_seed(self, name):
        a = build_topology(name, 32, seed=7)
        b = build_topology(name, 32, seed=7)
        assert edges(a) == edges(b)

    @pytest.mark.parametrize("name", RANDOM_FAMILIES)
    def test_seed_changes_graph(self, name):
        a = build_topology(name, 32, seed=0)
        b = build_topology(name, 32, seed=1)
        assert edges(a) != edges(b)

    def test_graph_is_own_rng_stream(self):
        # Topology construction draws from derive_rng(seed, "topology",
        # name), so the per-process streams are untouched: the same run
        # on ring vs gnp sees identical process RNG prefixes.
        rng_a = derive_rng(7, "proc", 0)
        build_topology("gnp", 64, seed=7)
        rng_b = derive_rng(7, "proc", 0)
        assert [rng_a.random() for _ in range(8)] == \
            [rng_b.random() for _ in range(8)]

    def test_ring_invariants(self):
        topo = build_topology("ring", 16, seed=0)
        assert topo.connected()
        assert degrees(topo) == {2}
        topo2 = build_topology({"name": "ring", "k": 2}, 16, seed=0)
        assert degrees(topo2) == {4}
        assert topo2.connected()

    def test_ring_huge_k_degrades_to_complete(self):
        topo = build_topology({"name": "ring", "k": 50}, 16, seed=0)
        assert degrees(topo) == {15}

    def test_gnp_default_supercritical_and_connected(self):
        n = 64
        topo = build_topology("gnp", n, seed=3)
        assert topo.connected()
        expected_edges = (n * (n - 1) / 2) * (2 * math.log(n) / n)
        assert 0.5 * expected_edges < len(edges(topo)) < 2 * expected_edges

    def test_random_regular_is_regular(self):
        topo = build_topology("random-regular", 32, seed=5)
        assert degrees(topo) == {4}
        topo6 = build_topology(
            {"name": "random-regular", "degree": 6}, 32, seed=5)
        assert degrees(topo6) == {6}

    def test_random_regular_parity_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology({"name": "random-regular", "degree": 3}, 15, 0)

    def test_small_world_preserves_edge_count(self):
        n, k = 40, 4
        topo = build_topology({"name": "small-world", "k": k}, n, seed=2)
        assert len(edges(topo)) == n * k // 2
        rewired = build_topology(
            {"name": "small-world", "k": k, "beta": 1.0}, n, seed=2)
        lattice = build_topology({"name": "ring", "k": k // 2}, n, seed=2)
        assert edges(rewired) != edges(lattice)

    def test_components(self):
        topo = build_topology({"name": "gnp", "p": 0.0}, 8, seed=0)
        assert not topo.connected()
        assert topo.largest_component_size() == 1
        assert len(topo.components()) == 8
        assert edges(topo) == []

    def test_bad_knobs_are_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            build_topology({"name": "gnp", "p": 2.0}, 8, seed=0)
        with pytest.raises(ConfigurationError):
            build_topology({"name": "ring", "bogus": 1}, 8, seed=0)


# -- config normalization / spec identity ----------------------------------- #

class TestSpecIdentity:
    def test_complete_normalizes_to_none(self):
        assert normalize_topology(None) is None
        assert normalize_topology("complete") is None
        assert normalize_topology({"name": "complete"}) is None
        assert topology_name(None) == "complete"

    def test_complete_takes_no_knobs(self):
        with pytest.raises(ConfigurationError):
            normalize_topology({"name": "complete", "k": 2})

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_topology("torus")
        with pytest.raises(KeyError, match="did you mean 'ring'"):
            normalize_topology("rnig")

    def test_explicit_complete_hash_matches_default(self):
        # The tentpole's hash-stability contract: pre-topology specs (no
        # topology key) hash identically to an explicit complete graph.
        default = RunSpec(algorithm="ears", n=32, seed=1)
        explicit = RunSpec(algorithm="ears", n=32, seed=1,
                           topology="complete")
        assert default.spec_hash == explicit.spec_hash
        assert "topology" not in default.to_dict()

    def test_non_complete_changes_hash_and_round_trips(self):
        spec = RunSpec(algorithm="ears", n=32, seed=1, topology="ring")
        assert spec.spec_hash != RunSpec(
            algorithm="ears", n=32, seed=1).spec_hash
        again = RunSpec.from_json(spec.to_json())
        assert again.topology == {"name": "ring"}
        assert again.spec_hash == spec.spec_hash

    def test_consensus_rejects_topology(self):
        with pytest.raises(ConfigurationError):
            RunSpec(kind="consensus", algorithm="ears", n=8,
                    topology="ring")

    def test_parse_topology_arg(self):
        assert parse_topology_arg(None) is None
        assert parse_topology_arg("complete") is None
        assert parse_topology_arg("ring") == {"name": "ring"}
        assert parse_topology_arg("gnp:p=0.2") == {"name": "gnp", "p": 0.2}
        assert parse_topology_arg("ring:k=3") == {"name": "ring", "k": 3}
        with pytest.raises(ConfigurationError):
            parse_topology_arg("ring:k")
        with pytest.raises(ConfigurationError):
            parse_topology_arg("torus")


# -- the complete-graph fast path ------------------------------------------- #

class TestCompleteFastPath:
    def test_context_complete_draw_is_legacy_randrange(self):
        # Zero extra RNG draws: an unrestricted context's random_peer()
        # is exactly rng.randrange(n).
        ctx = Context(0, 16, 0, derive_rng(0, "proc", 0))
        ref = derive_rng(0, "proc", 0)
        assert [ctx.random_peer() for _ in range(32)] == \
            [ref.randrange(16) for _ in range(32)]
        assert ctx.neighbors is None and not ctx.isolated
        assert list(ctx.peers()) == list(range(16))

    @pytest.mark.parametrize("algorithm", ["ears", "tears", "uniform",
                                           "push-pull"])
    def test_explicit_complete_is_bit_identical(self, algorithm):
        base = run_gossip(algorithm, n=32, f=8, d=2, delta=2, seed=0,
                          crashes=4)
        explicit = run_gossip(algorithm, n=32, f=8, d=2, delta=2, seed=0,
                              crashes=4, topology="complete")
        assert (base.completed, base.completion_time, base.messages) == \
            (explicit.completed, explicit.completion_time,
             explicit.messages)


# -- restricted contexts ---------------------------------------------------- #

class TestRestrictedContext:
    def test_send_to_non_neighbor_rejected(self):
        ctx = Context(0, 8, 0, derive_rng(0, "proc", 0), neighbors=(1, 2))
        ctx.send(1, "x")
        with pytest.raises(AlgorithmError):
            ctx.send(5, "x")

    def test_random_peer_uniform_over_neighbors(self):
        ctx = Context(0, 8, 0, derive_rng(0, "proc", 0), neighbors=(3, 6))
        assert set(ctx.random_peer() for _ in range(64)) == {3, 6}
        assert list(ctx.peers()) == [3, 6]

    def test_isolated_context(self):
        ctx = Context(0, 8, 0, derive_rng(0, "proc", 0), neighbors=())
        assert ctx.isolated
        with pytest.raises(AlgorithmError):
            ctx.random_peer()


# -- end-to-end runs -------------------------------------------------------- #

class TestTopologyRuns:
    @pytest.mark.parametrize("topology", ["ring", "gnp", "random-regular",
                                          "small-world"])
    def test_ears_completes_failure_free(self, topology):
        run = run_gossip("ears", n=24, f=0, seed=1, topology=topology)
        assert run.completed

    @pytest.mark.parametrize("topology", [None, "ring", "gnp"])
    def test_ps_push_pull_completes(self, topology):
        run = run_gossip("ps-push-pull", n=24, f=0, seed=1,
                         topology=topology)
        assert run.completed
        assert run.gathering_time == run.completion_time

    @pytest.mark.parametrize("topology", ["ring", "gnp"])
    @pytest.mark.parametrize("algorithm", ["ears", "ps-push-pull"])
    def test_engines_bit_identical_on_topologies(self, topology,
                                                 algorithm):
        runs = [
            run_gossip(algorithm, n=20, f=0, seed=3, topology=topology,
                       engine=engine)
            for engine in ("stepwise", "leap", "auto")
        ]
        keys = [(r.completed, r.completion_time, r.messages) for r in runs]
        assert keys[0] == keys[1] == keys[2]

    def test_disconnected_gnp_reports_structured_reason(self):
        # p=0 splits every pid into its own component; with f=0 nothing
        # can be crashed down to one component, so the builder
        # short-circuits: zero steps, a clear incompleteness reason.
        run = run_gossip("ears", n=16, f=0, seed=0,
                         topology={"name": "gnp", "p": 0.0})
        assert not run.completed
        assert run.reason == "topology-disconnected"
        assert run.messages == 0

    def test_disconnected_but_crashable_still_runs(self):
        # Four singletons but f=3: crashing all but one component is
        # within the failure budget, so completion is not impossible
        # and the run must actually execute (no short-circuit).
        run = run_gossip("ears", n=4, f=3, seed=0, crashes=1,
                         topology={"name": "gnp", "p": 0.0},
                         max_steps=50)
        assert run.reason != "topology-disconnected"
        assert run.messages >= 0  # the simulation really ran

    def test_batch_engine_falls_back_scalar(self):
        spec = RunSpec(algorithm="ears", n=24, seed=2, topology="ring",
                       engine="batch")
        reason = batch_ineligibility(spec)
        assert reason is not None and "topolog" in reason
        batch = execute(spec)
        scalar = execute(spec.replace(engine="auto"))
        assert (batch.completed, batch.completion_time, batch.messages) \
            == (scalar.completed, scalar.completion_time, scalar.messages)


# -- sweeps and fits -------------------------------------------------------- #

class TestSweepsAndFits:
    def test_sweep_topology_gossip_shapes(self):
        """The ordering the literature states, as a claim: the sweep
        ``benchmarks/bench_topology_sweep.py`` runs — complete / gnp /
        ring over n in {16, 32, 64, 128} x 3 seeds — against the bench's
        own three constants, so bench and test cannot disagree."""
        bench = import_benchmark("bench_topology_sweep")
        curves = bench.run_sweep(quick=False)
        by_name = {c.topology: c for c in curves}
        assert set(by_name) == {"complete", "gnp", "ring"}
        assert all(c.ns == [16, 32, 64, 128] for c in curves)
        assert all(min(c.completion_rates) == 1.0 for c in curves)
        ring, gnp, complete = (by_name[name].raw_fit.exponent
                               for name in ("ring", "gnp", "complete"))
        # Ring spreads like n (one contact moves the rumor a constant
        # distance), supercritical G(n, p) and the complete graph like
        # log n (Panagiotou & Speidel), and the gap is unmistakable.
        assert (bench.RING_MIN_EXPONENT, bench.SUBLINEAR_MAX_EXPONENT,
                bench.MIN_SEPARATION) == (0.6, 0.45, 0.3)
        assert ring >= bench.RING_MIN_EXPONENT
        assert gnp <= bench.SUBLINEAR_MAX_EXPONENT
        assert complete <= bench.SUBLINEAR_MAX_EXPONENT
        assert ring - gnp >= bench.MIN_SEPARATION

    def test_safe_fit_degrades_not_raises(self):
        skipped = safe_fit_power_law([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
        assert isinstance(skipped, SkippedFit)
        assert math.isnan(skipped.exponent)
        assert "identical" in skipped.reason
        # the raising contract is unchanged
        with pytest.raises(ValueError):
            fit_power_law([4.0, 4.0], [1.0, 2.0])

    def test_safe_fit_other_degenerate_shapes(self):
        assert isinstance(safe_fit_power_law([], []), SkippedFit)
        assert isinstance(
            safe_fit_power_law([1.0, 2.0], [0.0, 3.0]), SkippedFit)
        assert isinstance(
            safe_fit_power_law([1.0, float("nan")], [1.0, 2.0]),
            SkippedFit)
        fit = safe_fit_power_law([1.0, 2.0, 4.0], [3.0, 6.0, 12.0])
        assert not isinstance(fit, SkippedFit)
        assert fit.exponent == pytest.approx(1.0)


# -- CLI -------------------------------------------------------------------- #

class TestCli:
    def test_gossip_topology_flag(self, capsys):
        from repro.cli import main

        assert main(["gossip", "-n", "16", "--seed", "1",
                     "--topology", "ring"]) == 0
        assert "completed=True" in capsys.readouterr().out

    def test_bad_topology_exits_2(self, capsys):
        from repro.cli import main

        assert main(["gossip", "-n", "16", "--topology", "torus"]) == 2
        err = capsys.readouterr().err
        assert "unknown topology" in err
        assert err.count("error:") == 1

    def test_run_spec_topology_override(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(RunSpec(algorithm="ears", n=16, seed=1).to_json())
        assert main(["run", "--spec", str(spec_path),
                     "--topology", "ring"]) == 0
        out = capsys.readouterr().out
        ring_hash = RunSpec(algorithm="ears", n=16, seed=1,
                            topology="ring").spec_hash
        assert ring_hash in out
