"""Tests for per-process state-size accounting, which lives with the
BITS bench that reports it (``benchmarks/bench_bit_complexity.py``)."""

from repro.api import run_gossip

from ..conftest import import_benchmark

bench = import_benchmark("bench_bit_complexity")
compare_state, measure_state = bench.compare_state, bench.measure_state


class TestStateFootprint:
    def test_informed_list_dominates_ears_state(self):
        footprints = compare_state(["trivial", "ears", "tears"],
                                   n=64, f=16, seed=1)
        # EARS carries Θ(n²) bits of informed-list; trivial only its
        # rumor mask; tears masks plus counters.
        assert footprints["ears"].mean > 10 * footprints["tears"].mean
        assert footprints["tears"].mean > footprints["trivial"].mean
        # The n² term is visible: at n = 64 EARS state ≥ n²/2 bits.
        assert footprints["ears"].mean >= 64 * 64 / 2

    def test_state_grows_quadratically_for_ears(self):
        small = compare_state(["ears"], n=32, f=8, seed=1)["ears"]
        large = compare_state(["ears"], n=128, f=32, seed=1)["ears"]
        # 4x the processes, ~16x the informed-list bits.
        assert large.mean >= 8 * small.mean

    def test_push_pull_state_heavy_but_wire_light(self):
        """The nuance the two meters together reveal: push-pull keeps the
        n²-bit local-evidence list in memory yet never ships it."""
        run = run_gossip("push-pull", n=64, f=16, seed=1,
                         measure_bits=True)
        footprint = measure_state(run.sim)
        assert footprint.mean >= 64 * 64 / 2          # state-heavy
        assert run.bits / run.messages < 200          # wire-light

    def test_footprint_aggregates(self):
        run = run_gossip("trivial", n=8, f=0, seed=1)
        footprint = measure_state(run.sim)
        assert footprint.total == sum(footprint.per_process.values())
        assert footprint.maximum >= footprint.mean
        assert set(footprint.per_process) == set(range(8))
