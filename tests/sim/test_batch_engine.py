"""Conformance tests: the vectorized batched-trial engine vs. scalar.

The batch engine runs its own counter-based RNG substreams, so it is
**not** bit-identical to the scalar engines; its contract is different
and these tests pin each clause of it:

* **seed determinism** — the same (cell, seed) always produces the same
  trial, pinned against committed per-seed digests;
* **batch-composition invariance** — a seed's trial is bit-identical
  whether it runs in a batch of one or inside any larger batch;
* **distributional equivalence** — per-cell metric distributions match
  the scalar engines under a two-sample Kolmogorov–Smirnov gate
  (p > 0.01 over ≥ 500 seeds);
* **fallback identity** — ineligible specs asking for ``engine="batch"``
  fall back to the scalar path bit-identically to ``engine="auto"``;
* **internal consistency** — the incremental monitor counters the hot
  loop maintains always agree with a from-scratch recount.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from repro.sim.batch import (  # noqa: E402
    BATCH_MEMORY_BUDGET,
    MAX_BATCH_N,
    batch_eligible,
    batch_ineligibility,
    max_batch_trials,
)
from repro.sim.batch.engine import BatchSimulation  # noqa: E402
from repro.spec.builder import execute  # noqa: E402
from repro.spec.runspec import RunSpec  # noqa: E402
from repro.spec.vectorized import (  # noqa: E402
    batch_group_key,
    execute_batch_spec,
    run_batch_specs,
)

EARS16 = RunSpec(
    kind="gossip", algorithm="ears", n=16, f=0, d=2, delta=4, seed=0,
    engine="batch",
)
SEARS24 = RunSpec(
    kind="gossip", algorithm="sears", n=24, f=6, d=3, delta=2, seed=5,
    crashes=6, engine="batch",
)


def fingerprint(run):
    """Everything observable about a finished batch/scalar gossip run."""
    return (
        run.completed, run.reason, run.completion_time,
        run.gathering_time, run.messages, run.bits, run.realized_d,
        run.realized_delta, run.crashes, run.result.steps,
    )


class TestPinnedSeeds:
    """Committed digests: the batch RNG discipline must never drift."""

    def test_ears_cell(self):
        run = execute(EARS16)
        assert fingerprint(run) == (
            True, "completed", 88, 43, 289, 0, 2, 4, 0, 88,
        )

    def test_sears_crash_cell(self):
        run = execute(SEARS24)
        assert fingerprint(run) == (
            True, "completed", 15, 7, 1317, 0, 3, 2, 4, 15,
        )


class TestCompositionInvariance:
    """A trial's stream depends only on its own seed: batches of one and
    one big batch must be bit-identical, seed for seed."""

    @pytest.mark.parametrize("base", [EARS16, SEARS24],
                             ids=["ears", "sears-crashes"])
    def test_batch_of_one_equals_group(self, base):
        specs = [base.replace(seed=seed) for seed in range(12)]
        grouped = run_batch_specs(specs)
        for spec, run in zip(specs, grouped):
            alone = run_batch_specs([spec])[0]
            assert fingerprint(alone) == fingerprint(run)
            assert alone.result.metrics == run.result.metrics

    def test_split_points_do_not_matter(self):
        specs = [EARS16.replace(seed=seed) for seed in range(10)]
        whole = [fingerprint(r) for r in run_batch_specs(specs)]
        split = [
            fingerprint(r)
            for cut in (specs[:3], specs[3:7], specs[7:])
            for r in run_batch_specs(cut)
        ]
        assert whole == split

    def test_rerun_determinism(self):
        specs = [SEARS24.replace(seed=seed) for seed in range(8)]
        first = [r.result.metrics for r in run_batch_specs(specs)]
        second = [r.result.metrics for r in run_batch_specs(specs)]
        assert first == second


def ks_p_value(xs, ys):
    """Two-sample KS asymptotic p-value (Kolmogorov Q-function).

    Conservative for discrete data (ties only shrink the true D
    distribution), which is the safe direction for an equivalence gate.
    """
    xs, ys = sorted(xs), sorted(ys)
    n, m = len(xs), len(ys)
    values = sorted(set(xs) | set(ys))
    import bisect

    d = 0.0
    for v in values:
        fx = bisect.bisect_right(xs, v) / n
        fy = bisect.bisect_right(ys, v) / m
        d = max(d, abs(fx - fy))
    en = math.sqrt(n * m / (n + m))
    lam = (en + 0.12 + 0.11 / en) * d
    if lam < 0.4:
        # Q(0.4) > 0.997; below that the truncated series misbehaves
        # (at λ=0 it alternates to 0 where the true limit is 1).
        return 1.0, d
    p = 2.0 * sum(
        (-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        for k in range(1, 101)
    )
    return max(0.0, min(1.0, p)), d


KS_SEEDS = 500


class TestDistributionalEquivalence:
    """Per-cell metric distributions must match the scalar engines."""

    @pytest.mark.parametrize(
        "base",
        [
            RunSpec(kind="gossip", algorithm="ears", n=16, d=2, delta=4),
            RunSpec(kind="gossip", algorithm="sears", n=16, f=4, d=2,
                    delta=2, crashes=4),
        ],
        ids=["ears", "sears-crashes"],
    )
    def test_ks_gate(self, base):
        batch = run_batch_specs([
            base.replace(seed=seed, engine="batch")
            for seed in range(KS_SEEDS)
        ])
        scalar = [
            execute(base.replace(seed=seed)) for seed in range(KS_SEEDS)
        ]
        assert all(r.completed for r in batch)
        assert all(r.completed for r in scalar)
        for metric in ("completion_time", "messages", "realized_d",
                       "realized_delta"):
            p, d = ks_p_value(
                [getattr(r, metric) for r in batch],
                [getattr(r, metric) for r in scalar],
            )
            assert p > 0.01, (
                f"{metric}: KS D={d:.4f}, p={p:.5f} — batch and scalar "
                "distributions diverge"
            )


FALLBACK_SPECS = [
    pytest.param(
        RunSpec(kind="consensus", algorithm="ears", n=9, f=2, d=2,
                delta=5, seed=1),
        id="consensus-kind",
    ),
    pytest.param(
        RunSpec(kind="gossip", algorithm="tears", n=12, f=3, d=2,
                delta=3, seed=4),
        id="unvectorized-algorithm",
    ),
    pytest.param(
        RunSpec(kind="gossip", algorithm="ears", n=12, d=2, delta=3,
                seed=2, adversary={"name": "gst", "gst": 11}),
        id="gst-adversary",
    ),
    pytest.param(
        RunSpec(kind="gossip", algorithm="ears", n=12, d=2, delta=3,
                seed=7, measure_bits=True),
        id="bit-metering",
    ),
]


class TestFallbackIdentity:
    """Ineligible cells under engine="batch" are the scalar run, bit for
    bit — the knob must never change what those cells compute."""

    @pytest.mark.parametrize("spec", FALLBACK_SPECS)
    def test_bit_identical_to_auto(self, spec):
        assert not batch_eligible(spec)
        assert execute_batch_spec(spec.replace(engine="batch")) is None
        a = execute(spec.replace(engine="batch"))
        b = execute(spec.replace(engine="auto"))
        assert type(a) is type(b)
        for field in ("completed", "reason", "completion_time",
                      "gathering_time", "messages", "realized_d",
                      "realized_delta", "decision_time", "agreement",
                      "decisions"):
            assert getattr(a, field, None) == getattr(b, field, None), field
        if hasattr(a, "result"):
            assert a.result.metrics == b.result.metrics


class TestEligibility:
    def test_eligible_cell(self):
        assert batch_ineligibility(EARS16) is None
        assert batch_eligible(SEARS24)

    def test_uniform_adversary_dict_is_eligible(self):
        spec = EARS16.replace(adversary={"name": "uniform"})
        assert batch_eligible(spec)

    @pytest.mark.parametrize(
        "spec, needle",
        [
            (EARS16.replace(kind="consensus"), "per-trial"),
            (EARS16.replace(algorithm="trivial"), "vectorized"),
            (EARS16.replace(adversary={"name": "gst", "gst": 5}),
             "adversary"),
            (EARS16.replace(check_invariants=True), "invariant"),
            (EARS16.replace(measure_bits=True), "bit metering"),
            (EARS16.replace(params={"fanout": 2}), "params"),
        ],
        ids=["kind", "algorithm", "adversary", "invariants", "bits",
             "params"],
    )
    def test_ineligibility_reasons(self, spec, needle):
        reason = batch_ineligibility(spec)
        assert reason is not None and needle in reason

    def test_n_cap(self):
        spec = EARS16.replace(n=MAX_BATCH_N + 1, delta=MAX_BATCH_N + 1)
        assert "cap" in batch_ineligibility(spec)

    def test_group_key_factors_out_seed_and_engine(self):
        key = batch_group_key(EARS16)
        assert batch_group_key(EARS16.replace(seed=99)) == key
        assert batch_group_key(EARS16.replace(engine="auto")) == key
        assert batch_group_key(EARS16.replace(delta=5)) != key

    def test_max_batch_trials(self):
        assert max_batch_trials(16) >= 1024
        # Monotone non-increasing in n, never below one trial.
        sizes = [max_batch_trials(n) for n in (16, 64, 128, 256, 512)]
        assert sizes == sorted(sizes, reverse=True)
        assert max_batch_trials(MAX_BATCH_N) >= 1
        assert max_batch_trials(MAX_BATCH_N, budget=1) == 1
        # The default chunk honours the documented budget arithmetic.
        words = (128 + 63) // 64
        per_trial = 3 * 128 * 128 * words * 8
        assert max_batch_trials(128) == BATCH_MEMORY_BUDGET // per_trial


class TestIncrementalMonitor:
    """The hot loop maintains full/notfull_cnt/awake_cnt incrementally;
    they must agree with the reference recomputes at every step."""

    def test_counters_match_reference(self):
        crash_events = [
            [] if b % 2 else [(3, [0]), (9, [1, 2])] for b in range(6)
        ]
        sim = BatchSimulation(
            16, 3, list(range(6)), fanout=1, shutdown_sends=4, d=2,
            delta=4, crash_events=crash_events,
        )
        st = sim.state
        for t in range(400):
            sim.step(t)
            assert ((st.notfull_cnt == 0) == sim._gathered()).all()
            awake_ref = (
                st.alive & st.running[:, None]
                & (st.sleep_cnt <= sim.shutdown_sends)
            ).sum(axis=1)
            # awake_cnt ignores `running` until the recount; compare on
            # still-running trials where the monitor actually reads it.
            live = st.running
            assert (st.awake_cnt[live] == awake_ref[live]).all()
            sim._check(t + 1)
            if not st.running.any():
                break
        assert not st.running.any()

    def test_in_flight_matches_queue_scan(self):
        sim = BatchSimulation(
            12, 2, [0, 1, 2, 3], fanout=1, shutdown_sends=3, d=3,
            delta=3,
            crash_events=[[(5, [0, 1])], [], [(2, [7])], []],
        )
        st = sim.state
        for t in range(60):
            sim.step(t)
            for b in range(4):
                assert st.in_flight[b] == st.queued_count(b)
            sim._check(t + 1)
            if not st.running.any():
                break
