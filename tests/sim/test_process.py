"""Tests for process handles and the Algorithm contract."""

import pytest

from repro.adversary.oblivious import ObliviousAdversary
from repro.sim.engine import Simulation
from repro.sim.process import (
    Algorithm,
    Context,
    ProcessHandle,
    ProcessStatus,
    SubContext,
)
from repro.sim.errors import AlgorithmError
from repro.sim.rng import derive_rng


class Chatter(Algorithm):
    def on_step(self, ctx, inbox):
        ctx.send((ctx.pid + 1) % ctx.n, "hi")
        ctx.send((ctx.pid + 2) % ctx.n, "ho")


def make_handle(pid=0, n=4):
    ctx = Context(pid, n, 1, derive_rng(0, "h", pid))
    return ProcessHandle(pid, Chatter(), ctx)


class TestProcessHandle:
    def test_run_step_drains_outbox(self):
        handle = make_handle()
        out = handle.run_step([])
        assert len(out) == 2
        # A fresh step starts a fresh outbox.
        out2 = handle.run_step([])
        assert len(out2) == 2
        # What the processes sent is the metrics' count, not the handle's.
        sim = Simulation(n=4, f=1, algorithms=[Chatter() for _ in range(4)],
                         adversary=ObliviousAdversary.synchronous_like())
        sim.step()
        assert sim.metrics.messages_sent == 8
        sim.step()
        assert sim.metrics.messages_sent == 16

    def test_crash_is_permanent(self):
        handle = make_handle()
        assert handle.status is ProcessStatus.ALIVE
        handle.crash(now=7)
        assert handle.status is ProcessStatus.CRASHED
        assert handle.crashed_at == 7

    def test_default_contract(self):
        class Minimal(Algorithm):
            def on_step(self, ctx, inbox):
                pass

        algo = Minimal()
        assert not algo.is_quiescent()
        assert algo.summary() == {}


class TestRandomPeers:
    """random_peers(k) is k random_peer() calls: same values, same stream
    afterwards. On the complete graph it spells out CPython's randrange
    (getrandbits(n.bit_length()) redrawn until below n), so this is the
    test that pins that spelling to the interpreter running the suite."""

    @pytest.mark.parametrize("k", [0, 1, 89])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 128, 255, 256, 257])
    @pytest.mark.parametrize("graph", ["complete", "ring"])
    def test_same_draws_same_stream_state(self, graph, n, k):
        if graph == "ring":
            neighbors = sorted({(n // 2 - 1) % n, (n // 2 + 1) % n} - {n // 2})
        else:
            neighbors = None
        single = Context(n // 2, n, 0, derive_rng(n, "p", k), neighbors)
        batch = single.clone()
        if neighbors == []:
            assert batch.random_peers(0) == []
            with pytest.raises(AlgorithmError):
                batch.random_peers(1)
            return
        for _ in range(3):      # consecutive calls continue one stream
            expected = [single.random_peer() for _ in range(k)]
            assert batch.random_peers(k) == expected
            assert batch.rng.getstate() == single.rng.getstate()
        assert all(0 <= peer < n for peer in expected)


def _envelope(sink):
    def wrap(dst, payload, kind):
        sink.append((dst, payload, kind))
    return wrap


class TestSubContext:
    """The one context an embedding layer hands the layer it embeds."""

    def test_everything_but_sends_is_the_parent(self):
        parent = Context(2, 6, 1, derive_rng(0, "h", 2), neighbors=(1, 3))
        twin = Context(2, 6, 1, derive_rng(0, "h", 2), neighbors=(1, 3))
        sub = SubContext(SubContext(parent, _envelope([])), _envelope([]))
        assert isinstance(sub, Context)
        assert (sub.pid, sub.n, sub.f) == (2, 6, 1)
        assert sub.rng is parent.rng
        assert sub.peers() == (1, 3) and sub.neighbors == (1, 3)
        assert not sub.isolated
        # Same stream, same draws as the bare context.
        assert ([sub.random_peer() for _ in range(8)]
                == [twin.random_peer() for _ in range(8)])

    def test_shares_every_context_slot(self):
        """No lock-step patching: a slot added to Context is shared."""
        parent = Context(0, 4, 1, derive_rng(0, "h", 0))
        sub = SubContext(parent, _envelope([]))
        for name in Context.__slots__:
            assert getattr(sub, name) is getattr(parent, name)

    def test_sends_go_through_the_wrap_one_call_per_message(self):
        parent = Context(0, 4, 1, derive_rng(0, "h", 0))
        seen = []
        sub = SubContext(parent, _envelope(seen))
        sub.send(1, "a", kind="x")
        assert sub.send_many(iter([2, 3]), "b") == 2
        assert seen == [(1, "a", "x"), (2, "b", "msg"), (3, "b", "msg")]
        assert parent.outbox == []  # only the wrap decides what is sent


class TestBoundsRegistry:
    def test_predicted_exponent_table(self):
        from repro.analysis.bounds import PREDICTED_MESSAGE_EXPONENTS

        assert PREDICTED_MESSAGE_EXPONENTS["trivial"] == 2.0
        assert PREDICTED_MESSAGE_EXPONENTS["tears"] == 1.75
        assert PREDICTED_MESSAGE_EXPONENTS["sears"](0.5) == 1.5
