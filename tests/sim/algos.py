"""Tiny deterministic algorithms used to exercise the engine in tests."""

from __future__ import annotations

import copy

from repro.sim.monitor import PredicateMonitor, quiescent
from repro.sim.process import Algorithm


def quiescence() -> PredicateMonitor:
    """Completes once nothing is in flight and every live process is
    quiescent: the system can provably send no further message."""
    return PredicateMonitor(quiescent, name="quiescence", state_driven=True)


class Forkable(Algorithm):
    """A test algorithm a simulation fork copies whole."""

    def clone(self):
        return copy.deepcopy(self)


class Silent(Forkable):
    """Never sends; records how many steps and messages it saw."""

    def __init__(self):
        self.steps = 0
        self.received = []

    def on_step(self, ctx, inbox):
        self.steps += 1
        self.received.extend(inbox)

    def is_quiescent(self):
        return True


class RingSender(Forkable):
    """Sends ``count`` messages to (pid+1) mod n, one per local step."""

    def __init__(self, count=3, kind="ring"):
        self.count = count
        self.kind = kind
        self.sent = 0
        self.received = []

    def on_step(self, ctx, inbox):
        self.received.extend(m.payload for m in inbox)
        if self.sent < self.count:
            ctx.send((ctx.pid + 1) % ctx.n, ("hop", ctx.pid, self.sent),
                     kind=self.kind)
            self.sent += 1

    def is_quiescent(self):
        return self.sent >= self.count


class Echo(Forkable):
    """Replies once to every message received; quiescent in between."""

    def __init__(self):
        self.received = []

    def on_step(self, ctx, inbox):
        for m in inbox:
            self.received.append(m)
            ctx.send(m.src, ("echo", m.payload), kind="echo")

    def is_quiescent(self):
        return True


class Kickoff(Echo):
    """Echo, but also sends one initial message to pid 0 from pid 1."""

    def __init__(self):
        super().__init__()
        self.kicked = False

    def on_step(self, ctx, inbox):
        if not self.kicked and ctx.pid == 1:
            ctx.send(0, "kick", kind="kick")
        self.kicked = True
        super().on_step(ctx, inbox)

    def is_quiescent(self):
        return self.kicked


class RandomSpammer(Forkable):
    """Sends to one random peer per step forever (never quiescent)."""

    def __init__(self):
        self.targets = []

    def on_step(self, ctx, inbox):
        dst = ctx.random_peer()
        self.targets.append(dst)
        ctx.send(dst, None, kind="spam")

    def is_quiescent(self):
        return False
