"""An eventually-synchronous (GST) adversary, after Dwork–Lynch–Stockmeyer.

The paper's system model "is derived from the classical one in [12]"
(DLS, *Consensus in the presence of partial synchrony*), whose signature
regime is a **Global Stabilization Time**: before an unknown time GST the
network is chaotic (delays and scheduling gaps unbounded in principle);
from GST on, the bounds (d, δ) hold.

:class:`GstAdversary` realizes that regime obliviously: before GST it
holds every message until at least GST (plus a hash-jitter within the
post-GST delay bound) and schedules processes on a sparse stagger; from
GST on it behaves exactly like the uniform (d, δ) oblivious adversary.

The point of measuring against it: the paper's algorithms never read
clocks or bounds, so they ride out the chaotic prefix and their
*partially synchronous complexity* — completion time counted **from
GST** — matches the Table 1 bounds, which is precisely the "low partially
synchronous complexity" framing of Section 1. The experiment also exposes
the price of the prefix: step-driven epidemics (EARS) burn messages
throughout the chaos, while arrival-driven TEARS stays almost silent
until GST.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Set

from ..sim.errors import ConfigurationError
from ..sim.message import FanOut, Message, pack, typecode
from ..sim.scheduler import RoundRobinWindows
from .base import Adversary
from .crash_plans import CrashPlan, no_crashes
from .delay_plans import HashDelay


class GstAdversary(Adversary):
    """Chaotic before ``gst``, uniform (d, δ)-bounded afterwards."""

    stamps_fanouts = True

    def __init__(
        self,
        gst: int,
        d: int = 1,
        delta: int = 1,
        pre_gst_delta: Optional[int] = None,
        seed: int = 0,
        crashes: Optional[CrashPlan] = None,
    ) -> None:
        if gst < 0:
            raise ConfigurationError(f"gst must be >= 0, got {gst}")
        if d < 1 or delta < 1:
            raise ConfigurationError("post-GST bounds must be >= 1")
        self.gst = gst
        self.d = d
        self.delta = delta
        #: Scheduling sparsity during the chaotic prefix (default: an
        #: 8x-slower stagger than the post-GST regime).
        self.pre_gst_delta = (
            pre_gst_delta if pre_gst_delta is not None
            else max(2, 8 * delta)
        )
        self.seed = seed
        self.crashes = crashes if crashes is not None else no_crashes()
        # Both regimes are residue-class schedules (δ=1 is the one-residue
        # case: everyone, every step).
        self._pre_gst = RoundRobinWindows(self.pre_gst_delta)
        self._post_gst = RoundRobinWindows(delta)
        # The post-GST delay in [1, d], which is also where a message held
        # through the chaotic prefix lands inside the post-GST window.
        self._delays = HashDelay(d, seed=seed)

    # -- Adversary contract ------------------------------------------------ #

    def crashes_at(self, t: int) -> Set[int]:
        return self.crashes.crashes_at(t)

    def _plan(self, t: int) -> RoundRobinWindows:
        return self._post_gst if t >= self.gst else self._pre_gst

    def schedule_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        return self._plan(t).scheduled_at(t, alive)

    def assign_delay(self, msg: Message) -> int:
        # Chaotic prefix: hold the message until (at least) GST, landing
        # it within the post-GST delay window — the adversary exercising
        # unbounded pre-GST delays without breaking eventual delivery.
        hold = max(0, self.gst - msg.sent_at)
        return hold + self._delays.assign(msg)

    def delay_outbox(self, outbox: Sequence[Message], t: int) -> None:
        self._delays.stamp(outbox, t)
        hold = self.gst - t
        if hold > 0:
            # A record's delays are re-packed in the typecode of the
            # longest one a pre-GST send can take.
            code = typecode(self.d + hold)
            for msg in outbox:
                if type(msg) is FanOut:
                    msg.delays = pack(code, [delay + hold
                                             for delay in msg.delays])
                else:
                    msg.delay += hold

    def has_pending_events(self, t: int) -> bool:
        # Crashes may still fire, and before GST the world still changes.
        return t < self.gst or self.crashes.has_pending(t)

    def next_event_at(self, t: int) -> Optional[int]:
        """Next scheduled step, crash, or the GST boundary itself.

        Both regimes are residue-class schedules, so the next busy step
        is exact. Pre-GST returns never exceed ``gst``: the boundary is
        an event in its own right (the scheduling regime switches and
        :meth:`has_pending_events` flips there), so the leap engine must
        not jump across it.
        """
        sim = getattr(self, "sim", None)
        if sim is None:
            return None
        crash = self.crashes.next_event_at(t)
        sched = self._plan(t).next_event_at(t, sim.alive_pids)
        if t < self.gst:
            sched = self.gst if sched is None else min(sched, self.gst)
        if sched is None:
            return crash
        if crash is None:
            return sched
        return min(sched, crash)
