"""Shared machinery for EARS and SEARS (Sections 3 and 4, Figure 2).

Both algorithms are the same epidemic loop differing only in two knobs:

* ``fanout``: how many uniformly random targets receive the process's
  knowledge at each local step (1 for EARS, Θ(nᵉ log n) for SEARS);
* ``shutdown_sends``: how many consecutive L(p)=∅ steps the process keeps
  gossiping through before it sleeps (Θ((n/(n−f)) log n) for EARS, 1 for
  SEARS).

State per the paper: the rumor collection V(p); the informed-list I(p) of
pairs (r, q) meaning "p knows rumor r has been sent to process q"; and
L(p) = { q : ∃ r ∈ V(p), (r, q) ∉ I(p) }, the processes p cannot yet certify.
When L(p) = ∅ the process enters the shut-down phase; if it later learns a
rumor making L(p) ≠ ∅, it awakens and resumes (Figure 2, lines 12–14).

Representation
--------------
V(p) is an n-bit mask. I(p) is a single n²-bit integer with bit ``q·n + r``
set iff (r, q) ∈ I(p). Merging a received informed-list is then one integer
OR, and "L(p) = ∅" is the single comparison ``replicate(V) & ~I == 0`` where
``replicate(V) = V · (Σ_q 2^{q·n})`` stamps V into every q-block. Message
payloads share these immutable ints, so snapshotting costs nothing.

One inference the pseudocode leaves implicit is made explicit here: the pairs
(r, p) for rumors r delivered *to* p are added to I(p) by the receiver
itself (a sender records (r, q) only after snapshotting the message payload,
so the receiver would otherwise never learn that its own copy counts as
"sent to p", and L(p) could never empty).
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.message import Message
from ..sim.process import Context
from .base import GossipAlgorithm

KIND_GOSSIP = "gossip"
KIND_SHUTDOWN = "shutdown"

_REPUNIT_CACHE: Dict[int, int] = {}


def _repunit(n: int) -> int:
    """Σ_{q=0}^{n-1} 2^{q·n}: multiplying an n-bit mask by this stamps the
    mask into each of the n blocks of an n²-bit informed-list."""
    value = _REPUNIT_CACHE.get(n)
    if value is None:
        value = ((1 << (n * n)) - 1) // ((1 << n) - 1) if n > 0 else 0
        _REPUNIT_CACHE[n] = value
    return value


class EpidemicGossip(GossipAlgorithm):
    """The Figure 2 loop, parameterized by fanout and shut-down length."""

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        rumor_payload=None,
        fanout: int = 1,
        shutdown_sends: int = 1,
    ) -> None:
        super().__init__(pid, n, f, rumor_payload)
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if shutdown_sends < 1:
            raise ValueError(
                f"shutdown_sends must be >= 1, got {shutdown_sends}"
            )
        self.fanout = fanout
        self.shutdown_sends = shutdown_sends
        # I(p), packed. Initially p knows its own rumor "reached" itself.
        self._I = self.rumors.mask << (pid * n)
        # Consecutive steps (including this one) during which L(p) was empty;
        # 0 while L(p) is non-empty. Figure 2's sleep_cnt.
        self.sleep_cnt = 0

    # -- inspection used by tests and the lower-bound analysis ------------ #

    @property
    def informed_list(self) -> int:
        """The packed informed-list I(p) (bit q·n + r ⟺ (r, q) ∈ I)."""
        return self._I

    def knows_sent(self, rumor: int, dst: int) -> bool:
        """True iff (rumor, dst) ∈ I(p)."""
        return bool(self._I >> (dst * self.n + rumor) & 1)

    def uncertified_mask(self) -> int:
        """Bitmask of L(p): processes not yet known to have been sent all of V."""
        mask = 0
        v = self.rumors.mask
        for q in range(self.n):
            if v & ~(self._I >> (q * self.n)):
                mask |= 1 << q
        return mask

    def l_is_empty(self) -> bool:
        return not (self.rumors.mask * _repunit(self.n) & ~self._I)

    @property
    def asleep(self) -> bool:
        """True once the shut-down phase has completed (Figure 2 sleeping)."""
        return self.sleep_cnt > self.shutdown_sends

    def is_quiescent(self) -> bool:
        return self.asleep

    # -- the Figure 2 main loop ------------------------------------------ #

    def _choose_targets(self, ctx: Context) -> List[int]:
        """``fanout`` i.i.d. uniform target draws, deduplicated.

        On the complete graph the draws are uniform over [n] (the paper's
        step); under a restricted topology :meth:`Context.random_peer`
        samples the process's neighbors instead, and an isolated process
        simply has nobody to gossip with.

        Deduplication only merges identical same-step sends (rare for
        fanout ≪ n) so at most ``fanout`` point-to-point messages leave per
        step, as the complexity accounting assumes.
        """
        if ctx.isolated:
            return []
        if self.fanout == 1:
            return [ctx.random_peer()]
        draws = [ctx.random_peer() for _ in range(self.fanout)]
        return list(dict.fromkeys(draws))

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        n = self.n
        for msg in inbox:
            mask, payloads, informed = msg.payload
            self.rumors.merge(mask, payloads)
            self._I |= informed
            # Receiver-side inference: the rumors in this message were, by
            # definition, sent to me.
            self._I |= mask << (self.pid * n)

        if self.l_is_empty():
            self.sleep_cnt += 1
        else:
            self.sleep_cnt = 0

        if self.sleep_cnt <= self.shutdown_sends:
            # Epidemic transmission mode (shut-down phase included: the
            # process "continues as before" until the phase completes).
            targets = self._choose_targets(ctx)
            payloads = dict(self.rumors.payloads) if self.rumors.payloads else None
            payload = (self.rumors.mask, payloads, self._I)
            kind = KIND_SHUTDOWN if self.sleep_cnt >= 1 else KIND_GOSSIP
            ctx.send_many(targets, payload, kind=kind)
            # Record the new pairs only after the payload snapshot, exactly
            # as Figure 2 sends ⟨V(p), I(p)⟩ first and extends I(p) after.
            stamp = self.rumors.mask
            for dst in targets:
                self._I |= stamp << (dst * n)

    def summary(self) -> dict:
        data = super().summary()
        data.update(
            sleep_cnt=self.sleep_cnt,
            asleep=self.asleep,
            fanout=self.fanout,
            shutdown_sends=self.shutdown_sends,
        )
        return data
