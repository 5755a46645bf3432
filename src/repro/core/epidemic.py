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
set iff (r, q) ∈ I(p), so merging a received informed-list is one integer
OR. A step folds before it stamps: received lists are OR-ed into a local and
received masks into one n-bit word before I(p) is assigned once, and the
pairs for a step's targets are OR-ed together and added once, after the
payload snapshot. Payloads share these immutable ints, so snapshotting
costs nothing.

"L(p) = ∅" is exactly ``replicate(V) & ~I == 0``, where ``replicate(V) =
V · (Σ_q 2^{q·n})`` stamps V into every q-block. That product is the dearest
operation here, and while L(p) ≠ ∅ one uncertified destination proves it:
:class:`InformedListGossip` keeps such a *witness* q and re-tests only block
q of I(p). The full difference ``(replicate(V) | I) ^ I`` (the same bits,
without negating an n²-bit int) is taken only once the witness has become
certified, and its top set bit names the next witness. The witness is a
memo, never a latch: every call re-reads V and I, so state written from
outside (the fault injectors do) gets the verdict of the formula above.

One inference the pseudocode leaves implicit is made explicit here: the pairs
(r, p) for rumors r delivered *to* p are added to I(p) by the receiver
itself (a sender records (r, q) only after snapshotting the message payload,
so the receiver would otherwise never learn that its own copy counts as
"sent to p", and L(p) could never empty).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from ..sim.message import Message
from ..sim.process import Context
from .base import GossipAlgorithm

KIND_GOSSIP = "gossip"
KIND_SHUTDOWN = "shutdown"


@lru_cache(maxsize=None)
def _repunit(n: int) -> int:
    """Σ_{q=0}^{n-1} 2^{q·n}: multiplying an n-bit mask by this stamps the
    mask into each of the n blocks of an n²-bit informed-list."""
    return ((1 << (n * n)) - 1) // ((1 << n) - 1) if n > 0 else 0


@lru_cache(maxsize=8)
def _replicate(v: int, n: int) -> int:
    """V stamped into each of the n blocks. Once the rumors have spread the
    live processes hold the same few V, so the last few products are kept —
    shared by every process, where a copy each would cost n² bits apiece."""
    return v * _repunit(n)


def _top_block(pairs: int, n: int) -> int:
    """The highest destination with a bit set in the packed ``pairs``. A V
    with a bit >= n (a fault injector's) spills past block n−1; the spill
    counts for n−1, so that every non-zero difference names a destination."""
    return min((pairs.bit_length() - 1) // n, n - 1)


class InformedListGossip(GossipAlgorithm):
    """V(p), a packed informed-list I(p), the L(p) queries on them and the
    sleep counter of a stopping rule that waits for L(p) = ∅."""

    def __init__(self, pid: int, n: int, f: int, rumor_payload=None) -> None:
        super().__init__(pid, n, f, rumor_payload)
        # I(p), packed. Initially p knows its own rumor "reached" itself.
        self._I = self.rumors.mask << (pid * n)
        # A destination in [0, n) last found in L(p) (module docstring).
        self._witness = n - 1
        # Consecutive steps (including this one) during which L(p) was empty;
        # 0 while L(p) is non-empty. Figure 2's sleep_cnt; a subclass sets
        # ``shutdown_sends``, how many of them it keeps sending through.
        self.sleep_cnt = 0

    def _uncertified(self) -> int:
        """``replicate(V) & ~I``: bit q·n + r ⟺ r ∈ V(p) and (r, q) ∉ I(p)."""
        informed = self._I
        return (_replicate(self.rumors.mask, self.n) | informed) ^ informed

    def l_is_empty(self) -> bool:
        n = self.n
        v = self.rumors.mask
        # One block of I(p) decides only while the copies of V in
        # replicate(V) cannot overlap, i.e. while V < 2ⁿ.
        if not v >> n and (self._I >> (self._witness * n)) & v != v:
            return False
        rest = self._uncertified()
        if not rest:
            return True
        self._witness = _top_block(rest, n)
        return False

    @property
    def asleep(self) -> bool:
        """True once the shut-down phase has completed (Figure 2 sleeping)."""
        return self.sleep_cnt > self.shutdown_sends

    def is_quiescent(self) -> bool:
        return self.asleep


class EpidemicGossip(InformedListGossip):
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

    # -- the Figure 2 main loop ------------------------------------------ #

    def _choose_targets(self, ctx: Context) -> List[int]:
        """``fanout`` i.i.d. uniform target draws, deduplicated.

        On the complete graph the draws are uniform over [n] (the paper's
        step); under a restricted topology :meth:`Context.random_peers`
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
        return list(dict.fromkeys(ctx.random_peers(self.fanout)))

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        n = self.n
        rumors = self.rumors
        if inbox:
            informed = self._I
            got = 0
            for msg in inbox:
                mask, payloads, theirs = msg.payload
                if payloads:
                    rumors.payloads.update(payloads)
                informed |= theirs
                got |= mask
            rumors.mask |= got
            # Receiver-side inference: the rumors in these messages were,
            # by definition, sent to me.
            self._I = informed | got << (self.pid * n)

        if self.l_is_empty():
            self.sleep_cnt += 1
        else:
            self.sleep_cnt = 0

        if self.sleep_cnt <= self.shutdown_sends:
            # Epidemic transmission mode (shut-down phase included: the
            # process "continues as before" until the phase completes).
            targets = self._choose_targets(ctx)
            mask, payloads = rumors.snapshot()
            kind = KIND_SHUTDOWN if self.sleep_cnt >= 1 else KIND_GOSSIP
            ctx.send_many(targets, (mask, payloads, self._I), kind=kind)
            # Record the new pairs only after the payload snapshot, exactly
            # as Figure 2 sends ⟨V(p), I(p)⟩ first and extends I(p) after.
            sent = 0
            for dst in targets:
                sent |= mask << (dst * n)
            self._I |= sent

    def summary(self) -> dict:
        data = super().summary()
        data.update(
            sleep_cnt=self.sleep_cnt,
            asleep=self.asleep,
            fanout=self.fanout,
            shutdown_sends=self.shutdown_sends,
        )
        return data
