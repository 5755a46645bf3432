"""TEARS — Two-hop Epidemic Asynchronous Rumor Spreading (Section 5, Fig. 3).

Solves *majority gossip* (every correct process receives at least ⌊n/2⌋+1 of
the rumors) in O(d+δ) time with O(n^{7/4} log² n) messages — notably, a
message complexity independent of d and δ, and strictly sub-quadratic.
Requires f < n/2.

Structure (two hops):

1. Each process p picks random subsets Π1(p), Π2(p) ⊆ [n]∖{p}, including each
   peer independently with probability a/n, a = 4√n·log n. In its first
   local step, p sends its rumor with a raised flag to all of Π1(p)
   (*first-level* messages).
2. p counts arriving raised-flag messages. Upon the count reaching each value
   in [µ−κ, µ+κ), and every further κ-th value (µ+iκ, i ≥ 1), p sends a
   *second-level* message carrying all gathered rumors to all of Π2(p)
   (µ = a/2, κ = 8·n^{1/4}·log n).

Unlike EARS, a process does not send every step — sends are driven purely by
how many first-level messages have arrived, which is why the message count
cannot depend on d or δ. Quiescence is structural: after the first-level
batch, a process sends only in reaction to arrivals.

Per Figure 3's loop, at most one second-level batch leaves per local step:
when several trigger counts are crossed by one step's inbox, they collapse
into one batch (their payloads would be identical anyway).
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from ..sim.message import Message, pack_pids
from ..sim.process import Context
from .base import GossipAlgorithm
from .params import DEFAULT_TEARS, TearsParams

KIND_FIRST_LEVEL = "first-level"
KIND_SECOND_LEVEL = "second-level"


class Tears(GossipAlgorithm):
    """The Figure 3 two-hop majority-gossip process."""

    #: A spec's ``params`` mapping names this dataclass's fields.
    params_class = TearsParams

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        rumor_payload=None,
        params: Optional[TearsParams] = None,
    ) -> None:
        super().__init__(pid, n, f, rumor_payload)
        self.params = params if params is not None else DEFAULT_TEARS
        self.mu = max(1, round(self.params.mu(n)))
        self.kappa = max(1, round(self.params.kappa(n)))
        self.up_msg_cnt = 0
        self.first_level_sent = False
        self.second_level_batches = 0
        self.pi1: Optional[array] = None
        self.pi2: Optional[array] = None
        #: Rumors received specifically in first-level messages — the only
        #: rumors that can become *safe* (Section 5.2).
        self.first_level_rumor_mask = 1 << pid
        #: First-level rumors held at the moment of the latest second-level
        #: batch: exactly the rumors received during this process's *safe
        #: epoch* (they have been re-sent in some second-level message).
        self.safe_rumor_mask = 0

    # -- random two-hop neighbourhoods ------------------------------------ #

    def _build_membership(self, ctx: Context) -> None:
        """Draw Π1(p) and Π2(p): each q ≠ p independently with prob a/n.

        Drawn lazily at the first local step because the process RNG lives
        in the context; the draw is still independent of all communication.
        Under a restricted topology the candidate pool is the process's
        neighbor set rather than [n]∖{p} (on the complete graph the loop —
        and its RNG draw sequence — is exactly the historical one). Both
        are packed as ``Context.send_many`` packs a fan-out's
        destinations, so it queues them without a copy.
        """
        prob = self.params.membership_probability(self.n)
        candidates = ctx.peers()
        self.pi1 = pack_pids(self.n, (
            q for q in candidates
            if q != self.pid and ctx.rng.random() < prob
        ))
        self.pi2 = pack_pids(self.n, (
            q for q in candidates
            if q != self.pid and ctx.rng.random() < prob
        ))

    # -- trigger rule ------------------------------------------------------#

    def _is_trigger(self, count: int) -> bool:
        """True if reaching ``count`` raised-flag messages triggers a batch."""
        if self.mu - self.kappa <= count < self.mu + self.kappa:
            return True
        excess = count - self.mu
        return excess > 0 and excess % self.kappa == 0

    def _crossed_trigger(self, old: int, new: int) -> bool:
        """Did the count cross any trigger value moving from old to new?

        The window case reduces to an interval intersection; the periodic
        case asks for a multiple of κ in (old − µ, new − µ].
        """
        if new <= old:
            return False
        lo, hi = self.mu - self.kappa, self.mu + self.kappa - 1
        if old + 1 <= hi and new >= lo:
            if max(old + 1, lo) <= min(new, hi):
                return True
        first_i = (old - self.mu) // self.kappa + 1
        if first_i < 1:
            first_i = 1
        return self.mu + first_i * self.kappa <= new

    # -- the Figure 3 loop ------------------------------------------------ #

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        if self.pi1 is None:
            self._build_membership(ctx)

        old_count = self.up_msg_cnt
        if inbox:
            # Fold the inbox into locals, store once (RumorSet.merge_inbox
            # with a third field: raised flags are counted on the way).
            rumors = self.rumors
            got = first_level = raised = 0
            for msg in inbox:
                mask, payloads, flag_up = msg.payload
                if payloads:
                    rumors.payloads.update(payloads)
                got |= mask
                if flag_up:
                    raised += 1
                    first_level |= mask
            rumors.mask |= got
            self.up_msg_cnt += raised
            self.first_level_rumor_mask |= first_level

        if not self.first_level_sent:
            payload = self._payload(flag_up=True)
            ctx.send_many(self.pi1, payload, kind=KIND_FIRST_LEVEL)
            self.first_level_sent = True

        if self._crossed_trigger(old_count, self.up_msg_cnt):
            payload = self._payload(flag_up=False)
            ctx.send_many(self.pi2, payload, kind=KIND_SECOND_LEVEL)
            self.second_level_batches += 1
            self.safe_rumor_mask = self.first_level_rumor_mask

    def _payload(self, flag_up: bool):
        payloads = dict(self.rumors.payloads) if self.rumors.payloads else None
        return (self.rumors.mask, payloads, flag_up)

    def is_quiescent(self) -> bool:
        # After the first-level batch, TEARS only ever sends in reaction to
        # an arriving message, which is exactly the quiescence contract.
        return self.first_level_sent

    def summary(self) -> dict:
        data = super().summary()
        data.update(
            up_msg_cnt=self.up_msg_cnt,
            mu=self.mu,
            kappa=self.kappa,
            pi1=len(self.pi1) if self.pi1 is not None else None,
            pi2=len(self.pi2) if self.pi2 is not None else None,
            second_level_batches=self.second_level_batches,
        )
        return data
