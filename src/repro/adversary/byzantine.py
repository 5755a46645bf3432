"""The Byzantine adversary: a seeded corrupt process set with in-band attacks.

The paper's adversary controls crashes and timing only. This module promotes
the stronger fault model of Danezis et al. (arXiv:2502.09116) to a
first-class adversary: a seeded Byzantine set of size ``b <= f`` whose
members run the honest algorithm but whose *outgoing traffic* is rewritten
by the adversary each step — equivocation (conflicting payloads to different
destinations within one fanout), tampering (mutated relayed payloads),
silence (selective or total omission) and identity forgery (spoofed
``src``).

Corruption is strictly in-band: the adversary rewrites outboxes through the
engine's :meth:`~repro.adversary.base.Adversary.corrupt_outbox` hook, so
every corrupt message still receives a plan delay, is counted by metrics,
flows through the network's delivery queues, and is visible to observers —
tagged ``kind="byz:<behavior>:<original-kind>"`` so invariants and metrics
can attribute it. No process state is ever edited out-of-band.

Scheduling, delays and crashes are delegated to a wrapped inner adversary
(by default the uniform oblivious ``(d, δ)``-adversary), so the timing model
under attack is exactly the paper's.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..sim.errors import ConfigurationError
from ..sim.message import Message, base_kind
from ..sim.rng import derive_rng
from .base import Adversary
from .crash_plans import CrashPlan
from .oblivious import ObliviousAdversary

__all__ = ["BEHAVIORS", "ByzantineAdversary"]

#: The recognized per-step behaviors, in the order they are applied when
#: several are active (silence last: an omitted message cannot equivocate).
BEHAVIORS = ("tamper", "equivocate", "forge", "silence")


def _is_gossip_payload(payload) -> bool:
    """True for the gossip-family ``(mask, payloads, ...)`` tuple shape."""
    return (
        isinstance(payload, tuple)
        and len(payload) >= 1
        and isinstance(payload[0], int)
        and not isinstance(payload[0], bool)
    )


def _is_vote_payload(payload) -> bool:
    """True for the consensus vote ``(phase, round, value)`` tuple shape."""
    return (
        isinstance(payload, tuple)
        and len(payload) == 3
        and isinstance(payload[0], str)
    )


class ByzantineAdversary(Adversary):
    """A (d, δ)-adversary that additionally corrupts ``b`` processes.

    Timing (schedule, delays, crashes) is delegated to ``inner``; the
    Byzantine set is drawn once at attach time from the adversary's own
    seed, so it is a pure function of ``(seed, n, b)`` — hash-stable under
    :class:`~repro.spec.runspec.RunSpec` and reproducible across engines.

    With ``b=0`` the adversary consumes no randomness and rewrites
    nothing, so runs are bit-identical to the inner adversary alone.
    """

    corrupts_traffic = True

    def __init__(
        self,
        inner: Adversary,
        b: int = 1,
        behaviors: Iterable[str] = BEHAVIORS,
        seed: int = 0,
        silence_mode: str = "total",
    ) -> None:
        chosen = tuple(behaviors)
        unknown = [name for name in chosen if name not in BEHAVIORS]
        if unknown:
            raise ConfigurationError(
                f"unknown Byzantine behaviors {unknown}; choose from "
                f"{list(BEHAVIORS)}"
            )
        if silence_mode not in ("total", "selective"):
            raise ConfigurationError(
                f"silence_mode must be 'total' or 'selective', got "
                f"{silence_mode!r}"
            )
        if b < 0:
            raise ConfigurationError(f"Byzantine set size b={b} is negative")
        self.inner = inner
        self.b = int(b)
        # Apply in canonical order regardless of how the caller listed them.
        self.behaviors = tuple(n for n in BEHAVIORS if n in chosen)
        self.seed = seed
        self.silence_mode = silence_mode
        self.byzantine_pids: FrozenSet[int] = frozenset()
        #: Corrupt messages emitted (tagged ``byz:*``) and messages omitted.
        self.corrupted = 0
        self.omitted = 0

    # -- constructors ---------------------------------------------------- #

    @classmethod
    def uniform(
        cls,
        d: int,
        delta: int,
        b: int = 1,
        behaviors: Iterable[str] = BEHAVIORS,
        seed: int = 0,
        crashes: Optional[CrashPlan] = None,
        silence_mode: str = "total",
    ) -> "ByzantineAdversary":
        """The standard benchmark timing model plus ``b`` Byzantine pids."""
        inner = ObliviousAdversary.uniform(d, delta, seed=seed,
                                           crashes=crashes)
        return cls(inner, b=b, behaviors=behaviors, seed=seed,
                   silence_mode=silence_mode)

    # -- Adversary contract (timing delegated to the inner adversary) ---- #

    @property
    def declares_bounds(self) -> bool:  # type: ignore[override]
        # Corrupt messages still take delays from the inner plan, so the
        # inner adversary's (d, δ) guarantees survive corruption.
        return getattr(self.inner, "declares_bounds", False)

    @property
    def target_d(self) -> int:
        return self.inner.target_d

    @property
    def target_delta(self) -> int:
        return self.inner.target_delta

    def on_attach(self, sim) -> None:
        super().on_attach(sim)
        self.inner.on_attach(sim)
        if self.b > sim.f:
            raise ConfigurationError(
                f"Byzantine set size b={self.b} exceeds the fault budget "
                f"f={sim.f}"
            )
        if self.b:
            rng = derive_rng(self.seed, "byz", "set", sim.n, self.b)
            self.byzantine_pids = frozenset(
                rng.sample(range(sim.n), self.b)
            )
            for pid in self.byzantine_pids:
                sim.processes[pid].byzantine = True

    def crashes_at(self, t: int) -> Set[int]:
        return self.inner.crashes_at(t)

    def schedule_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        return self.inner.schedule_at(t, alive)

    def assign_delay(self, msg: Message) -> int:
        return self.inner.assign_delay(msg)

    def delay_outbox(self, outbox: Sequence[Message], t: int) -> None:
        # Sound only because ``assign_delay`` above is a pure forward.
        self.inner.delay_outbox(outbox, t)

    def has_pending_events(self, t: int) -> bool:
        return self.inner.has_pending_events(t)

    def next_event_at(self, t: int) -> Optional[int]:
        """Always ``None``: force stepwise execution of every step.

        The inner plan could predict its next scheduled step exactly, but
        a Byzantine behavior fires inside ``corrupt_outbox`` on *any* step
        a corrupt pid is scheduled — so the leap engine must never treat a
        gap as inert on the adversary's say-so. Returning ``None`` is the
        documented stepwise fallback and is always safe.
        """
        return None

    def clone_into(self, sim) -> "ByzantineAdversary":
        dup = copy.copy(self)
        dup.inner = self.inner.clone_into(sim)
        dup.sim = sim
        return dup

    # -- the corruption hook --------------------------------------------- #

    def corrupt_outbox(self, t: int, pid: int,
                       outbox: List[Message]) -> List[Message]:
        if not outbox or pid not in self.byzantine_pids:
            return outbox
        # One derived stream per (step, pid): deterministic, independent of
        # engine strategy and of every other RNG stream in the run.
        rng = derive_rng(self.seed, "byz", "act", t, pid)
        out = list(outbox)
        for behavior in self.behaviors:
            if behavior == "tamper":
                out = self._tamper(out)
            elif behavior == "equivocate":
                out = self._equivocate(pid, out, rng)
            elif behavior == "forge":
                out = self._forge(pid, out, rng)
            elif behavior == "silence":
                out = self._silence(out, rng)
        return out

    # -- behaviors -------------------------------------------------------- #

    def _tag(self, msg: Message, behavior: str) -> None:
        msg.kind = f"byz:{behavior}:{base_kind(msg.kind)}"
        self.corrupted += 1

    def _tamper(self, out: List[Message]) -> List[Message]:
        """Mutate every relayed payload (masks gain a foreign rumor bit;
        consensus values are wrapped so they leave the value universe)."""
        for msg in out:
            msg.payload = self._tampered_payload(msg.payload)
            self._tag(msg, "tamper")
        return out

    def _tampered_payload(self, payload):
        if _is_gossip_payload(payload):
            # Claim a rumor no process started with: a bit past the
            # name space, so honest validity checks can see the lie.
            return (payload[0] | (1 << self.sim.n),) + payload[1:]
        if _is_vote_payload(payload):
            phase, rnd, value = payload
            return (phase, rnd, ("byz", value))
        if dataclasses.is_dataclass(payload) and hasattr(payload, "decided"):
            # Envelope-style wire formats (Canetti–Rabin): a shape-valid
            # copy with a corrupt decision, so honest receivers *process*
            # the lie — and propagate it — rather than crash on garbage.
            return dataclasses.replace(
                payload, decided=("byz", payload.decided)
            )
        return ("byz", payload)

    def _equivocate(self, pid: int, out: List[Message],
                    rng) -> List[Message]:
        """Conflicting payloads to different destinations in one fanout.

        Gossip-family fanouts gain one extra message carrying a *narrowed*
        claim (only the sender's own rumor) to a destination of the
        adversary's choice — a conflict with the full mask the other
        destinations received. Consensus votes and decide broadcasts are
        split-brain: destinations of one parity get the true value, the
        rest get its flip.
        """
        extra: List[Message] = []
        for msg in out:
            p = msg.payload
            if _is_gossip_payload(p) and not extra:
                narrowed = None
                if len(p) >= 2 and isinstance(p[1], dict) and pid in p[1]:
                    narrowed = {pid: p[1][pid]}
                conflicting = (1 << pid, narrowed) + tuple(p[2:])
                dst = rng.randrange(self.sim.n - 1)
                if dst >= pid:
                    dst += 1
                twin = Message(src=pid, dst=dst, payload=conflicting,
                               kind=msg.kind)
                self._tag(twin, "equivocate")
                extra.append(twin)
            elif _is_vote_payload(p):
                if msg.dst % 2 == 1:
                    phase, rnd, value = p
                    msg.payload = (phase, rnd, self._flipped(value))
                    self._tag(msg, "equivocate")
            elif base_kind(msg.kind) == "ben-or-decide":
                if msg.dst % 2 == 1:
                    msg.payload = self._flipped(p)
                    self._tag(msg, "equivocate")
        return out + extra

    @staticmethod
    def _flipped(value):
        if value == 0:
            return 1
        if value == 1:
            return 0
        return value

    def _forge(self, pid: int, out: List[Message], rng) -> List[Message]:
        """Spoof ``src`` on every outgoing message to some other pid."""
        n = self.sim.n
        for msg in out:
            spoof = rng.randrange(n - 1)
            if spoof >= pid:
                spoof += 1
            msg.src = spoof
            self._tag(msg, "forge")
        return out

    def _silence(self, out: List[Message], rng) -> List[Message]:
        """Omit messages: all of them, or a per-message coin flip."""
        if self.silence_mode == "total":
            self.omitted += len(out)
            return []
        kept = [msg for msg in out if rng.random() >= 0.5]
        self.omitted += len(out) - len(kept)
        return kept

    # -- introspection ---------------------------------------------------- #

    def summary(self) -> Tuple[int, int, int]:
        """(|byzantine set|, corrupt messages emitted, messages omitted)."""
        return (len(self.byzantine_pids), self.corrupted, self.omitted)
