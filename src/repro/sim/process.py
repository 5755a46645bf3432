"""Process abstraction: the algorithm API and per-process bookkeeping.

The paper's model gives each process, at every *local step*, the ability to
(1) receive a subset of messages sent to it, (2) compute, and (3) send one or
more messages. :class:`Algorithm` is the contract algorithm code implements;
:class:`Context` is the only window algorithm code gets onto the system.

Crucially the context exposes **no global time and no synchrony bounds** —
algorithms are genuinely asynchronous, exactly as the paper requires ("the
processes have no global clocks, nor do they manipulate the synchrony
bounds").
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from array import array
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import AlgorithmError
from .message import _SHORT_OUTBOX, FanOut, Message, pack, typecode
from .rng import clone_rng


class ProcessStatus(enum.Enum):
    """Lifecycle of a process: alive until crashed; crashes are permanent."""

    ALIVE = "alive"
    CRASHED = "crashed"


class Context:
    """The capability object handed to algorithm code at each local step.

    Exposes only what the asynchronous model allows a process to know:
    its own pid, the system size ``n``, the failure bound ``f``, a private
    random stream, and the ability to send messages. Sends are buffered in
    :attr:`outbox` and drained by the engine after the step returns.

    ``neighbors`` restricts the process to a communication topology: when
    given (a sequence of adjacent pids, excluding ``pid`` itself), target
    draws sample from it and sends outside it are rejected. The default
    ``None`` is the paper's complete graph, where every pid — including
    the process itself — is addressable; that path is bit-identical to
    the pre-topology context (same RNG draws, same validation).
    """

    __slots__ = ("pid", "n", "f", "rng", "outbox", "neighbors",
                 "_neighbor_set", "_pid_code")

    def __init__(self, pid: int, n: int, f: int, rng: random.Random,
                 neighbors: Optional[Sequence[int]] = None) -> None:
        self.pid = pid
        self.n = n
        self.f = f
        self.rng = rng
        self.outbox: List[Message] = []
        # The typecode a fan-out's destinations are packed in.
        self._pid_code = typecode(n - 1)
        if neighbors is None:
            self.neighbors: Optional[Tuple[int, ...]] = None
            self._neighbor_set: Optional[frozenset] = None
        else:
            self.neighbors = tuple(neighbors)
            self._neighbor_set = frozenset(self.neighbors)

    @property
    def isolated(self) -> bool:
        """True when a restricted topology gives this process no neighbors.

        An isolated process can neither spread nor gather anything; the
        algorithms skip their target draw in that case (and the builder
        reports such runs as ``topology-disconnected``).
        """
        return self.neighbors is not None and not self.neighbors

    def peers(self) -> Union[range, Tuple[int, ...]]:
        """Every pid this process may address.

        The complete graph yields ``range(n)`` (including the process
        itself, which the broadcast algorithms filter); a restricted
        topology yields its neighbor tuple (which never contains self).
        """
        if self.neighbors is None:
            return range(self.n)
        return self.neighbors

    def _bad_destination(self, dst: int) -> AlgorithmError:
        if not 0 <= dst < self.n:
            return AlgorithmError(f"send() to invalid pid {dst} (n={self.n})")
        return AlgorithmError(
            f"send() from {self.pid} to non-neighbor {dst} under a "
            "restricted topology"
        )

    def send(self, dst: int, payload: Any, kind: str = "msg") -> Message:
        """Queue one point-to-point message to ``dst``."""
        allowed = self._neighbor_set
        if not 0 <= dst < self.n or (allowed is not None
                                     and dst not in allowed):
            raise self._bad_destination(dst)
        msg = Message(self.pid, dst, payload, kind)
        self.outbox.append(msg)
        return msg

    def send_many(self, dsts: Iterable[int], payload: Any, kind: str = "msg") -> int:
        """Queue one message per destination, all sharing ``payload``;
        returns the number queued.

        The batch primitive of the send path: destinations are validated
        exactly as :meth:`send` validates them, and the outbox grows only
        once every one of them passed — a call that raises queues nothing.
        From ``_SHORT_OUTBOX`` destinations on, the call is queued as one
        :class:`~repro.sim.message.FanOut` record over the destinations
        packed once in an ``array`` of ``typecode(n - 1)`` instead of a
        :class:`Message` per destination; a sender that keeps its
        destinations packed that way (and never changes them) has its
        array queued as is, without a copy.
        """
        code = self._pid_code
        if type(dsts) is not array or dsts.typecode != code:
            dsts = tuple(dsts)
            if len(dsts) >= _SHORT_OUTBOX:
                # Left a tuple if a pid does not fit: the loop raises.
                dsts = pack(code, dsts)
        n = self.n
        allowed = self._neighbor_set
        if (type(dsts) is array and len(dsts) >= _SHORT_OUTBOX
                and max(dsts) < n
                and (allowed is None or allowed.issuperset(dsts))):
            self.outbox.append(FanOut(self.pid, dsts, payload, kind))
            return len(dsts)
        # A short send, or a fan-out this loop rejects with the error
        # send() would raise for its first bad destination.
        pid = self.pid
        batch = []
        queue = batch.append
        for dst in dsts:
            if not 0 <= dst < n or (allowed is not None
                                    and dst not in allowed):
                raise self._bad_destination(dst)
            queue(Message(pid, dst, payload, kind))
        self.outbox.extend(batch)
        return len(batch)

    def random_peer(self) -> int:
        """A uniformly random gossip target.

        On the complete graph this is the paper's epidemic step "choose q
        uniformly at random from [n]" (may be self) — one ``randrange(n)``
        draw, exactly as before topologies existed. Under a restricted
        topology the draw is uniform over this process's neighbors.
        """
        if self.neighbors is None:
            return self.rng.randrange(self.n)
        if not self.neighbors:
            raise AlgorithmError(
                f"process {self.pid} is isolated: no neighbor to gossip "
                "with (guard with ctx.isolated)"
            )
        return self.neighbors[self.rng.randrange(len(self.neighbors))]

    def random_peers(self, k: int) -> List[int]:
        """``k`` :meth:`random_peer` draws in one call: the same values in
        draw order, the same stream state afterwards.

        On the complete graph this spells out CPython's ``randrange(n)`` —
        ``getrandbits(n.bit_length())`` redrawn until below ``n`` — without
        the three calls per draw; ``tests/sim/test_process.py`` pins the
        equivalence on every CI interpreter.
        """
        if self.neighbors is not None:
            return [self.random_peer() for _ in range(k)]
        n = self.n
        bits = n.bit_length()
        getrandbits = self.rng.getrandbits
        peers: List[int] = []
        while len(peers) < k:
            draw = getrandbits(bits)
            if draw < n:
                peers.append(draw)
        return peers

    def clone(self) -> "Context":
        """O(1) copy for simulation forking.

        The RNG stream is duplicated at its current state; the neighbor
        view is shared (topologies are immutable); the outbox starts
        empty because the engine resets it at every ``run_step`` anyway (a
        fork between steps never observes a populated outbox).
        """
        return Context(self.pid, self.n, self.f, clone_rng(self.rng),
                       self.neighbors)


class SubContext(Context):
    """The context a protocol layer hands to the layer it embeds.

    Consensus runs gossip inside envelopes, multivalued consensus runs
    binary consensus inside envelopes of its own: the embedded layer
    must see the very same process — pid, n, f, the one RNG stream,
    the neighbor view — but its sends belong to the embedding layer.
    So this *is* ``parent``'s context (every :class:`Context` slot is
    shared with it, and every method but the send path is inherited);
    each ``send``/``send_many`` call wraps its payload once, in
    ``wrap(payload, kind)``, the owner's envelope builder, and passes
    that to ``parent``'s own call. Nested layers compose, innermost wrap
    first, and a fan-out stays one ``FanOut`` carrying one envelope.

    Built per step around the live parent (a :class:`Context` or
    another ``SubContext``), so it shares that step's outbox; it
    carries no state of its own.
    """

    __slots__ = ("_parent", "_wrap")

    def __init__(self, parent: Context,
                 wrap: Callable[[Any, str], Any]) -> None:
        for name in Context.__slots__:
            setattr(self, name, getattr(parent, name))
        self._parent = parent
        self._wrap = wrap

    def send(self, dst: int, payload: Any, kind: str = "msg") -> Message:
        return self._parent.send(dst, self._wrap(payload, kind), kind)

    def send_many(self, dsts: Iterable[int], payload: Any,
                  kind: str = "msg") -> int:
        return self._parent.send_many(dsts, self._wrap(payload, kind), kind)


class Algorithm(ABC):
    """Contract for per-process algorithm code.

    Subclasses hold all per-process state. A subclass that the adaptive
    lower-bound adversary may fork (it forks whole simulations to evaluate
    the distribution of an algorithm's future behaviour) defines
    ``clone()``, an independent copy of that state; see
    :meth:`repro.core.base.GossipAlgorithm.clone`.
    """

    @abstractmethod
    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        """Execute one local step: consume ``inbox``, compute, send via ctx.

        A receiver reads ``src``, ``kind``, ``payload`` and ``sent_at`` off
        each inbox entry, and nothing else. An entry may be a
        :class:`~repro.sim.message.FanOut` shared by every receiver of one
        ``send_many``; the engine hands out plain :class:`Message` objects
        instead whenever anything can look at single messages (an attached
        observer, a traffic-rewriting adversary, a delay layer that does
        not declare ``stamps_fanouts``).
        """

    def on_start(self, ctx: Context) -> None:
        """Called once before the first step (no messages may be sent)."""

    def is_quiescent(self) -> bool:
        """True if this process will send nothing unless a message arrives.

        Used by completion monitors: when every live process is quiescent and
        the network is empty, no message is ever sent again. The default is
        conservative (never quiescent).
        """
        return False

    def summary(self) -> dict:
        """Small diagnostic snapshot of algorithm state (for traces/tests)."""
        return {}


class ProcessHandle:
    """Engine-side record for one process: algorithm + context + status."""

    __slots__ = ("pid", "algorithm", "ctx", "status", "crashed_at")

    def __init__(self, pid: int, algorithm: Algorithm, ctx: Context) -> None:
        self.pid = pid
        self.algorithm = algorithm
        self.ctx = ctx
        self.status = ProcessStatus.ALIVE
        self.crashed_at: Optional[int] = None

    def crash(self, now: int) -> None:
        """Permanently halt this process (the paper's crash failure)."""
        self.status = ProcessStatus.CRASHED
        self.crashed_at = now

    def clone(self) -> "ProcessHandle":
        """Copy for simulation forking: algorithm + context + status."""
        dup = ProcessHandle.__new__(ProcessHandle)
        dup.pid = self.pid
        dup.algorithm = self.algorithm.clone()
        dup.ctx = self.ctx.clone()
        dup.status = self.status
        dup.crashed_at = self.crashed_at
        return dup

    def run_step(self, inbox: List[Message]) -> List[Message]:
        """Run one local step and return its outbox (messages and fan-out
        records; ``Metrics.messages_sent`` counts the messages)."""
        self.ctx.outbox = []
        self.algorithm.on_step(self.ctx, inbox)
        return self.ctx.outbox
