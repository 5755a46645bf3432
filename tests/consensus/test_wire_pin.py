"""Wire pin: the exact message stream of consensus over every transport.

Consensus embeds gossip (and multivalued consensus embeds binary
consensus) through ``SubContext``; how a layer wraps the sends of the
layer it embeds must not change what goes on the wire. Each run below
is pinned by a SHA-256 over its expanded message stream — per message
``(t, src, dst, kind, uid - first uid, delay)`` in send order — plus
the message count and the ``BitMeterObserver`` total, which sizes every
envelope, history included, as it was when sent.
"""

from hashlib import sha256

import pytest

from repro.adversary.crash_plans import random_crashes
from repro.adversary.oblivious import ObliviousAdversary
from repro.consensus.multivalued import MultivaluedConsensus
from repro.sim.bits import BitMeter
from repro.sim.engine import Simulation
from repro.sim.events import BitMeterObserver, Observer
from repro.sim.monitor import PredicateMonitor
from repro.spec.builder import build
from repro.spec.registry import TRANSPORTS
from repro.spec.runspec import RunSpec


class WireDigest(Observer):
    def __init__(self) -> None:
        self.digest = sha256()
        self.first_uid = None
        self.messages = 0

    def on_send(self, t, msg) -> None:
        if self.first_uid is None:
            self.first_uid = msg.uid
        self.digest.update(
            f"{t},{msg.src},{msg.dst},{msg.kind},"
            f"{msg.uid - self.first_uid},{msg.delay};".encode())
        self.messages += 1


def _observed(n):
    return WireDigest(), BitMeterObserver(BitMeter(n))


def _pin(sim, wire):
    return wire.messages, sim.metrics.bits_sent, wire.digest.hexdigest()


def canetti_rabin_wire(transport, seed):
    wire, bits = _observed(16)
    built = build(RunSpec(kind="consensus", algorithm=transport, n=16, f=7,
                          d=2, delta=2, seed=seed, crashes=3),
                  observers=(wire, bits))
    run = built.run()
    assert run.completed and run.agreement and run.validity
    return _pin(built.sim, wire)


def multivalued_wire(transport, seed):
    """``run_multivalued_consensus``'s run at n = 8, f = 3, d = δ = 2 with
    3 random crashes, observed."""
    n, f = 8, 3
    wire, bits = _observed(n)
    sim = Simulation(
        n=n, f=f,
        algorithms=[MultivaluedConsensus(pid, n, f, f"value-{pid}",
                                         TRANSPORTS[transport])
                    for pid in range(n)],
        adversary=ObliviousAdversary.uniform(
            2, 2, seed=seed, crashes=random_crashes(n, 3, 32, seed=seed)),
        monitor=PredicateMonitor(
            lambda s: all(s.algorithm(pid).decided is not None
                          for pid in s.alive_pids)),
        seed=seed, observers=(wire, bits),
    )
    assert sim.run(max_steps=30_000).completed
    return _pin(sim, wire)


#: (transport, seed) -> (messages, bits_sent, stream SHA-256)
CANETTI_RABIN = {
    ("all-to-all", 0): (
        2540, 5131080,
        "3eccec8b158d081c807138fb4e8d2f6692e5961675bbd4e8fe20956f830ee22f"),
    ("all-to-all", 1): (
        2415, 5268525,
        "b91d0727270845dbc7b62dca2d9d704971b50a578aa874790ec2051450487efd"),
    ("ears", 0): (
        1027, 2186612,
        "fd6899efcb55cdd108ec1a2dfd81464b4fbf6fd28f066cab92e89b8efc3ab7f1"),
    ("ears", 1): (
        1046, 2244608,
        "852124a01c0d2bb71ccf5d21087f90501d75a4b5656430bcf52089d47c6f53c9"),
    ("sears", 0): (
        3382, 8862021,
        "c4c6b15b18e4dd3674b43f75d855f591e6024b27749644a24623aa17eaafba8d"),
    ("sears", 1): (
        3301, 8434392,
        "3566886ad5da013edacf64730943e43af59f2e5fa833c9d3675c78360e075179"),
    ("tears", 0): (
        6494, 16327563,
        "042489a31091da8231f1ee17a73485d946c88298cf79d10094a5a8cbbdd531da"),
    ("tears", 1): (
        6435, 15620955,
        "92cf5beec41c6646455d16e11244f6a3bef1539b4c640126237b56edd98abcd8"),
}

MULTIVALUED = {
    ("all-to-all", 0): (
        532, 1285865,
        "58c3e5318d6018a13258f3b4da41ddc50bf87fee716dd1b7b9e775ecd8c095d6"),
    ("all-to-all", 1): (
        588, 1298290,
        "fcc1de75bb5f5410e23cec0fdf64e33d5d62a2d9e2671924e8c4fc4b2014c6e1"),
    ("tears", 0): (
        1764, 4276818,
        "9c926f0424e9015e682c9615b735af5ed16bc10b644a9cca243376349a94aeee"),
    ("tears", 1): (
        1631, 3833466,
        "6a24ad5c15c59a3741aa645fe97e9b23caeaeda2a78e18e7e873f798cd3003e0"),
}


@pytest.mark.parametrize("transport, seed", sorted(CANETTI_RABIN))
def test_canetti_rabin_wire(transport, seed):
    assert canetti_rabin_wire(transport, seed) == CANETTI_RABIN[
        transport, seed]


@pytest.mark.parametrize("transport, seed", sorted(MULTIVALUED))
def test_multivalued_wire(transport, seed):
    assert multivalued_wire(transport, seed) == MULTIVALUED[transport, seed]
