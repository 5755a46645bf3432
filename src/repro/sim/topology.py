"""Communication topologies: who may gossip with whom.

The paper's model is the complete graph — every process can address every
other — and that stays the default. This module adds the topology axis the
related rumor-spreading literature studies (Panagiotou & Speidel's
asynchronous push–pull on G(n,p), expander and small-world spreading):
a :class:`Topology` is an immutable undirected graph over the pids, built
deterministically from ``derive_rng(seed, "topology", name)`` so the edge
set is a pure function of ``(topology config, seed, n)`` — the same
discipline every other random choice in the simulator follows.

Families (registered in :data:`TOPOLOGY_BUILDERS`):

``complete``
    The paper's model. Handled as the *absence* of a topology everywhere
    downstream: contexts keep their unrestricted ``randrange(n)`` target
    draw (zero extra RNG draws, bit-identical to the pre-topology code).
``ring``
    Circulant lattice: each pid is adjacent to its ``k`` nearest pids on
    each side (default ``k=1``, the cycle). Connected, 2k-regular.
``gnp``
    Erdős–Rényi G(n, p): each unordered pair is an edge independently
    with probability ``p`` (default ``2·ln(n)/n``, safely above the
    ``ln(n)/n`` connectivity threshold). May be disconnected for small p.
``random-regular``
    Uniform-ish random ``degree``-regular graph via the configuration
    model with restarts (default ``degree=4``); a.a.s. an expander.
``small-world``
    Watts–Strogatz: ring lattice with ``k`` neighbors (k even, default 4)
    whose edges are rewired independently with probability ``beta``
    (default 0.1) to uniform random non-adjacent targets.

Graphs are built once per run (in the spec builder) and shared read-only
by every process context and by simulation forks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .._util import ln
from .errors import ConfigurationError, Registry
from .rng import derive_rng

__all__ = [
    "TOPOLOGY_BUILDERS",
    "Topology",
    "build_topology",
    "normalize_topology",
    "parse_topology_arg",
    "topology_name",
]


class Topology:
    """An immutable undirected graph over pids ``0..n-1``.

    Holds per-pid sorted neighbor tuples (the view handed to process
    contexts) plus cached connectivity structure for eligibility and
    reachability checks. Instances are shared, never mutated: simulation
    forks reference the same object.
    """

    __slots__ = ("name", "n", "params", "_neighbors", "_components")

    def __init__(self, name: str, n: int,
                 neighbors: Sequence[Sequence[int]],
                 params: Optional[Mapping[str, Any]] = None) -> None:
        if len(neighbors) != n:
            raise ConfigurationError(
                f"topology {name!r} built {len(neighbors)} adjacency rows "
                f"for n={n}"
            )
        self.name = name
        self.n = n
        self.params: Dict[str, Any] = dict(params or {})
        self._neighbors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(set(row))) for row in neighbors
        )
        for pid, row in enumerate(self._neighbors):
            if any(q == pid or not 0 <= q < n for q in row):
                raise ConfigurationError(
                    f"topology {name!r} has an invalid neighbor row for "
                    f"pid {pid}: {row}"
                )
        self._components: Optional[List[List[int]]] = None

    # -- structure --------------------------------------------------------- #

    @property
    def is_complete(self) -> bool:
        return self.name == "complete"

    def neighbors(self, pid: int) -> Tuple[int, ...]:
        """The sorted pids adjacent to ``pid``."""
        return self._neighbors[pid]

    # -- connectivity ------------------------------------------------------ #

    def components(self) -> List[List[int]]:
        """Connected components as sorted pid lists, largest first."""
        if self._components is None:
            seen = [False] * self.n
            components: List[List[int]] = []
            for start in range(self.n):
                if seen[start]:
                    continue
                seen[start] = True
                queue = deque([start])
                component = [start]
                while queue:
                    u = queue.popleft()
                    for v in self._neighbors[u]:
                        if not seen[v]:
                            seen[v] = True
                            component.append(v)
                            queue.append(v)
                components.append(sorted(component))
            components.sort(key=lambda c: (-len(c), c[0]))
            self._components = components
        return self._components

    def connected(self) -> bool:
        return len(self.components()) <= 1

    def largest_component_size(self) -> int:
        components = self.components()
        return len(components[0]) if components else 0


# -- builders --------------------------------------------------------------- #
#
# Each builder maps (n, rng, **knobs) to an adjacency list. The rng is a
# dedicated ``derive_rng(seed, "topology", name)`` substream, so topology
# construction never perturbs the per-process or adversary streams.

def _empty_adjacency(n: int) -> List[set]:
    return [set() for _ in range(n)]


def _add_edge(adjacency: List[set], u: int, v: int) -> None:
    adjacency[u].add(v)
    adjacency[v].add(u)


def _build_ring(n: int, rng, *, k: int = 1) -> List[set]:
    if k < 1:
        raise ConfigurationError(f"ring needs k >= 1, got k={k}")
    adjacency = _empty_adjacency(n)
    span = min(k, (n - 1) // 2 if n > 2 else n - 1)
    for u in range(n):
        for offset in range(1, span + 1):
            _add_edge(adjacency, u, (u + offset) % n)
    # Even n with 2k >= n-1 leaves the antipodal pair uncovered by the
    # span clamp; close it so "ring with huge k" degrades to complete.
    if n > 2 and 2 * k >= n - 1 and n % 2 == 0:
        for u in range(n // 2):
            _add_edge(adjacency, u, u + n // 2)
    return adjacency


def _build_gnp(n: int, rng, *, p: Optional[float] = None) -> List[set]:
    if p is None:
        # Supercritical default: 2·ln(n)/n is a factor 2 above the
        # connectivity threshold, where PS push–pull spreads in Θ(log n).
        p = min(1.0, 2.0 * ln(max(2, n)) / n)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"gnp needs 0 <= p <= 1, got p={p}")
    adjacency = _empty_adjacency(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                _add_edge(adjacency, u, v)
    return adjacency


def _build_random_regular(n: int, rng, *, degree: int = 4,
                          max_restarts: int = 200) -> List[set]:
    if degree < 1 or degree >= n:
        raise ConfigurationError(
            f"random-regular needs 1 <= degree < n, got degree={degree}, "
            f"n={n}"
        )
    if n * degree % 2:
        raise ConfigurationError(
            f"random-regular needs n·degree even, got n={n}, "
            f"degree={degree}"
        )
    # Steger–Wormald pairing: draw two half-edge stubs at a time and
    # reject only the bad draws (self-loop or parallel edge) locally,
    # instead of restarting the whole matching — a full restart on
    # collision succeeds with probability ~exp(-(degree²-1)/4) per
    # attempt, which already fails routinely at degree 6.  Pairing can
    # still dead-end near the tail (the remaining stubs may admit no
    # simple edge), so a bounded outer restart loop backs it up.  All
    # randomness comes from ``rng``, keeping the graph an exact function
    # of the stream.
    for _ in range(max_restarts):
        stubs = [pid for pid in range(n) for _ in range(degree)]
        adjacency = _empty_adjacency(n)
        stuck = False
        while stubs and not stuck:
            for _ in range(100):
                i = rng.randrange(len(stubs))
                j = rng.randrange(len(stubs))
                u, v = stubs[i], stubs[j]
                if i != j and u != v and v not in adjacency[u]:
                    break
            else:
                stuck = True
                continue
            _add_edge(adjacency, u, v)
            for idx in sorted((i, j), reverse=True):
                stubs[idx] = stubs[-1]
                stubs.pop()
        if not stuck:
            return adjacency
    raise ConfigurationError(
        f"random-regular(n={n}, degree={degree}) found no simple pairing "
        f"in {max_restarts} attempts"
    )


def _build_small_world(n: int, rng, *, k: int = 4,
                       beta: float = 0.1) -> List[set]:
    if k < 2 or k % 2:
        raise ConfigurationError(
            f"small-world needs an even k >= 2, got k={k}"
        )
    if not 0.0 <= beta <= 1.0:
        raise ConfigurationError(
            f"small-world needs 0 <= beta <= 1, got beta={beta}"
        )
    if k >= n:
        raise ConfigurationError(
            f"small-world needs k < n, got k={k}, n={n}"
        )
    # Watts–Strogatz: start from the ring lattice, then rewire each
    # clockwise lattice edge (u, u+offset) with probability beta to a
    # uniform random non-neighbor. The scan order (by node, then offset)
    # is fixed, so the graph is a pure function of the rng stream.
    adjacency = _build_ring(n, rng, k=k // 2)
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() >= beta or v not in adjacency[u]:
                continue
            candidates = [
                w for w in range(n) if w != u and w not in adjacency[u]
            ]
            if not candidates:
                continue
            w = candidates[rng.randrange(len(candidates))]
            adjacency[u].discard(v)
            adjacency[v].discard(u)
            _add_edge(adjacency, u, w)
    return adjacency


#: name -> builder(n, rng, **knobs) -> adjacency list.  ``complete`` has
#: no builder: it normalizes to no topology at all.
TOPOLOGY_BUILDERS = Registry("topology", {
    "complete": None,
    "ring": _build_ring,
    "gnp": _build_gnp,
    "random-regular": _build_random_regular,
    "small-world": _build_small_world,
})

TopologyConfig = Union[None, str, Mapping[str, Any]]


def normalize_topology(config: TopologyConfig) -> Optional[Dict[str, Any]]:
    """Canonicalize a spec's topology field.

    ``None``, ``"complete"`` and ``{"name": "complete"}`` (with no knobs)
    all mean the paper's model and normalize to ``None`` — so an explicit
    complete topology hashes and executes exactly like the default. Any
    other form normalizes to ``{"name": ..., **knobs}`` with the name
    validated against the registered families.
    """
    if config is None:
        return None
    if isinstance(config, str):
        cfg: Dict[str, Any] = {"name": config}
    elif isinstance(config, Mapping):
        cfg = dict(config)
    else:
        raise ConfigurationError(
            f"topology must be a name or a mapping, got "
            f"{type(config).__name__}"
        )
    name = cfg.get("name")
    TOPOLOGY_BUILDERS[name]  # an unknown family fails here, by name
    if name == "complete":
        if len(cfg) > 1:
            raise ConfigurationError(
                f"the complete topology takes no knobs, got "
                f"{sorted(k for k in cfg if k != 'name')}"
            )
        return None
    return cfg


def topology_name(config: TopologyConfig) -> str:
    """The family name of a (possibly unnormalized) topology config."""
    normalized = normalize_topology(config)
    return "complete" if normalized is None else normalized["name"]


def build_topology(config: TopologyConfig, n: int,
                   seed: int) -> Optional[Topology]:
    """Build the graph for ``config``, or ``None`` for the complete model.

    The graph is a pure function of ``(config, seed, n)``: all randomness
    comes from the sealed ``derive_rng(seed, "topology", name)`` stream.
    """
    cfg = normalize_topology(config)
    if cfg is None:
        return None
    knobs = dict(cfg)
    name = knobs.pop("name")
    rng = derive_rng(seed, "topology", name)
    try:
        adjacency = TOPOLOGY_BUILDERS[name](n, rng, **knobs)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad knobs for topology {name!r}: {exc}"
        ) from None
    return Topology(name, n, adjacency, params=knobs)


def parse_topology_arg(text: Optional[str]) -> TopologyConfig:
    """Parse the CLI form ``name`` or ``name:key=value,key=value``.

    Values are parsed as JSON scalars when possible (``p=0.2`` becomes a
    float, ``k=4`` an int), else kept as strings. Returns a config
    suitable for a RunSpec's ``topology`` field (``None`` for complete).
    """
    import json

    if text is None or not text.strip():
        return None
    name, _, knob_text = text.partition(":")
    name = name.strip()
    config: Dict[str, Any] = {"name": name}
    if knob_text.strip():
        for item in knob_text.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key.strip():
                raise ConfigurationError(
                    f"bad topology knob {item!r}; expected key=value"
                )
            try:
                value: Any = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            config[key.strip()] = value
    return normalize_topology(config)
