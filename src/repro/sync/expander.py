"""Deterministic expander-like communication overlays.

The Chlebus–Kowalski synchronous gossip results [8, 9] route communication
along explicit expander graphs so that O(polylog n) rounds over an
O(log n)-degree overlay disseminate everything with O(n polylog n) messages.
:func:`skip_graph_neighbors` is the deterministic "±2^j" skip overlay (a
circulant graph): degree ≤ 2⌈log₂ n⌉, diameter ≤ ⌈log₂ n⌉, and decent
vertex expansion; fully deterministic and dependency-free.
"""

from __future__ import annotations

from typing import Dict, List

from .._util import ceil_log2


def skip_graph_neighbors(n: int) -> Dict[int, List[int]]:
    """Circulant overlay: i ↔ (i ± 2^j) mod n for 0 ≤ j ≤ ⌈log₂ n⌉.

    Any pid reaches any other within ⌈log₂ n⌉ hops (binary decomposition of
    the ring distance), so flooding over this overlay completes in
    logarithmically many rounds with n·degree messages per round.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    hops = []
    j = 0
    while (1 << j) <= n // 2:
        hops.append(1 << j)
        j += 1
    if not hops:
        hops = [1] if n > 1 else []
    neighbors: Dict[int, List[int]] = {}
    for i in range(n):
        peers = set()
        for h in hops:
            peers.add((i + h) % n)
            peers.add((i - h) % n)
        peers.discard(i)
        neighbors[i] = sorted(peers)
    return neighbors


def overlay_diameter_bound(n: int) -> int:
    """Hop bound for the skip overlay: ⌈log₂ n⌉ (binary routing)."""
    return max(1, ceil_log2(n))

