"""The common coin (third voting of each Canetti–Rabin round).

We use the classic crash-model common coin (Attiya–Welch, §14.3): each
process flips 0 with probability 1/n (else 1), the flips are exchanged via
get-core, and a process outputs 0 iff it *sees* any 0.

Why it works (constant bias both ways):

* With probability (1 − 1/n)ⁿ ≥ 1/4, nobody flips 0 → every process sees
  only 1s → all output 1.
* The get-core property guarantees a common vote set S of ≥ ⌊n/2⌋+1 flips
  inside every process's view. With constant probability some process in S
  flips 0; then *everyone* sees that 0 and all output 0.

Either way, all processes agree on the coin with probability bounded below
by a constant, which makes the expected number of Canetti–Rabin rounds O(1).
"""

from __future__ import annotations

import random
from typing import Dict


def flip(rng: random.Random, n: int) -> int:
    """One process's contribution: 0 with probability 1/n, else 1."""
    return 0 if rng.random() < 1.0 / n else 1


def combine(votes: Dict[int, int]) -> int:
    """The coin output given the get-core view of everyone's flips."""
    return 0 if any(value == 0 for value in votes.values()) else 1

