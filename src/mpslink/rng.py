"""Deterministic, platform-independent keyed random values.

Every value is a SHA-256 function of the root seed plus a tuple of
integers/strings naming the consumer.  Identical keys therefore yield
identical values in any run, on any platform, and independent of how many
other draws happened before.  :func:`derive_seed` gives each point of a
``cli`` sweep its own simulation seed.  The simulation itself draws from
numpy's Philox generator: the literal engine's per-side waits
(``protocol._herald_blocks``), the omniscient engine's chunks of epochs
(``protocol._EpochDraws``, a negative-binomial sum of waits and multinomial
outcome counts per chunk, with a tie's truth in the outcome law) and the
literal engine's pair truths; no package code calls :func:`u01`.
"""

from __future__ import annotations

import hashlib

_SCALE = float(2**53)


def _digest(seed: int, key: tuple) -> bytes:
    text = ":".join([str(seed), *map(str, key)])
    return hashlib.sha256(text.encode("ascii")).digest()


def u01(seed: int, *key) -> float:
    """Uniform value in [0, 1) determined entirely by (seed, *key)."""
    value = int.from_bytes(_digest(seed, key)[:8], "big") >> 11
    return value / _SCALE


def derive_seed(seed: int, *key) -> int:
    """Stable child seed for an independent named substream."""
    return int.from_bytes(_digest(seed, key)[8:16], "big")
