"""Deterministic random number generation.

Every stochastic element in the reproduction (synthetic workload generators,
BIP/BRRIP insertion coin flips, set sampling) draws from a
:class:`DeterministicRng` seeded from an explicit stream name, so the same
configuration always produces bit-identical simulations.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from typing import List, Tuple

#: 2**64 as a float: a raw draw divided by it is uniform in [0, 1).
U64_SPAN = float(1 << 64)

#: Draws per lane in :meth:`DeterministicRng.next_u64s` (the jump-ahead
#: distance between lanes). 64 was the fastest of 8-64 for batches of
#: 2048 and 8192 draws.
_LANE_ROUNDS = 64


class DeterministicRng:
    """A small, fast xorshift64* generator with named-substream derivation.

    The Python stdlib Mersenne Twister would also be deterministic, but this
    generator is cheaper per draw and makes substream derivation explicit:
    ``rng.derive("bench:mcf")`` yields an independent stream whose seed depends
    only on the parent seed and the label.
    """

    _MULTIPLIER = 0x2545F4914F6CDD1D
    _MASK64 = (1 << 64) - 1

    def __init__(self, seed: int = 0xDB1) -> None:
        # xorshift state must be non-zero; fold the seed to 64 bits.
        self._state = (seed & self._MASK64) or 0x9E3779B97F4A7C15
        self.seed = seed

    def derive(self, label: str) -> "DeterministicRng":
        """Create an independent substream keyed by ``label``."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return DeterministicRng(int.from_bytes(digest[:8], "little"))

    def next_u64(self) -> int:
        """Next raw 64-bit value."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & self._MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * self._MULTIPLIER) & self._MASK64

    def next_u64s(self, count: int) -> List[int]:
        """The next ``count`` raw 64-bit values, in draw order.

        Equal to ``count`` calls of :meth:`next_u64`: the batch path of the
        workload generators. The state sequence is cut into runs of
        ``_LANE_ROUNDS`` draws, each run's start is reached by a jump-ahead
        (:func:`_jump`), and every run then advances in lock step inside one
        big integer, a 128-bit lane per run, so each shift, mask and
        multiply below serves every lane at once.
        """
        if count <= 0:
            return []
        mask64 = self._MASK64
        rounds = min(count, _LANE_ROUNDS)
        lanes = -(-count // rounds)
        starts = [self._state]
        for _ in range(lanes - 1):
            starts.append(_jump(starts[-1]))
        x = 0
        for start in reversed(starts):
            x = (x << 128) | start
        # The low 64 bits of every lane; the high 64 hold the carries of
        # the lane's shifts and multiply and are cleared after each use.
        mask = ((1 << 128 * lanes) - 1) // ((1 << 128) - 1) * mask64
        unpack = struct.Struct(f"<{2 * lanes}Q").unpack
        nbytes = 16 * lanes
        last_lane, last_round = divmod(count - 1, rounds)
        out = [0] * (lanes * rounds)
        for r in range(rounds):
            x ^= x >> 12
            x &= mask
            x ^= (x << 25) & mask
            x ^= x >> 27
            x &= mask
            if r == last_round:
                self._state = (x >> (128 * last_lane)) & mask64
            words = unpack(((x * self._MULTIPLIER) & mask).to_bytes(
                nbytes, "little"))
            out[r::rounds] = words[0::2]
        del out[count:]
        return out

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_u64() / U64_SPAN

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.random() < probability

    def choice(self, items):
        """Uniformly pick one element from a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle (the draws of ``randint(0, i)``)."""
        swaps = len(items) - 1
        if swaps < 1:
            return
        for i, draw in zip(range(swaps, 0, -1), self.next_u64s(swaps)):
            j = draw % (i + 1)
            items[i], items[j] = items[j], items[i]

    def geometric(self, mean: float) -> int:
        """Geometric-ish non-negative integer with the given mean (>= 0).

        The scalar reference for the instruction gaps that
        ``repro.workloads.spec`` draws in batches; tests hold the two equal.
        """
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if mean == 0:
            return 0
        # Inverse-CDF sampling of a geometric distribution on {0, 1, 2, ...}.
        p = 1.0 / (mean + 1.0)
        u = self.random()
        # Guard u == 0 (log undefined) by resampling the largest representable.
        if u <= 0.0:
            u = 2.0 ** -64
        return int(math.log(u) / math.log(1.0 - p))


@functools.lru_cache(maxsize=None)
def _jump_tables() -> Tuple[List[int], ...]:
    """The state step raised to ``_LANE_ROUNDS``, as eight byte tables.

    The step is linear over GF(2), so the state ``_LANE_ROUNDS`` draws on
    is the XOR of the images of the state's set bits; entry ``v`` of table
    ``k`` is the XOR of the images of the bits of byte value ``v`` at byte
    ``k``.
    """
    images = []
    for bit in range(64):
        x = 1 << bit
        for _ in range(_LANE_ROUNDS):  # the state step of next_u64
            x ^= x >> 12
            x ^= (x << 25) & DeterministicRng._MASK64
            x ^= x >> 27
        images.append(x)
    tables = []
    for byte in range(8):
        table = [0] * 256
        for value in range(1, 256):
            low = value & -value
            table[value] = (
                table[value ^ low] ^ images[8 * byte + low.bit_length() - 1]
            )
        tables.append(table)
    return tuple(tables)


def _jump(x: int) -> int:
    """The state ``_LANE_ROUNDS`` draws after state ``x``."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _jump_tables()
    return (
        t0[x & 255] ^ t1[x >> 8 & 255] ^ t2[x >> 16 & 255]
        ^ t3[x >> 24 & 255] ^ t4[x >> 32 & 255] ^ t5[x >> 40 & 255]
        ^ t6[x >> 48 & 255] ^ t7[x >> 56]
    )
