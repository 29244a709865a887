"""Address-pattern primitives for synthetic traces.

Each pattern is a stateful generator of block addresses inside a fixed
footprint. The patterns are chosen to span the behaviours that matter for
the paper's mechanisms:

* ``stream`` — sequential scans: high spatial (DRAM-row) locality for both
  reads and writes; AWB's best case.
* ``cyclic`` — an exact repeating scan of the footprint: the LRU-thrash
  pattern DIP/BIP is designed for.
* ``random`` — uniform references: low row locality, scattered writes;
  DBI-thrash stressor.
* ``hotcold`` — a small hot set absorbs most references; models reuse-heavy
  benchmarks with low MPKI.
* ``region`` — bursts of accesses within one DRAM-row-sized region before
  jumping: moderate row locality with working-set churn.
"""

from __future__ import annotations

from typing import List

from repro.utils.rng import U64_SPAN, DeterministicRng
from repro.utils.validation import check_positive, check_range


class AddressPattern:
    """Base class: take(n) yields the next n block addresses.

    Draws are batched: ``take(a) + take(b)`` equals ``take(a + b)``, so a
    caller may split a stream into chunks of any size.
    """

    def __init__(self, rng: DeterministicRng, footprint: int) -> None:
        check_positive("footprint", footprint)
        self.rng = rng
        self.footprint = footprint

    def take(self, count: int) -> List[int]:
        raise NotImplementedError


class StreamPattern(AddressPattern):
    """Sequential scan with a stride, wrapping at the footprint."""

    def __init__(self, rng, footprint, stride: int = 1) -> None:
        super().__init__(rng, footprint)
        check_positive("stride", stride)
        self.stride = stride
        self._cursor = 0

    def take(self, count: int) -> List[int]:
        start, stride, footprint = self._cursor, self.stride, self.footprint
        self._cursor = (start + count * stride) % footprint
        return [
            addr % footprint
            for addr in range(start, start + count * stride, stride)
        ]


class CyclicPattern(StreamPattern):
    """Alias of a stride-1 stream: an exact repeating scan (LRU's nemesis)."""

    def __init__(self, rng, footprint) -> None:
        super().__init__(rng, footprint, stride=1)


class RandomPattern(AddressPattern):
    """Uniform random references over the footprint."""

    def take(self, count: int) -> List[int]:
        footprint = self.footprint
        return [draw % footprint for draw in self.rng.next_u64s(count)]


class HotColdPattern(AddressPattern):
    """A hot subset absorbs most references; the rest scatter."""

    def __init__(
        self,
        rng,
        footprint,
        hot_fraction: float = 0.1,
        hot_probability: float = 0.9,
    ) -> None:
        super().__init__(rng, footprint)
        check_range("hot_fraction", hot_fraction, 0.0, 1.0)
        check_range("hot_probability", hot_probability, 0.0, 1.0)
        self.hot_blocks = max(1, int(footprint * hot_fraction))
        self.hot_probability = hot_probability

    def take(self, count: int) -> List[int]:
        # Each reference draws a coin, then an address in the chosen set.
        draws = self.rng.next_u64s(2 * count)
        hot, footprint, p = self.hot_blocks, self.footprint, self.hot_probability
        return [
            addr % hot if coin / U64_SPAN < p else addr % footprint
            for coin, addr in zip(draws[0::2], draws[1::2])
        ]


class RegionBurstPattern(AddressPattern):
    """Bursts of references within one region, then a jump elsewhere.

    ``region_blocks`` should match a DRAM row (128 blocks for the paper's
    8 KB rows) to model row-local phases.
    """

    def __init__(
        self,
        rng,
        footprint,
        region_blocks: int = 128,
        burst_length: int = 24,
        revisit: str = "random",
    ) -> None:
        super().__init__(rng, footprint)
        check_positive("region_blocks", region_blocks)
        check_positive("burst_length", burst_length)
        if revisit not in ("random", "cycle"):
            raise ValueError(f"revisit must be 'random' or 'cycle', got {revisit!r}")
        self.region_blocks = min(region_blocks, footprint)
        self.burst_length = burst_length
        self.revisit = revisit
        self._remaining = 0
        self._region_base = 0
        num_regions = max(1, self.footprint // self.region_blocks)
        self._num_regions = num_regions
        if revisit == "cycle":
            # A shuffled cyclic order: consecutive bursts hit unrelated
            # regions (rows), but a region is revisited only after a full
            # pass over the footprint — array codes that sweep their data.
            self._order = list(range(num_regions))
            self.rng.shuffle(self._order)
            self._cursor = 0

    def take(self, count: int) -> List[int]:
        region_blocks, burst = self.region_blocks, self.burst_length
        remaining = self._remaining
        # A random revisit draws the next region, from the same stream,
        # just before the first offset of each burst.
        starts = 0
        if self.revisit == "random" and count > remaining:
            starts = -(-(count - remaining) // burst)
        draws = self.rng.next_u64s(count + starts)
        out: List[int] = []
        pos = 0
        while len(out) < count:
            if remaining == 0:
                if self.revisit == "cycle":
                    region = self._order[self._cursor]
                    self._cursor = (self._cursor + 1) % self._num_regions
                else:
                    region = draws[pos] % self._num_regions
                    pos += 1
                self._region_base = region * region_blocks
                remaining = burst
            # Whole regions tile the footprint's prefix (region_blocks is
            # capped at the footprint), so every offset stays inside it.
            base = self._region_base
            n = min(remaining, count - len(out))
            out += [base + draw % region_blocks for draw in draws[pos:pos + n]]
            pos += n
            remaining -= n
        self._remaining = remaining
        return out


def make_pattern(
    kind: str,
    rng: DeterministicRng,
    footprint: int,
    **kwargs,
) -> AddressPattern:
    """Factory over the pattern names used by benchmark profiles."""
    key = kind.lower()
    if key == "stream":
        return StreamPattern(rng, footprint, **kwargs)
    if key == "cyclic":
        return CyclicPattern(rng, footprint)
    if key == "random":
        return RandomPattern(rng, footprint)
    if key == "hotcold":
        return HotColdPattern(rng, footprint, **kwargs)
    if key == "region":
        return RegionBurstPattern(rng, footprint, **kwargs)
    raise ValueError(f"unknown pattern kind {kind!r}")
