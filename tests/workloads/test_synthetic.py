"""Unit tests for address-pattern primitives."""

import pytest

from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import (
    CyclicPattern,
    HotColdPattern,
    RandomPattern,
    RegionBurstPattern,
    StreamPattern,
    make_pattern,
)


def rng():
    return DeterministicRng(42)


class TestStream:
    def test_sequential_and_wrapping(self):
        pattern = StreamPattern(rng(), footprint=4)
        assert pattern.take(6) == [0, 1, 2, 3, 0, 1]

    def test_stride(self):
        pattern = StreamPattern(rng(), footprint=8, stride=2)
        assert pattern.take(5) == [0, 2, 4, 6, 0]

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            StreamPattern(rng(), footprint=8, stride=0)


class TestCyclic:
    def test_exact_cycle(self):
        pattern = CyclicPattern(rng(), footprint=3)
        first = pattern.take(3)
        second = pattern.take(3)
        assert first == second == [0, 1, 2]


class TestRandom:
    def test_addresses_in_footprint(self):
        pattern = RandomPattern(rng(), footprint=100)
        for addr in pattern.take(1000):
            assert 0 <= addr < 100

    def test_covers_footprint(self):
        pattern = RandomPattern(rng(), footprint=8)
        seen = set(pattern.take(500))
        assert seen == set(range(8))


class TestHotCold:
    def test_hot_set_dominates(self):
        pattern = HotColdPattern(
            rng(), footprint=1000, hot_fraction=0.1, hot_probability=0.9
        )
        addresses = pattern.take(5000)
        hot_hits = sum(1 for a in addresses if a < 100)
        assert hot_hits > 4000  # ~90% plus cold references landing low

    def test_all_in_footprint(self):
        pattern = HotColdPattern(rng(), footprint=50)
        for addr in pattern.take(500):
            assert 0 <= addr < 50

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            HotColdPattern(rng(), footprint=10, hot_fraction=1.5)


class TestRegionBurst:
    def test_burst_stays_in_one_region(self):
        pattern = RegionBurstPattern(
            rng(), footprint=1024, region_blocks=64, burst_length=16
        )
        burst = pattern.take(16)
        regions = {addr // 64 for addr in burst}
        assert len(regions) == 1

    def test_regions_change_between_bursts(self):
        pattern = RegionBurstPattern(
            rng(), footprint=65536, region_blocks=64, burst_length=8
        )
        regions = {addr // 64 for addr in pattern.take(50)}
        assert len(regions) > 3

    def test_all_in_footprint(self):
        pattern = RegionBurstPattern(rng(), footprint=100, region_blocks=64)
        for addr in pattern.take(500):
            assert 0 <= addr < 100


class TestFactory:
    def test_all_kinds(self):
        for kind, cls in [
            ("stream", StreamPattern),
            ("cyclic", CyclicPattern),
            ("random", RandomPattern),
            ("hotcold", HotColdPattern),
            ("region", RegionBurstPattern),
        ]:
            assert isinstance(make_pattern(kind, rng(), 64), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_pattern("fractal", rng(), 64)
