"""Tests for split read/write address streams in benchmark profiles."""

from repro.workloads.spec import SPEC_PROFILES, generate_trace, spec_trace
from repro.workloads.synthetic import RegionBurstPattern
from repro.utils.rng import DeterministicRng


class TestConcentratedWrites:
    def test_bzip2_write_set_is_compact(self):
        profile = SPEC_PROFILES["bzip2"]
        trace = spec_trace("bzip2", 20000)
        writes = {addr for _g, w, addr in trace if w}
        hot_write_blocks = int(profile.footprint_blocks * 0.08)
        in_hot = sum(
            1 for _g, w, addr in trace if w and addr < hot_write_blocks
        )
        total_writes = sum(1 for _g, w, _a in trace if w)
        assert in_hot / total_writes > 0.9
        # Far fewer distinct written blocks than read blocks.
        reads = {addr for _g, w, addr in trace if not w}
        assert len(writes) < len(reads) / 2

    def test_bwaves_writes_concentrated_despite_streaming_reads(self):
        trace = spec_trace("bwaves", 20000)
        writes = sorted({addr for _g, w, addr in trace if w})
        profile = SPEC_PROFILES["bwaves"]
        hot = int(profile.footprint_blocks * 0.05)
        concentrated = sum(1 for a in writes if a < hot)
        assert concentrated / len(writes) > 0.7

    def test_profiles_without_write_pattern_share_stream(self):
        """lbm writes come from the same region bursts as its reads."""
        trace = spec_trace("lbm", 5000)
        write_regions = {addr // 128 for _g, w, addr in trace if w}
        read_regions = {addr // 128 for _g, w, addr in trace if not w}
        # Heavy overlap: same bursts produce both.
        assert len(write_regions & read_regions) > len(write_regions) * 0.8


class TestCyclicRegionRevisit:
    def test_cycle_covers_all_regions_before_repeat(self):
        rng = DeterministicRng(1)
        pattern = RegionBurstPattern(rng, footprint=64, region_blocks=8,
                                     burst_length=4, revisit="cycle")
        # 8 regions x 4-access bursts = one full cycle
        regions = [addr // 8 for addr in pattern.take(8 * 4)]
        distinct_in_cycle = set(regions)
        assert distinct_in_cycle == set(range(8))

    def test_cycle_order_is_shuffled(self):
        rng = DeterministicRng(1)
        pattern = RegionBurstPattern(rng, footprint=256, region_blocks=8,
                                     burst_length=1, revisit="cycle")
        order = [addr // 8 for addr in pattern.take(32)]
        assert order != sorted(order)

    def test_invalid_revisit_rejected(self):
        import pytest

        rng = DeterministicRng(1)
        with pytest.raises(ValueError):
            RegionBurstPattern(rng, footprint=64, revisit="zigzag")


class TestFootprintScalingOfWritePattern:
    def test_write_pattern_footprint_scales(self):
        profile = SPEC_PROFILES["bzip2"]
        full = generate_trace(profile, 5000, footprint_divisor=1)
        scaled = generate_trace(profile, 5000, footprint_divisor=8)
        max_full = max(addr for _g, w, addr in full if w)
        max_scaled = max(addr for _g, w, addr in scaled if w)
        assert max_scaled < max_full
