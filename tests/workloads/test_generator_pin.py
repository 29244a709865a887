"""The batched trace generator is pinned to the scalar one it replaced.

The digests below were taken from the per-reference generator (one
address-pattern call and one ``geometric()`` draw per record). Any change to a
trace's records changes the job keys of every cached result and every
published figure, so a generator edit that moves one of them must be a
deliberate, re-pinned change.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scaling import QUICK_SCALE
from repro.utils.rng import DeterministicRng
from repro.workloads import spec as spec_module
from repro.workloads.mix import CORE_ADDRESS_STRIDE
from repro.workloads.spec import (
    SPEC_PROFILES,
    TRACE_CHUNK_REFS,
    _geometric_gaps,
    generate_trace,
)
from repro.workloads.synthetic import make_pattern

#: sha256 over every pinned trace of each profile, then of the quick 4-core
#: mixes (see :func:`_digest` for the byte layout).
PINNED = {
    "mcf": "e529db0077e1dab41a8c0e3562f498cdb826c53de973d3b18797e1cb263b4381",
    "lbm": "4893e7213d3c0f915ad27d097b131326cd53e33546ef8021d6b763d4426ddd36",
    "GemsFDTD": "f5cdfff17ef1d855fe237a072446a97efde692795d2e2ef952aee177eb567481",
    "soplex": "c1478f74d33ee139cbf1c20e0e7d6f6a116f87f9d582abfced4c8c16cf3863d1",
    "omnetpp": "2ff84d225ccc8996248adad68e3dc376a4efbcd3844b685083813f881d403527",
    "cactusADM": "bd32001d1c954c51db2e58b6031e218511142aad9c45a804a75d77913dec1335",
    "stream": "99a5c37060d7215fbe4205d99838fc593cc6a9615e0e68ad2fca9ac8b3d99584",
    "leslie3d": "b2158a67fd148f34ac514fe24a359fd621a33ac77dc0e5f3a0e941ccbe6290ee",
    "milc": "7b77e3936a9ce493b726227cef0db15e24c840829e499d638f01ec2ac7693898",
    "sphinx3": "54df561760118ee614aa7da13fd8a687e02fc91b1efa6dd67e1d833bcf7d0b18",
    "libquantum": "db1a34d0f252d713c9267ff33410e5ceb3e9209566741cee202d0011d3b9cb84",
    "bzip2": "0bfec50aadb3bbd8804c87a1a38ba7a0ddc878823aab9d43c99cd61024d1c255",
    "astar": "a3eac0341a222b42ec2f8b544dc12426f6e4feb051a7d785b338fdd11afd69be",
    "bwaves": "f7b3533769a1d1f739774b70fc8cfed415acfe68fe2338e52955db1b2b4ea455",
}
PINNED_MIX4 = "7783c5ecaa12d49656338135a037cd15ba485a4482cf6f5692796e7d7a20c052"

#: One record, one partial chunk, and three full chunks plus a tail.
LENGTHS = (1, 777, 3 * 2048 + 5)


def _digest(traces):
    hasher = hashlib.sha256()
    for trace in traces:
        hasher.update(f"|{trace.name}:{len(trace.records)}|".encode())
        hasher.update(repr(trace.records).encode())
    return hasher.hexdigest()


def test_pinned_lengths_cross_chunk_boundaries():
    assert LENGTHS[1] < TRACE_CHUNK_REFS
    assert LENGTHS[2] == 3 * TRACE_CHUNK_REFS + 5


@pytest.mark.parametrize("name", ["mcf", "lbm", "sphinx3", "bwaves"])
def test_records_do_not_depend_on_the_chunk_size(name, monkeypatch):
    profile = SPEC_PROFILES[name]
    whole = generate_trace(profile, 3000, footprint_divisor=16)
    monkeypatch.setattr(spec_module, "TRACE_CHUNK_REFS", 7)
    assert generate_trace(profile, 3000, footprint_divisor=16) == whole


@pytest.mark.parametrize("name", list(SPEC_PROFILES))
def test_profile_traces_match_pinned_digest(name):
    profile = SPEC_PROFILES[name]
    traces = (
        generate_trace(profile, refs, seed=seed, base_addr=base,
                       footprint_divisor=divisor)
        for divisor in (1, 8, 16)
        for seed in (0xDB1, 1, 20261017)
        for base in (0, CORE_ADDRESS_STRIDE)
        for refs in LENGTHS
    )
    assert _digest(traces) == PINNED[name]


def test_quick_four_core_mixes_match_pinned_digest():
    traces = (
        trace
        for spec in QUICK_SCALE.mix_specs(4)
        for trace in QUICK_SCALE.mix_for(spec).traces
    )
    assert _digest(traces) == PINNED_MIX4


PATTERNS = [
    ("stream", 100, {"stride": 3}),
    ("cyclic", 7, {}),
    ("random", 1000, {}),
    ("hotcold", 500, {"hot_fraction": 0.2, "hot_probability": 0.8}),
    ("region", 300, {"region_blocks": 64, "burst_length": 5}),
    ("region", 300, {"region_blocks": 64, "burst_length": 5,
                     "revisit": "cycle"}),
    ("region", 50, {"region_blocks": 64, "burst_length": 3}),
]


@pytest.mark.parametrize("kind,footprint,kwargs", PATTERNS)
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    first=st.integers(min_value=0, max_value=60),
    second=st.integers(min_value=0, max_value=60),
)
def test_take_splits_anywhere(kind, footprint, kwargs, seed, first, second):
    split = make_pattern(kind, DeterministicRng(seed), footprint, **kwargs)
    whole = make_pattern(kind, DeterministicRng(seed), footprint, **kwargs)
    assert split.take(first) + split.take(second) == whole.take(first + second)


@pytest.mark.parametrize("mean", [0.0, 0.5, 6.0, 14.0])
def test_batched_gaps_equal_scalar_geometric(mean):
    scalar = DeterministicRng(5)
    assert _geometric_gaps(DeterministicRng(5), mean, 2000) == [
        scalar.geometric(mean) for _ in range(2000)
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    counts=st.lists(st.integers(min_value=0, max_value=300), max_size=4),
)
def test_batched_draws_equal_scalar_draws(seed, counts):
    batch, scalar = DeterministicRng(seed), DeterministicRng(seed)
    for count in counts + [1000]:
        assert batch.next_u64s(count) == [
            scalar.next_u64() for _ in range(count)
        ]
    assert batch.next_u64() == scalar.next_u64()
