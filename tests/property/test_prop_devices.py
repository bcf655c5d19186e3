"""Property-based tests for the detailed device-model tier.

Two families of invariants, over randomly drawn knobs and launch
shapes:

- occupancy never exceeds any hardware limit of the SM;
- predicted kernel time is monotonically non-increasing in the L1/L2
  hit rates and in every level's bandwidth (faster memory never makes a
  kernel slower).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.hw.devices import AccessPattern
from repro.hw.model import (
    DetailedDeviceModel,
    KernelProfile,
    LatencyTable,
    MemoryHierarchy,
    SMConfig,
)
from repro.hw.zoo import fermi_c2050, kepler_k40, pascal_p100, volta_v100

_DETAILED_SPECS = {
    "fermi": fermi_c2050("detailed"),
    "kepler": kepler_k40("detailed"),
    "pascal": pascal_p100("detailed"),
    "volta": volta_v100("detailed"),
}

_profiles = st.builds(
    KernelProfile,
    threads_per_block=st.sampled_from([32, 64, 128, 256, 512, 1024]),
    regs_per_thread=st.integers(min_value=8, max_value=64),
    shared_mem_per_block=st.sampled_from([0, 1024, 4096, 16384]),
)

_patterns = st.sampled_from(list(AccessPattern))


@given(
    gen=st.sampled_from(sorted(_DETAILED_SPECS)),
    profile=_profiles,
)
@settings(max_examples=120, deadline=None)
def test_occupancy_never_exceeds_hardware_limits(gen, profile):
    model = _DETAILED_SPECS[gen].model
    if not model.feasible(profile):
        return  # infeasible launch shapes are rejected, not clamped
    occ = model.occupancy(profile)
    sm = model.sm
    assert 1 <= occ.active_blocks <= sm.max_blocks_per_sm
    assert occ.active_warps <= sm.max_warps_per_sm
    assert occ.active_blocks * profile.threads_per_block <= sm.max_threads_per_sm
    assert (
        occ.active_blocks * profile.threads_per_block * profile.regs_per_thread
        <= sm.registers_per_sm
    )
    if profile.shared_mem_per_block:
        assert (
            occ.active_blocks * profile.shared_mem_per_block
            <= sm.shared_mem_per_sm
        )
    assert 0.0 < occ.fraction <= 1.0


@given(
    gen=st.sampled_from(sorted(_DETAILED_SPECS)),
    h1_lo=st.floats(min_value=0.0, max_value=1.0),
    h1_hi=st.floats(min_value=0.0, max_value=1.0),
    h2=st.floats(min_value=0.0, max_value=1.0),
    pattern=_patterns,
    nbytes=st.floats(min_value=1e3, max_value=1e9),
)
@settings(max_examples=120, deadline=None)
def test_kernel_time_monotone_in_l1_hit_rate(gen, h1_lo, h1_hi, h2, pattern, nbytes):
    if h1_lo > h1_hi:
        h1_lo, h1_hi = h1_hi, h1_lo
    spec = _DETAILED_SPECS[gen]
    base = spec.model
    slow = dataclasses.replace(
        spec, model=base.with_hit_rates(l1_hit_rate=h1_lo, l2_hit_rate=h2)
    )
    fast = dataclasses.replace(
        spec, model=base.with_hit_rates(l1_hit_rate=h1_hi, l2_hit_rate=h2)
    )
    assert fast.roofline_time(0.0, nbytes, pattern) <= (
        slow.roofline_time(0.0, nbytes, pattern) + 1e-15
    )


@given(
    gen=st.sampled_from(sorted(_DETAILED_SPECS)),
    h1=st.floats(min_value=0.0, max_value=1.0),
    h2_lo=st.floats(min_value=0.0, max_value=1.0),
    h2_hi=st.floats(min_value=0.0, max_value=1.0),
    pattern=_patterns,
    nbytes=st.floats(min_value=1e3, max_value=1e9),
)
@settings(max_examples=120, deadline=None)
def test_kernel_time_monotone_in_l2_hit_rate(gen, h1, h2_lo, h2_hi, pattern, nbytes):
    if h2_lo > h2_hi:
        h2_lo, h2_hi = h2_hi, h2_lo
    spec = _DETAILED_SPECS[gen]
    base = spec.model
    slow = dataclasses.replace(
        spec, model=base.with_hit_rates(l1_hit_rate=h1, l2_hit_rate=h2_lo)
    )
    fast = dataclasses.replace(
        spec, model=base.with_hit_rates(l1_hit_rate=h1, l2_hit_rate=h2_hi)
    )
    assert fast.roofline_time(0.0, nbytes, pattern) <= (
        slow.roofline_time(0.0, nbytes, pattern) + 1e-15
    )


@given(
    h1=st.floats(min_value=0.0, max_value=1.0),
    h2=st.floats(min_value=0.0, max_value=1.0),
    scale=st.floats(min_value=1.0, max_value=4.0),
    pattern=_patterns,
    nbytes=st.floats(min_value=1e3, max_value=1e9),
)
@settings(max_examples=120, deadline=None)
def test_kernel_time_monotone_in_bandwidth(h1, h2, scale, pattern, nbytes):
    spec = _DETAILED_SPECS["fermi"]
    mem = spec.model.memory

    def with_mem(factor):
        return dataclasses.replace(
            spec,
            model=DetailedDeviceModel(
                sm=spec.model.sm,
                memory=MemoryHierarchy(
                    l1_hit_rate=h1,
                    l2_hit_rate=h2,
                    l1_bandwidth_gbs=mem.l1_bandwidth_gbs * factor,
                    l2_bandwidth_gbs=mem.l2_bandwidth_gbs * factor,
                    dram_bandwidth_gbs=mem.dram_bandwidth_gbs * factor,
                ),
                latency=spec.model.latency,
            ),
        )

    assert with_mem(scale).roofline_time(0.0, nbytes, pattern) <= (
        with_mem(1.0).roofline_time(0.0, nbytes, pattern) + 1e-15
    )


@given(
    n_sms=st.integers(min_value=1, max_value=128),
    cores=st.sampled_from([32, 64, 128, 192]),
    profile=_profiles,
)
@settings(max_examples=80, deadline=None)
def test_random_sm_configs_keep_occupancy_legal(n_sms, cores, profile):
    model = DetailedDeviceModel(
        sm=SMConfig(
            n_sms=n_sms,
            cores_per_sm=cores,
            clock_ghz=1.0,
            max_threads_per_sm=2048,
            max_blocks_per_sm=16,
            registers_per_sm=64 * 1024,
            shared_mem_per_sm=48 * 1024,
        ),
        memory=MemoryHierarchy(0.3, 0.5, 2000.0, 500.0, 200.0),
        latency=LatencyTable(),
    )
    if not model.feasible(profile):
        return
    occ = model.occupancy(profile)
    assert occ.active_warps <= model.sm.max_warps_per_sm
    assert occ.active_blocks <= model.sm.max_blocks_per_sm
