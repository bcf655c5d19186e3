"""The device zoo: machine presets spanning four GPU generations.

The paper's two platforms are both Fermi-era; the zoo extends the
catalogue with one representative device per later generation so that
model-fidelity questions (does a finer device model change what the
scheduler picks?) can be asked across genuinely different hardware:

========  =============  =====================================
preset    GPU            what distinguishes the generation
========  =============  =====================================
fermi     Tesla C2050    32-core SMs, tiny register file, long
                         global-memory latency, PCIe 2.0
kepler    Tesla K40      192-core SMs (wide issue, hard to
                         fill), big register file, PCIe 3.0
pascal    Tesla P100     HBM2 (~5x Fermi's bandwidth), 64-core
                         SMs at high clocks
volta     Tesla V100     most SMs, largest caches, shortest
                         instruction latencies
========  =============  =====================================

Every preset exists at both fidelity tiers.  ``fidelity="coarse"``
yields plain headline-figure :class:`~repro.hw.devices.DeviceSpec` specs
(``model=None`` — priced exactly like the paper-era presets);
``fidelity="detailed"`` attaches a
:class:`~repro.hw.model.DetailedDeviceModel` whose SM, memory-hierarchy
and latency knobs are taken from the generation's published
microarchitecture.  Core counts and clocks are chosen so the detailed
tier's issue ceiling reproduces each device's headline peak:
``n_sms * cores_per_sm * 2 * clock_ghz`` GFLOP/s.

Access through the blessed registry::

    from repro import machine
    m = machine("pascal", fidelity="detailed")
"""

from __future__ import annotations

from repro.hw.devices import DeviceKind, DeviceSpec, xeon_e5520_core
from repro.hw.description import MachineDescription, make_machine
from repro.hw.interconnect import pcie2_x16, pcie3_x16
from repro.hw.model import DetailedDeviceModel, LatencyTable, MemoryHierarchy, SMConfig


def _check_fidelity(fidelity: str) -> None:
    if fidelity not in ("coarse", "detailed"):
        raise ValueError(
            f"unknown fidelity {fidelity!r}; use 'coarse' or 'detailed'"
        )


# ---------------------------------------------------------------------------
# Host CPUs.  The Fermi/Kepler hosts keep the paper's Nehalem; the
# Pascal/Volta hosts get a Broadwell-era core (AVX2: 8 lanes x FMA).
# ---------------------------------------------------------------------------

def xeon_e5_2690v4_core() -> DeviceSpec:
    """One core of the Intel Xeon E5-2690 v4 (2.6 GHz Broadwell).

    Peak SP per core: 8 (AVX2 width) x 2 (FMA) x 2 (ports) x 2.6 GHz
    ~= 83 GFLOP/s; per-core sustainable bandwidth roughly 12 GB/s.
    """
    return DeviceSpec(
        name="Xeon E5-2690v4 core",
        kind=DeviceKind.CPU,
        peak_gflops=83.0,
        mem_bandwidth_gbs=12.0,
        launch_overhead_s=2e-6,
        regular_efficiency=0.55,
        irregular_efficiency=0.30,
        branchy_efficiency=0.45,
        has_cache=True,
        cores=1,
        busy_watts=10.0,  # one core's share of the 135 W socket
    )


# ---------------------------------------------------------------------------
# GPU generations.  One factory per device; the detailed model's knobs
# follow the generation's occupancy-calculator limits and the PPT-GPU
# observation that instruction latency depends only on (class, family).
# ---------------------------------------------------------------------------

def fermi_c2050(fidelity: str = "coarse") -> DeviceSpec:
    """Tesla C2050 (Fermi): 14 SMs x 32 cores @ 1.15 GHz, 144 GB/s."""
    _check_fidelity(fidelity)
    model = None
    if fidelity == "detailed":
        model = DetailedDeviceModel(
            sm=SMConfig(
                n_sms=14,
                cores_per_sm=32,
                clock_ghz=1.15,
                max_threads_per_sm=1536,
                max_blocks_per_sm=8,
                registers_per_sm=32 * 1024,
                shared_mem_per_sm=48 * 1024,
            ),
            memory=MemoryHierarchy(
                l1_hit_rate=0.25,
                l2_hit_rate=0.50,
                l1_bandwidth_gbs=1030.0,
                l2_bandwidth_gbs=230.0,
                dram_bandwidth_gbs=144.0,
            ),
            latency=LatencyTable(
                fma=18.0,
                alu=18.0,
                sfu=30.0,
                ldst_shared=30.0,
                ldst_global=600.0,
                branch=20.0,
            ),
        )
    return DeviceSpec(
        name="Tesla C2050",
        kind=DeviceKind.GPU,
        peak_gflops=1030.0,
        mem_bandwidth_gbs=144.0,
        launch_overhead_s=7e-6,
        regular_efficiency=0.60,
        irregular_efficiency=0.28,
        branchy_efficiency=0.15,
        has_cache=True,
        cores=448,
        busy_watts=238.0,
        memory_bytes=3 * 1024**3,
        model=model,
    )


def kepler_k40(fidelity: str = "coarse") -> DeviceSpec:
    """Tesla K40 (Kepler): 15 SMXs x 192 cores @ 745 MHz, 288 GB/s.

    Kepler's defining quirk is the 192-core SMX: issue width 6
    warps/cycle, which real kernels rarely fill — the detailed tier
    shows it, the coarse efficiency scalar merely asserts it.
    """
    _check_fidelity(fidelity)
    model = None
    if fidelity == "detailed":
        model = DetailedDeviceModel(
            sm=SMConfig(
                n_sms=15,
                cores_per_sm=192,
                clock_ghz=0.745,
                max_threads_per_sm=2048,
                max_blocks_per_sm=16,
                registers_per_sm=64 * 1024,
                shared_mem_per_sm=48 * 1024,
            ),
            memory=MemoryHierarchy(
                l1_hit_rate=0.20,  # Kepler L1 is opt-in for globals
                l2_hit_rate=0.55,
                l1_bandwidth_gbs=2000.0,
                l2_bandwidth_gbs=500.0,
                dram_bandwidth_gbs=288.0,
            ),
            latency=LatencyTable(
                fma=9.0,
                alu=9.0,
                sfu=18.0,
                ldst_shared=26.0,
                ldst_global=300.0,
                branch=12.0,
            ),
        )
    return DeviceSpec(
        name="Tesla K40",
        kind=DeviceKind.GPU,
        peak_gflops=4290.0,
        mem_bandwidth_gbs=288.0,
        launch_overhead_s=6e-6,
        regular_efficiency=0.45,  # wide SMX issue is hard to sustain
        irregular_efficiency=0.22,
        branchy_efficiency=0.14,
        has_cache=True,
        cores=2880,
        busy_watts=235.0,
        memory_bytes=12 * 1024**3,
        model=model,
    )


def pascal_p100(fidelity: str = "coarse") -> DeviceSpec:
    """Tesla P100 (Pascal): 56 SMs x 64 cores @ 1.3 GHz, 732 GB/s HBM2."""
    _check_fidelity(fidelity)
    model = None
    if fidelity == "detailed":
        model = DetailedDeviceModel(
            sm=SMConfig(
                n_sms=56,
                cores_per_sm=64,
                clock_ghz=1.30,
                max_threads_per_sm=2048,
                max_blocks_per_sm=32,
                registers_per_sm=64 * 1024,
                shared_mem_per_sm=64 * 1024,
            ),
            memory=MemoryHierarchy(
                l1_hit_rate=0.30,
                l2_hit_rate=0.55,
                l1_bandwidth_gbs=4000.0,
                l2_bandwidth_gbs=1600.0,
                dram_bandwidth_gbs=732.0,
            ),
            latency=LatencyTable(
                fma=6.0,
                alu=6.0,
                sfu=14.0,
                ldst_shared=24.0,
                ldst_global=230.0,
                branch=8.0,
            ),
        )
    return DeviceSpec(
        name="Tesla P100",
        kind=DeviceKind.GPU,
        peak_gflops=9300.0,
        mem_bandwidth_gbs=732.0,
        launch_overhead_s=5e-6,
        regular_efficiency=0.60,
        irregular_efficiency=0.30,
        branchy_efficiency=0.18,
        has_cache=True,
        cores=3584,
        busy_watts=300.0,
        memory_bytes=16 * 1024**3,
        model=model,
    )


def volta_v100(fidelity: str = "coarse") -> DeviceSpec:
    """Tesla V100 (Volta): 80 SMs x 64 cores @ 1.38 GHz, 900 GB/s HBM2."""
    _check_fidelity(fidelity)
    model = None
    if fidelity == "detailed":
        model = DetailedDeviceModel(
            sm=SMConfig(
                n_sms=80,
                cores_per_sm=64,
                clock_ghz=1.38,
                max_threads_per_sm=2048,
                max_blocks_per_sm=32,
                registers_per_sm=64 * 1024,
                shared_mem_per_sm=96 * 1024,
            ),
            memory=MemoryHierarchy(
                l1_hit_rate=0.40,  # unified 128 KB L1/smem, write-through
                l2_hit_rate=0.60,
                l1_bandwidth_gbs=12000.0,
                l2_bandwidth_gbs=2500.0,
                dram_bandwidth_gbs=900.0,
            ),
            latency=LatencyTable(
                fma=4.0,
                alu=4.0,
                sfu=12.0,
                ldst_shared=19.0,
                ldst_global=220.0,
                branch=6.0,
            ),
        )
    return DeviceSpec(
        name="Tesla V100",
        kind=DeviceKind.GPU,
        peak_gflops=14130.0,
        mem_bandwidth_gbs=900.0,
        launch_overhead_s=4e-6,
        regular_efficiency=0.65,
        irregular_efficiency=0.35,
        branchy_efficiency=0.22,
        has_cache=True,
        cores=5120,
        busy_watts=300.0,
        memory_bytes=16 * 1024**3,
        model=model,
    )


# ---------------------------------------------------------------------------
# Machine presets: host + one GPU per generation.
# ---------------------------------------------------------------------------

def machine_fermi(
    fidelity: str = "coarse", n_cpu_cores: int = 4
) -> MachineDescription:
    """Xeon E5520 + Tesla C2050 over PCIe 2.0 (the paper's platform)."""
    return make_machine(
        name="zoo-fermi",
        cpu=xeon_e5520_core(),
        n_cpu_cores=n_cpu_cores,
        gpus=[fermi_c2050(fidelity)],
        link=pcie2_x16(duplex=True),
    )


def machine_kepler(
    fidelity: str = "coarse", n_cpu_cores: int = 4
) -> MachineDescription:
    """Xeon E5520 + Tesla K40 over PCIe 3.0."""
    return make_machine(
        name="zoo-kepler",
        cpu=xeon_e5520_core(),
        n_cpu_cores=n_cpu_cores,
        gpus=[kepler_k40(fidelity)],
        link=pcie3_x16(),
    )


def machine_pascal(
    fidelity: str = "coarse", n_cpu_cores: int = 4
) -> MachineDescription:
    """Xeon E5-2690v4 + Tesla P100 over PCIe 3.0."""
    return make_machine(
        name="zoo-pascal",
        cpu=xeon_e5_2690v4_core(),
        n_cpu_cores=n_cpu_cores,
        gpus=[pascal_p100(fidelity)],
        link=pcie3_x16(),
    )


def machine_volta(
    fidelity: str = "coarse", n_cpu_cores: int = 4
) -> MachineDescription:
    """Xeon E5-2690v4 + Tesla V100 over PCIe 3.0."""
    return make_machine(
        name="zoo-volta",
        cpu=xeon_e5_2690v4_core(),
        n_cpu_cores=n_cpu_cores,
        gpus=[volta_v100(fidelity)],
        link=pcie3_x16(),
    )


#: zoo registry consumed by :func:`repro.hw.presets.machine`; every
#: factory takes ``(fidelity=..., n_cpu_cores=...)``
ZOO_PRESETS = {
    "fermi": machine_fermi,
    "kepler": machine_kepler,
    "pascal": machine_pascal,
    "volta": machine_volta,
}

#: device factories by generation, for tests and custom machines
ZOO_DEVICES = {
    "fermi": fermi_c2050,
    "kepler": kepler_k40,
    "pascal": pascal_p100,
    "volta": volta_v100,
}
