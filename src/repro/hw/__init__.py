"""Simulated heterogeneous hardware substrate.

Substitutes for the paper's physical testbed (Xeon E5520 + Tesla
C2050/C1060): analytical device models, a PCIe transfer model, a virtual
clock and deterministic timing noise.  See DESIGN.md section 2 for why the
substitution preserves the behaviour the paper measures.

The blessed machine-description API is :func:`machine` (preset registry
over the paper platforms and the device zoo, at either model-fidelity
tier) plus :meth:`MachineDescription.describe` for structured
introspection; see ``docs/API.md`` and ``docs/DEVICES.md``.
"""

from repro.hw.clock import VirtualClock
from repro.hw.faults import FaultModel
from repro.hw.devices import (
    AccessPattern,
    DeviceKind,
    DeviceSpec,
    tesla_c1060,
    tesla_c2050,
    xeon_e5520_core,
)
from repro.hw.interconnect import LinkSpec, pcie2_x16, pcie3_x16
from repro.hw.description import (
    HOST_NODE,
    MachineDescription,
    ProcessingUnit,
    make_machine,
)
from repro.hw.model import (
    DetailedDeviceModel,
    DeviceModel,
    KernelProfile,
    LatencyTable,
    MemoryHierarchy,
    SMConfig,
)
from repro.hw.noise import NoiseModel
from repro.hw.presets import (
    cpu_only,
    machine,
    platform_c1060,
    platform_c2050,
    platform_dual_c2050,
)
from repro.hw.zoo import (
    ZOO_DEVICES,
    ZOO_PRESETS,
    fermi_c2050,
    kepler_k40,
    pascal_p100,
    volta_v100,
)

__all__ = [
    "AccessPattern",
    "DetailedDeviceModel",
    "DeviceKind",
    "DeviceModel",
    "DeviceSpec",
    "FaultModel",
    "HOST_NODE",
    "KernelProfile",
    "LatencyTable",
    "LinkSpec",
    "MachineDescription",
    "MemoryHierarchy",
    "NoiseModel",
    "ProcessingUnit",
    "SMConfig",
    "VirtualClock",
    "ZOO_DEVICES",
    "ZOO_PRESETS",
    "cpu_only",
    "fermi_c2050",
    "kepler_k40",
    "machine",
    "make_machine",
    "pascal_p100",
    "pcie2_x16",
    "pcie3_x16",
    "platform_c1060",
    "platform_c2050",
    "platform_dual_c2050",
    "tesla_c1060",
    "tesla_c2050",
    "volta_v100",
    "xeon_e5520_core",
]
