"""Ready-made machines: the paper's platforms plus the device zoo.

Both of the paper's platforms use Intel Xeon E5520 CPUs; the main
platform carries a Tesla C2050 (Fermi, cached), the second a lower-end
Tesla C1060 (GT200, uncached).  The paper's hybrid experiments use four
CPU cores plus the GPU.  The zoo presets (:mod:`repro.hw.zoo`) extend
the catalogue across GPU generations and both model-fidelity tiers.

:func:`machine` is the blessed public entry point::

    from repro import machine
    m = machine("c2050")                      # paper platform, coarse
    m = machine("volta", fidelity="detailed")  # zoo preset, PPT-GPU tier
"""

from __future__ import annotations

from repro.hw.description import MachineDescription, make_machine
from repro.hw.devices import tesla_c1060, tesla_c2050, xeon_e5520_core
from repro.hw.interconnect import pcie2_x16
from repro.hw.zoo import ZOO_PRESETS


def platform_c2050(n_cpu_cores: int = 4) -> MachineDescription:
    """Xeon E5520 (``n_cpu_cores`` cores) + one Tesla C2050.

    The C2050 is Fermi-class: two DMA engines, so host<->device copies in
    both directions may overlap (``duplex=True``).
    """
    return make_machine(
        name="xeon-e5520+c2050",
        cpu=xeon_e5520_core(),
        n_cpu_cores=n_cpu_cores,
        gpus=[tesla_c2050()],
        link=pcie2_x16(duplex=True),
    )


def platform_c1060(n_cpu_cores: int = 4) -> MachineDescription:
    """Xeon E5520 (``n_cpu_cores`` cores) + one Tesla C1060 (single DMA)."""
    return make_machine(
        name="xeon-e5520+c1060",
        cpu=xeon_e5520_core(),
        n_cpu_cores=n_cpu_cores,
        gpus=[tesla_c1060()],
        link=pcie2_x16(duplex=False),
    )


def platform_dual_c2050(n_cpu_cores: int = 6) -> MachineDescription:
    """Two Tesla C2050s (multi-GPU systems are first-class in the
    PEPPHER component model; each GPU reserves one driver core)."""
    return make_machine(
        name="xeon-e5520+2xc2050",
        cpu=xeon_e5520_core(),
        n_cpu_cores=n_cpu_cores,
        gpus=[tesla_c2050(), tesla_c2050()],
        link=pcie2_x16(duplex=True),
    )


def cpu_only(n_cpu_cores: int = 4) -> MachineDescription:
    """A homogeneous multicore machine (no accelerator)."""
    return make_machine(
        name=f"xeon-e5520-{n_cpu_cores}c",
        cpu=xeon_e5520_core(),
        n_cpu_cores=n_cpu_cores,
        gpus=[],
    )


#: the paper's platforms — coarse tier only (their traces are the
#: golden-digest oracle and must stay byte-identical)
PRESETS = {
    "c2050": platform_c2050,
    "c1060": platform_c1060,
    "2xc2050": platform_dual_c2050,
    "cpu": cpu_only,
}


def machine(name: str, *, fidelity: str = "coarse", **kwargs) -> MachineDescription:
    """Build a preset machine by name — the blessed registry.

    Parameters
    ----------
    name:
        A paper platform (``c2050``/``c1060``/``2xc2050``/``cpu``) or a
        zoo generation (``fermi``/``kepler``/``pascal``/``volta``).
    fidelity:
        Device-model tier: ``"coarse"`` (default; the analytical
        roofline fit every existing preset uses) or ``"detailed"``
        (PPT-GPU-grade SM/memory/latency model; zoo presets only).
    **kwargs:
        Forwarded to the preset factory (e.g. ``n_cpu_cores=8``).

    Raises
    ------
    KeyError
        Unknown preset name.
    ValueError
        ``fidelity="detailed"`` requested for a paper platform (they
        are pinned coarse so golden traces stay byte-identical).
    """
    if fidelity not in ("coarse", "detailed"):
        raise ValueError(
            f"unknown fidelity {fidelity!r}; use 'coarse' or 'detailed'"
        )
    if name in PRESETS:
        if fidelity != "coarse":
            raise ValueError(
                f"paper platform {name!r} exists only at the coarse tier; "
                f"use a zoo preset ({sorted(ZOO_PRESETS)}) for "
                f"fidelity='detailed'"
            )
        return PRESETS[name](**kwargs)
    if name in ZOO_PRESETS:
        return ZOO_PRESETS[name](fidelity=fidelity, **kwargs)
    raise KeyError(
        f"unknown platform preset {name!r}; "
        f"known: {sorted(PRESETS) + sorted(ZOO_PRESETS)}"
    )

