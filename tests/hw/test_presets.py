"""Platform presets."""

import pytest

from repro.hw.presets import cpu_only, machine, platform_c1060, platform_c2050


def test_c2050_platform_layout():
    m = platform_c2050()
    assert len(m.cpu_units) == 3  # one of 4 cores drives the GPU
    assert len(m.gpu_units) == 1
    assert m.gpu_units[0].device.name == "Tesla C2050"
    assert m.links[1].duplex  # Fermi has two DMA engines


def test_c1060_platform_layout():
    m = platform_c1060()
    assert m.gpu_units[0].device.name == "Tesla C1060"
    assert not m.links[1].duplex


def test_cpu_only_has_no_gpu():
    m = cpu_only(4)
    assert len(m.cpu_units) == 4
    assert not m.gpu_units
    assert m.n_memory_nodes == 1


def test_by_name_dispatch():
    assert machine("c2050").name == "xeon-e5520+c2050"
    assert machine("cpu", n_cpu_cores=2).name == "xeon-e5520-2c"


def test_by_name_unknown():
    with pytest.raises(KeyError):
        machine("gtx9000")


def test_custom_core_count():
    assert len(platform_c2050(n_cpu_cores=5).cpu_units) == 4
