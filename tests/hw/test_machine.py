"""Machine assembly and transfer routing."""

import pytest

from repro.errors import RuntimeSystemError
from repro.hw.devices import tesla_c1060, tesla_c2050, xeon_e5520_core
from repro.hw.description import HOST_NODE, MachineDescription, make_machine
from repro.hw.interconnect import pcie2_x16


def _machine(n_cores=4, gpus=1, reserve=True):
    return make_machine(
        "m",
        cpu=xeon_e5520_core(),
        n_cpu_cores=n_cores,
        gpus=[tesla_c2050() for _ in range(gpus)],
        reserve_core_per_gpu=reserve,
    )


def test_reserves_one_core_per_gpu():
    m = _machine(4, 1)
    assert len(m.cpu_units) == 3
    assert len(m.gpu_units) == 1


def test_no_reservation_exposes_all_cores():
    m = _machine(4, 1, reserve=False)
    assert len(m.cpu_units) == 4


def test_memory_nodes():
    m = _machine(4, 2)
    assert m.n_memory_nodes == 3
    assert {u.memory_node for u in m.cpu_units} == {HOST_NODE}
    assert {u.memory_node for u in m.gpu_units} == {1, 2}


def test_unit_ids_are_dense():
    m = _machine(4, 2)
    assert [u.unit_id for u in m.units] == list(range(len(m.units)))


def test_too_many_gpus_for_cores():
    with pytest.raises(ValueError):
        _machine(1, 2)


def test_needs_a_core():
    with pytest.raises(ValueError):
        make_machine("m", cpu=xeon_e5520_core(), n_cpu_cores=0)


def test_unit_lookup_bounds():
    m = _machine()
    with pytest.raises(RuntimeSystemError):
        m.unit(99)


def test_transfer_same_node_free():
    m = _machine()
    assert m.transfer_time(HOST_NODE, HOST_NODE, 1 << 20) == 0.0


def test_transfer_host_to_gpu_uses_link():
    m = _machine()
    expected = pcie2_x16().transfer_time(1 << 20)
    assert m.transfer_time(HOST_NODE, 1, 1 << 20) == pytest.approx(expected)


def test_transfer_gpu_to_gpu_stages_through_host():
    m = _machine(4, 2)
    one_leg = m.transfer_time(HOST_NODE, 1, 1 << 20)
    assert m.transfer_time(1, 2, 1 << 20) == pytest.approx(2 * one_leg)


def test_transfer_unknown_node_rejected():
    m = _machine()
    with pytest.raises(RuntimeSystemError):
        m.transfer_time(0, 5, 1024)


def test_describe_is_structured():
    desc = _machine().describe()
    assert desc["fidelity"] == "coarse"
    assert desc["n_memory_nodes"] == 2
    names = [u["device"]["name"] for u in desc["units"]]
    assert "Tesla C2050" in names
    assert desc["links"][1]["bandwidth_gbs"] == pytest.approx(5.5)


def test_summary_lists_units():
    text = _machine().summary()
    assert "Tesla C2050" in text and "Xeon" in text


def test_mixed_gpu_machine():
    m = make_machine(
        "mix",
        cpu=xeon_e5520_core(),
        n_cpu_cores=6,
        gpus=[tesla_c2050(), tesla_c1060()],
    )
    names = [u.device.name for u in m.gpu_units]
    assert names == ["Tesla C2050", "Tesla C1060"]


def test_description_is_keyword_only():
    m = _machine()
    copy = MachineDescription(name="kw", units=list(m.units), links=dict(m.links))
    assert copy.n_memory_nodes == m.n_memory_nodes
    assert MachineDescription(name="bare").links == {}
    with pytest.raises(TypeError):
        MachineDescription("positional", list(m.units))
    with pytest.raises(TypeError):
        MachineDescription(units=[])
