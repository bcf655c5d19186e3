"""Interface descriptors, including generic expansion."""

import pytest

from repro.components.context import ContextParamDecl
from repro.components.interface import InterfaceDescriptor, ParamDecl
from repro.errors import DescriptorError
from repro.runtime.access import AccessMode


def _iface(**kw):
    base = dict(
        name="sort",
        params=(
            ParamDecl("data", "T*", AccessMode.RW),
            ParamDecl("n", "int"),
        ),
        type_params=("T",),
    )
    base.update(kw)
    return InterfaceDescriptor(**base)


def test_param_decl_pointer_detection():
    assert ParamDecl("x", "float*").is_pointer
    assert ParamDecl("x", "const float *").is_pointer
    assert not ParamDecl("n", "int").is_pointer


def test_param_decl_base_type():
    assert ParamDecl("x", "const float*").base_type == "float"
    assert ParamDecl("x", "size_t*").base_type == "size_t"


def test_param_decl_validation():
    with pytest.raises(DescriptorError):
        ParamDecl("2bad", "int")
    with pytest.raises(DescriptorError):
        ParamDecl("x", "  ")


def test_interface_rejects_duplicate_params():
    with pytest.raises(DescriptorError):
        InterfaceDescriptor(
            "f", params=(ParamDecl("a", "int"), ParamDecl("a", "float"))
        )


def test_interface_name_validation():
    with pytest.raises(DescriptorError):
        InterfaceDescriptor("bad name", params=())


def test_param_lookup():
    iface = _iface()
    assert iface.param("n").ctype == "int"
    with pytest.raises(DescriptorError):
        iface.param("zzz")


def test_operand_scalar_split():
    iface = _iface()
    assert [p.name for p in iface.operand_params()] == ["data"]
    assert [p.name for p in iface.scalar_params()] == ["n"]


def test_call_layout_positions_and_context():
    iface = InterfaceDescriptor(
        "f",
        params=(
            ParamDecl("n", "int"),
            ParamDecl("x", "float*", AccessMode.RW),
            ParamDecl("alpha", "float"),
            ParamDecl("y", "float*", AccessMode.W),
        ),
        context_params=(ContextParamDecl("n", "int"),),
    )
    layout = iface.layout
    assert layout is iface.layout  # computed once per descriptor
    assert [(i, p.name) for i, p in layout.operands] == [(1, "x"), (3, "y")]
    assert layout.scalars == (0, 2)
    assert layout.context == ((0, "n"),)
    runtime_args = ("X", "Y", "N", "ALPHA")  # operands first, then scalars
    assert [runtime_args[i] for i in layout.to_declared] == ["N", "X", "ALPHA", "Y"]
    # without declared context parameters every scalar enters the context
    undeclared = InterfaceDescriptor("g", params=iface.params)
    assert undeclared.layout.context == ((0, "n"), (2, "alpha"))


def test_signature_text():
    sig = _iface().signature()
    assert "template <typename T>" in sig
    assert "void sort(T* data, int n)" in sig


def test_generic_flag():
    assert _iface().is_generic
    assert not _iface(type_params=()).is_generic


def test_expand_binds_types_and_mangles_name():
    expanded = _iface().expand({"T": "float"})
    assert expanded.name == "sort_float"
    assert expanded.param("data").ctype == "float*"
    assert not expanded.is_generic


def test_expand_missing_binding():
    with pytest.raises(DescriptorError):
        _iface().expand({})


def test_expand_nongeneric_is_identity():
    iface = _iface(type_params=(), params=(ParamDecl("n", "int"),))
    assert iface.expand({}) is iface


def test_expand_substitutes_whole_words_only():
    iface = InterfaceDescriptor(
        "f",
        params=(
            ParamDecl("data", "T*"),
            ParamDecl("total", "int"),  # contains the letter T
        ),
        type_params=("T",),
    )
    expanded = iface.expand({"T": "double"})
    assert expanded.param("total").ctype == "int"
    assert expanded.param("data").ctype == "double*"
