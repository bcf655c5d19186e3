"""Engine integration: backends behind the codelet API.

Covers the acceptance criteria: the default path stays byte-identical
with repro.exec imported, real backends preserve data-hazard order and
values, and kernel failures surface as structured errors at join points.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.exec  # noqa: F401 -- byte-identity must hold with it imported
from conftest import make_axpy_codelet, vecs
from repro import Session
from repro.errors import KernelExecutionError
from repro.exec import SimulatedBackend, ThreadPoolBackend
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.trace_export import canonical_chrome_json

N = 256


def _run_session(exec_backend=None, seed=7):
    with Session(
        "c2050", scheduler="dmda", seed=seed, exec_backend=exec_backend
    ) as s:
        codelet = make_axpy_codelet()
        y, x = vecs(N, seed=3)
        hy, hx = s.register(y, "y"), s.register(x, "x")
        for i in range(12):
            s.submit(
                codelet,
                [(hy, "rw"), (hx, "r")],
                ctx={"n": N},
                scalar_args=(1.5,),
                name=f"axpy{i}",
            )
        s.wait_for_all()
        return canonical_chrome_json(s.trace, s.machine), y.copy()


def test_default_path_byte_identical_to_simulated_backend():
    """Same seed: no backend, and the SimulatedBackend, and a second
    plain run must all produce the identical canonical trace."""
    base, y_base = _run_session()
    again, y_again = _run_session()
    sim, y_sim = _run_session(exec_backend=SimulatedBackend())
    assert base == again
    assert base == sim
    np.testing.assert_array_equal(y_base, y_again)
    np.testing.assert_array_equal(y_base, y_sim)


def test_thread_backend_same_values_as_inline():
    _, y_inline = _run_session()
    _, y_thread = _run_session(exec_backend="thread")
    np.testing.assert_allclose(y_thread, y_inline, rtol=1e-6)


def test_hazard_chain_order_on_thread_backend():
    """A rw chain must see each predecessor's writes: y = ((0+1)*2+1)*2..."""

    def mul2_add1(ctx, y):
        y *= 2
        y += 1

    codelet = Codelet(
        "chain",
        [ImplVariant("c_cpu", Arch.CPU, mul2_add1, lambda ctx, dev: 1e-5)],
    )
    rt = Runtime(platform_c2050(), scheduler="eager", exec_backend="thread")
    y = np.zeros(16)
    h = rt.register(y, "y")
    for _ in range(5):
        rt.submit(codelet, [(h, "rw")])
    rt.acquire(h, "r")
    expected = 0.0
    for _ in range(5):
        expected = expected * 2 + 1
    assert np.all(y == expected)
    m = rt.measurements[0]
    assert m.backend == "thread" and m.worker.startswith("repro-exec")
    rt.shutdown()


def test_independent_kernels_overlap_on_thread_backend():
    """N sleep kernels must take well under N x the single duration."""

    def sleeper(ctx, x):
        time.sleep(0.1)

    codelet = Codelet(
        "sleep",
        [ImplVariant("s_cpu", Arch.CPU, sleeper, lambda ctx, dev: 1e-5)],
    )
    rt = Runtime(
        platform_c2050(),
        scheduler="eager",
        exec_backend=ThreadPoolBackend(max_workers=4),
    )
    handles = [rt.register(np.zeros(4), f"h{i}") for i in range(4)]
    t0 = time.perf_counter()
    for h in handles:
        rt.submit(codelet, [(h, "rw")])
    rt.wait_for_all()
    wall = time.perf_counter() - t0
    ms = rt.measurements
    rt.shutdown()
    assert wall < 0.7 * 4 * 0.1, f"no overlap: {wall:.3f}s for 4 x 0.1s"
    assert len(ms) == 4
    assert any(a.overlaps(b) for i, a in enumerate(ms) for b in ms[i + 1 :])


def test_measurements_feed_measured_provenance():
    rt = Runtime(platform_c2050(), scheduler="eager", exec_backend="thread")
    codelet = make_axpy_codelet()
    y, x = vecs(N, seed=1)
    hy, hx = rt.register(y, "y"), rt.register(x, "x")
    for _ in range(3):
        rt.submit(
            codelet, [(hy, "rw"), (hx, "r")], ctx={"n": N}, scalar_args=(2.0,)
        )
    rt.wait_for_all()
    model = rt.perfmodel
    rt.shutdown()
    assert model.measured_variants()  # wall-clock samples landed
    # ...without touching the analytical history counts
    fp_vars = {var for _, var in model.history._table}
    assert fp_vars  # analytical side also recorded, independently


def test_kernel_exception_wrapped_at_join():
    def boom(ctx, y):
        raise RuntimeError("numerical disaster")

    codelet = Codelet(
        "boom", [ImplVariant("b_cpu", Arch.CPU, boom, lambda ctx, dev: 1e-5)]
    )
    rt = Runtime(platform_c2050(), scheduler="eager", exec_backend="thread")
    h = rt.register(np.zeros(4), "h")
    rt.submit(codelet, [(h, "rw")])
    with pytest.raises(KernelExecutionError, match="b_cpu.*thread.*disaster"):
        rt.wait_for_all()


def test_session_owns_named_backend_and_closes_it():
    s = Session("c2050", scheduler="eager", exec_backend="thread")
    backend = s.exec_backend
    y, x = vecs(N, seed=2)
    hy, hx = s.register(y, "y"), s.register(x, "x")
    s.submit(
        make_axpy_codelet(),
        [(hy, "rw"), (hx, "r")],
        ctx={"n": N},
        scalar_args=(1.0,),
    )
    s.wait_for_all()
    s.shutdown()
    from repro.errors import ExecBackendError

    with pytest.raises(ExecBackendError, match="closed"):
        backend.submit_kernel(lambda ctx: None, {}, ())


def test_run_kernels_false_skips_backend_dispatch():
    rt = Runtime(
        platform_c2050(),
        scheduler="eager",
        run_kernels=False,
        exec_backend="thread",
    )
    y, x = vecs(N, seed=5)
    hy, hx = rt.register(y, "y"), rt.register(x, "x")
    rt.submit(
        make_axpy_codelet(), [(hy, "rw"), (hx, "r")], ctx={"n": N}, scalar_args=(9.0,)
    )
    rt.wait_for_all()
    assert rt.measurements == []  # nothing ran, nothing measured
    rt.shutdown()
