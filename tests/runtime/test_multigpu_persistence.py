"""Multi-GPU execution and persistent calibration files."""

import numpy as np
import pytest

from repro.apps import spmv
from repro.composer.glue import lower_component
from repro.hw.description import HOST_NODE
from repro.hw.presets import platform_dual_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.tuning import PerfModelStore
from repro.workloads.sparse import make_matrix


def test_dual_gpu_machine_layout():
    m = platform_dual_c2050()
    assert len(m.gpu_units) == 2
    assert m.n_memory_nodes == 3
    assert len(m.cpu_units) == 4  # 6 cores - 2 driver cores


def test_independent_tasks_use_both_gpus():
    rt = Runtime(platform_dual_c2050(), scheduler="eager", seed=0, noise_sigma=0.0)
    cl = Codelet(
        "k", [ImplVariant("k", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-2)]
    )
    handles = [rt.register(np.zeros(100, dtype=np.float32)) for _ in range(4)]
    tasks = [rt.submit(cl, [(h, "rw")]) for h in handles]
    rt.wait_for_all()
    gpu_nodes = {t.workers[0].memory_node for t in tasks}
    assert gpu_nodes == {1, 2}  # spread across both devices
    # the two GPUs genuinely overlap
    assert tasks[1].start_time < tasks[0].end_time
    rt.shutdown()


def test_gpu_to_gpu_transfer_stages_through_host():
    rt = Runtime(platform_dual_c2050(), scheduler="eager", seed=0, noise_sigma=0.0)

    def fill(ctx, arr):
        arr[:] = 3.0

    def check(ctx, arr):
        assert (arr == 3.0).all()

    cl_fill = Codelet("f", [ImplVariant("f", Arch.CUDA, fill, lambda c, d: 1e-3)])
    h = rt.register(np.zeros(1000, dtype=np.float32))
    t1 = rt.submit(cl_fill, [(h, "w")])  # lands on one GPU
    # force the second task onto the *other* GPU: occupy the first
    blocker = rt.register(np.zeros(10, dtype=np.float32))
    cl_busy = Codelet(
        "b", [ImplVariant("b", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 5e-2)]
    )
    rt.submit(cl_busy, [(blocker, "rw")])
    cl_check = Codelet("c", [ImplVariant("c", Arch.CUDA, check, lambda c, d: 1e-3)])
    t2 = rt.submit(cl_check, [(h, "r")])
    rt.wait_for_all()
    if t2.workers[0].memory_node != t1.workers[0].memory_node:
        # data moved GPU -> host -> GPU: two transfer legs, one through host
        legs = rt.trace.transfers_for_handle(h.handle_id)
        assert any(x.dst_node == HOST_NODE for x in legs)
        assert any(x.src_node == HOST_NODE for x in legs)
    rt.shutdown()


def test_hybrid_spmv_scales_with_second_gpu():
    """Adding a GPU to the hybrid Figure-5 setup reduces the makespan."""
    from repro.hw.presets import platform_c2050

    mat = make_matrix("Simulation", scale=0.1)

    def run(machine):
        rt = Runtime(machine, scheduler="dmda", seed=0)
        cl = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS).without(
            ["spmv_openmp"]
        )
        hv = rt.register(mat.values)
        hc = rt.register(mat.colidxs)
        hp = rt.register(mat.rowptr)
        hx = rt.register(np.ones(mat.ncols, dtype=np.float32))
        hy = rt.register(np.zeros(mat.nrows, dtype=np.float32))
        spmv.submit_partitioned(rt, cl, hv, hc, hp, hx, hy, mat.rowptr, mat.ncols, 24)
        rt.unpartition(hy)
        return rt.shutdown()

    t_one = run(platform_c2050(n_cpu_cores=5))
    t_two = run(platform_dual_c2050(n_cpu_cores=6))
    assert t_two < t_one


# -- persistent calibration -----------------------------------------------------

def test_perfmodel_persists_across_sessions(tmp_path):
    store = PerfModelStore(tmp_path)
    cl_spec = lambda: Codelet(
        "axpy",
        [
            ImplVariant("a_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 5e-3),
            ImplVariant("a_cuda", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-3),
        ],
    )

    def session(n_tasks):
        rt = Runtime(
            platform_dual_c2050(), scheduler="dmda", seed=1, store=store,
        )
        cl = cl_spec()
        h = rt.register(np.zeros(1000, dtype=np.float32))
        for _ in range(n_tasks):
            rt.submit(cl, [(h, "rw")])
        rt.wait_for_all()
        archs = [rec.arch for rec in rt.trace.tasks]
        rt.shutdown()
        return archs

    first = session(10)
    assert "cpu" in first  # cold model: calibration explored the CPU
    assert store.has(platform_dual_c2050())
    second = session(10)
    # warm model loaded from disk: no exploration, straight to the GPU
    assert all(a == "cuda" for a in second)


def test_store_and_perfmodel_are_exclusive(tmp_path):
    from repro.errors import RuntimeSystemError
    from repro.runtime.perfmodel import PerfModel

    with pytest.raises(RuntimeSystemError):
        Runtime(
            platform_dual_c2050(),
            perfmodel=PerfModel(),
            store=PerfModelStore(tmp_path),
        )
