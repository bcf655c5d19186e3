"""SpMV written directly against the runtime system (no composition tool).

This is the "Direct" column of Table I: everything the composition tool
generates — backend wrappers with the task-function calling convention,
codelet assembly, data registration and unregistration, context packing,
synchronisation — is written by hand here, exactly as a StarPU programmer
would.  The computational kernels themselves are shared with the
tool-mode component (they are identical code in both columns).
"""

from __future__ import annotations

import numpy as np

from repro.apps.spmv import (
    cost_cpu,
    cost_cuda,
    cost_openmp,
    spmv_cpu,
    spmv_cuda,
    spmv_openmp,
)
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


# hand-written backend wrappers: unpack the runtime's buffers/args layout
# and delegate to the kernel with its original C signature
def _spmv_cpu_task(ctx, *args):
    values, colidxs, rowptr, x, y = args[0], args[1], args[2], args[3], args[4]
    nnz, nrows, ncols, first = args[5], args[6], args[7], args[8]
    spmv_cpu(values, nnz, nrows, ncols, first, colidxs, rowptr, x, y)


def _spmv_openmp_task(ctx, *args):
    values, colidxs, rowptr, x, y = args[0], args[1], args[2], args[3], args[4]
    nnz, nrows, ncols, first = args[5], args[6], args[7], args[8]
    spmv_openmp(values, nnz, nrows, ncols, first, colidxs, rowptr, x, y)


def _spmv_cuda_task(ctx, *args):
    values, colidxs, rowptr, x, y = args[0], args[1], args[2], args[3], args[4]
    nnz, nrows, ncols, first = args[5], args[6], args[7], args[8]
    spmv_cuda(values, nnz, nrows, ncols, first, colidxs, rowptr, x, y)


def build_codelet() -> Codelet:
    """Hand-assembled codelet with one entry per backend."""
    codelet = Codelet("spmv")
    codelet.add_variant(
        ImplVariant(
            name="spmv_cpu",
            arch=Arch.CPU,
            fn=_spmv_cpu_task,
            cost_model=cost_cpu,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="spmv_openmp",
            arch=Arch.OPENMP,
            fn=_spmv_openmp_task,
            cost_model=cost_openmp,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="spmv_cuda_cusp",
            arch=Arch.CUDA,
            fn=_spmv_cuda_task,
            cost_model=cost_cuda,
        )
    )
    return codelet


def spmv_call(
    runtime: Runtime,
    codelet: Codelet,
    values: np.ndarray,
    colidxs: np.ndarray,
    rowptr: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    sync: bool = True,
):
    """One hand-written spmv invocation through the runtime API.

    Registers every operand, packs the scalar arguments and the call
    context, submits, and (synchronously) flushes results back to the
    host buffers before unregistering — the boilerplate the generated
    entry-wrapper hides.
    """
    nnz = len(values)
    nrows = len(rowptr) - 1
    ncols = len(x)
    h_values = runtime.register(values, "values")
    h_colidxs = runtime.register(colidxs, "colidxs")
    h_rowptr = runtime.register(rowptr, "rowptr")
    h_x = runtime.register(x, "x")
    h_y = runtime.register(y, "y")
    ctx = {"nnz": nnz, "nrows": nrows, "ncols": ncols, "first": 0}
    task = runtime.submit(
        codelet,
        [
            (h_values, "r"),
            (h_colidxs, "r"),
            (h_rowptr, "r"),
            (h_x, "r"),
            (h_y, "w"),
        ],
        ctx=ctx,
        scalar_args=(nnz, nrows, ncols, 0),
        sync=sync,
        name="spmv",
    )
    if sync:
        runtime.unregister(h_values)
        runtime.unregister(h_colidxs)
        runtime.unregister(h_rowptr)
        runtime.unregister(h_x)
        runtime.unregister(h_y)
    return task


def main(platform: str = "c2050", nrows: int = 4096, seed: int = 0) -> np.ndarray:
    """Complete hand-written application main program."""
    from repro.workloads.sparse import random_csr

    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    matrix = random_csr(nrows, nrows, 8, seed=seed)
    x = np.ones(nrows, dtype=np.float32)
    y = np.zeros(nrows, dtype=np.float32)
    spmv_call(
        runtime, codelet, matrix.values, matrix.colidxs, matrix.rowptr, x, y
    )
    runtime.shutdown()
    return y
