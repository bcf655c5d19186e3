"""SGEMM written directly against the runtime system (Table I "Direct")."""

from __future__ import annotations

import numpy as np

from repro.apps.sgemm import (
    cost_cpu,
    cost_cublas,
    cost_openmp,
    sgemm_cpu,
    sgemm_cublas,
    sgemm_openmp,
)
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _sgemm_cpu_task(ctx, *args):
    A, B, C = args[0], args[1], args[2]
    m, n, k, alpha, beta = args[3], args[4], args[5], args[6], args[7]
    sgemm_cpu(m, n, k, alpha, A, B, beta, C)


def _sgemm_openmp_task(ctx, *args):
    A, B, C = args[0], args[1], args[2]
    m, n, k, alpha, beta = args[3], args[4], args[5], args[6], args[7]
    sgemm_openmp(m, n, k, alpha, A, B, beta, C)


def _sgemm_cublas_task(ctx, *args):
    A, B, C = args[0], args[1], args[2]
    m, n, k, alpha, beta = args[3], args[4], args[5], args[6], args[7]
    sgemm_cublas(m, n, k, alpha, A, B, beta, C)


def build_codelet() -> Codelet:
    codelet = Codelet("sgemm")
    codelet.add_variant(
        ImplVariant(
            name="sgemm_cpu", arch=Arch.CPU, fn=_sgemm_cpu_task, cost_model=cost_cpu
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="sgemm_openmp",
            arch=Arch.OPENMP,
            fn=_sgemm_openmp_task,
            cost_model=cost_openmp,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="sgemm_cublas",
            arch=Arch.CUDA,
            fn=_sgemm_cublas_task,
            cost_model=cost_cublas,
        )
    )
    return codelet


def sgemm_call(
    runtime: Runtime,
    codelet: Codelet,
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    m: int,
    n: int,
    k: int,
    alpha: float,
    beta: float,
    sync: bool = True,
):
    """One hand-written sgemm invocation: register, pack, submit, flush."""
    h_a = runtime.register(A, "A")
    h_b = runtime.register(B, "B")
    h_c = runtime.register(C, "C")
    ctx = {"m": m, "n": n, "k": k}
    task = runtime.submit(
        codelet,
        [(h_a, "r"), (h_b, "r"), (h_c, "rw")],
        ctx=ctx,
        scalar_args=(m, n, k, alpha, beta),
        sync=sync,
        name="sgemm",
    )
    if sync:
        runtime.unregister(h_a)
        runtime.unregister(h_b)
        runtime.unregister(h_c)
    return task


def main(platform: str = "c2050", size: int = 512, seed: int = 0) -> np.ndarray:
    """Complete hand-written application main program."""
    from repro.workloads.dense import gemm_inputs

    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    A, B, C = gemm_inputs(size, size, size, seed=seed)
    sgemm_call(runtime, codelet, A, B, C, size, size, size, 1.0, 0.0)
    runtime.shutdown()
    return C
