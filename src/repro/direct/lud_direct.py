"""LUD written directly against the runtime system (Table I "Direct")."""

from __future__ import annotations

import numpy as np

from repro.apps.lud import cost_cpu, cost_cuda, cost_openmp, lud_cpu, lud_cuda, lud_openmp
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _lud_cpu_task(ctx, *args):
    A, n = args[0], args[1]
    lud_cpu(A, n)


def _lud_openmp_task(ctx, *args):
    A, n = args[0], args[1]
    lud_openmp(A, n)


def _lud_cuda_task(ctx, *args):
    A, n = args[0], args[1]
    lud_cuda(A, n)


def build_codelet() -> Codelet:
    codelet = Codelet("lud")
    codelet.add_variant(
        ImplVariant(name="lud_cpu", arch=Arch.CPU, fn=_lud_cpu_task, cost_model=cost_cpu)
    )
    codelet.add_variant(
        ImplVariant(
            name="lud_openmp",
            arch=Arch.OPENMP,
            fn=_lud_openmp_task,
            cost_model=cost_openmp,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="lud_cuda", arch=Arch.CUDA, fn=_lud_cuda_task, cost_model=cost_cuda
        )
    )
    return codelet


def lud_call(
    runtime: Runtime,
    codelet: Codelet,
    A: np.ndarray,
    n: int,
    sync: bool = True,
):
    """One hand-written lud invocation: register, pack, submit, flush."""
    h_a = runtime.register(A, "A")
    task = runtime.submit(
        codelet,
        [(h_a, "rw")],
        ctx={"n": n},
        scalar_args=(n,),
        sync=sync,
        name="lud",
    )
    if sync:
        runtime.unregister(h_a)
    return task


def main(platform: str = "c2050", n: int = 512, seed: int = 0) -> np.ndarray:
    """Complete hand-written application main program."""
    from repro.apps.lud import make_spd_matrix

    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    A = make_spd_matrix(n, seed=seed)
    lud_call(runtime, codelet, A, n)
    runtime.shutdown()
    return A
