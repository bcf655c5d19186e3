"""CFD written directly against the runtime system (Table I "Direct")."""

from __future__ import annotations

import numpy as np

from repro.apps.cfd import cfd_cpu, cfd_cuda, cfd_openmp, cost_cpu, cost_cuda, cost_openmp, make_grid
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _cfd_cpu_task(ctx, *args):
    variables, neighbors = args[0], args[1]
    ncells, iters = args[2], args[3]
    cfd_cpu(variables, neighbors, ncells, iters)


def _cfd_openmp_task(ctx, *args):
    variables, neighbors = args[0], args[1]
    ncells, iters = args[2], args[3]
    cfd_openmp(variables, neighbors, ncells, iters)


def _cfd_cuda_task(ctx, *args):
    variables, neighbors = args[0], args[1]
    ncells, iters = args[2], args[3]
    cfd_cuda(variables, neighbors, ncells, iters)


def build_codelet() -> Codelet:
    codelet = Codelet("cfd")
    codelet.add_variant(
        ImplVariant(name="cfd_cpu", arch=Arch.CPU, fn=_cfd_cpu_task, cost_model=cost_cpu)
    )
    codelet.add_variant(
        ImplVariant(
            name="cfd_openmp",
            arch=Arch.OPENMP,
            fn=_cfd_openmp_task,
            cost_model=cost_openmp,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="cfd_cuda", arch=Arch.CUDA, fn=_cfd_cuda_task, cost_model=cost_cuda
        )
    )
    return codelet


def cfd_call(
    runtime: Runtime,
    codelet: Codelet,
    variables: np.ndarray,
    neighbors: np.ndarray,
    ncells: int,
    iters: int,
    sync: bool = True,
):
    """One hand-written cfd invocation: register, pack, submit, flush."""
    h_u = runtime.register(variables, "variables")
    h_nb = runtime.register(neighbors, "neighbors")
    ctx = {"ncells": ncells, "iters": iters}
    task = runtime.submit(
        codelet,
        [(h_u, "rw"), (h_nb, "r")],
        ctx=ctx,
        scalar_args=(ncells, iters),
        sync=sync,
        name="cfd",
    )
    if sync:
        runtime.unregister(h_u)
        runtime.unregister(h_nb)
    return task


def main(platform: str = "c2050", ncells: int = 20_000, seed: int = 0) -> np.ndarray:
    """Complete hand-written application main program."""
    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    variables, neighbors = make_grid(ncells, seed=seed)
    cfd_call(runtime, codelet, variables, neighbors, ncells, 8)
    runtime.shutdown()
    return variables
