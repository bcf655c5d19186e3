"""PathFinder written directly against the runtime system."""

from __future__ import annotations

import numpy as np

from repro.apps.pathfinder import (
    cost_cpu,
    cost_cuda,
    cost_openmp,
    pathfinder_cpu,
    pathfinder_cuda,
    pathfinder_openmp,
)
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _pathfinder_cpu_task(ctx, *args):
    wall, result = args[0], args[1]
    rows, cols = args[2], args[3]
    pathfinder_cpu(wall, rows, cols, result)


def _pathfinder_openmp_task(ctx, *args):
    wall, result = args[0], args[1]
    rows, cols = args[2], args[3]
    pathfinder_openmp(wall, rows, cols, result)


def _pathfinder_cuda_task(ctx, *args):
    wall, result = args[0], args[1]
    rows, cols = args[2], args[3]
    pathfinder_cuda(wall, rows, cols, result)


def build_codelet() -> Codelet:
    codelet = Codelet("pathfinder")
    codelet.add_variant(
        ImplVariant(
            name="pathfinder_cpu",
            arch=Arch.CPU,
            fn=_pathfinder_cpu_task,
            cost_model=cost_cpu,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="pathfinder_openmp",
            arch=Arch.OPENMP,
            fn=_pathfinder_openmp_task,
            cost_model=cost_openmp,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="pathfinder_cuda",
            arch=Arch.CUDA,
            fn=_pathfinder_cuda_task,
            cost_model=cost_cuda,
        )
    )
    return codelet


def pathfinder_call(
    runtime: Runtime,
    codelet: Codelet,
    wall: np.ndarray,
    result: np.ndarray,
    rows: int,
    cols: int,
    sync: bool = True,
):
    """One hand-written invocation: register, pack, submit, flush."""
    h_wall = runtime.register(wall, "wall")
    h_result = runtime.register(result, "result")
    ctx = {"rows": rows, "cols": cols}
    task = runtime.submit(
        codelet,
        [(h_wall, "r"), (h_result, "w")],
        ctx=ctx,
        scalar_args=(rows, cols),
        sync=sync,
        name="pathfinder",
    )
    if sync:
        runtime.unregister(h_wall)
        runtime.unregister(h_result)
    return task


def main(platform: str = "c2050", cols: int = 100_000, seed: int = 0) -> np.ndarray:
    """Complete hand-written application main program."""
    from repro.workloads.grids import pathfinder_wall

    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    wall = pathfinder_wall(50, cols, seed=seed)
    result = np.zeros(cols, dtype=np.int32)
    pathfinder_call(runtime, codelet, wall, result, 50, cols)
    runtime.shutdown()
    return result
