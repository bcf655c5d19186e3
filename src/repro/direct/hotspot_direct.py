"""HotSpot written directly against the runtime system (Table I "Direct")."""

from __future__ import annotations

import numpy as np

from repro.apps.hotspot import (
    cost_cpu,
    cost_cuda,
    cost_openmp,
    hotspot_cpu,
    hotspot_cuda,
    hotspot_openmp,
)
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _hotspot_cpu_task(ctx, *args):
    power, temp = args[0], args[1]
    rows, cols, iters = args[2], args[3], args[4]
    hotspot_cpu(power, temp, rows, cols, iters)


def _hotspot_openmp_task(ctx, *args):
    power, temp = args[0], args[1]
    rows, cols, iters = args[2], args[3], args[4]
    hotspot_openmp(power, temp, rows, cols, iters)


def _hotspot_cuda_task(ctx, *args):
    power, temp = args[0], args[1]
    rows, cols, iters = args[2], args[3], args[4]
    hotspot_cuda(power, temp, rows, cols, iters)


def build_codelet() -> Codelet:
    codelet = Codelet("hotspot")
    codelet.add_variant(
        ImplVariant(
            name="hotspot_cpu", arch=Arch.CPU, fn=_hotspot_cpu_task, cost_model=cost_cpu
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="hotspot_openmp",
            arch=Arch.OPENMP,
            fn=_hotspot_openmp_task,
            cost_model=cost_openmp,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="hotspot_cuda",
            arch=Arch.CUDA,
            fn=_hotspot_cuda_task,
            cost_model=cost_cuda,
        )
    )
    return codelet


def hotspot_call(
    runtime: Runtime,
    codelet: Codelet,
    power: np.ndarray,
    temp: np.ndarray,
    rows: int,
    cols: int,
    iters: int,
    sync: bool = True,
):
    """One hand-written hotspot invocation: register, pack, submit, flush."""
    h_power = runtime.register(power, "power")
    h_temp = runtime.register(temp, "temp")
    ctx = {"rows": rows, "cols": cols, "iters": iters}
    task = runtime.submit(
        codelet,
        [(h_power, "r"), (h_temp, "rw")],
        ctx=ctx,
        scalar_args=(rows, cols, iters),
        sync=sync,
        name="hotspot",
    )
    if sync:
        runtime.unregister(h_power)
        runtime.unregister(h_temp)
    return task


def main(platform: str = "c2050", size: int = 256, seed: int = 0) -> np.ndarray:
    """Complete hand-written application main program."""
    from repro.workloads.grids import hotspot_inputs

    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    power, temp = hotspot_inputs(size, size, seed=seed)
    hotspot_call(runtime, codelet, power, temp, size, size, 16)
    runtime.shutdown()
    return temp
