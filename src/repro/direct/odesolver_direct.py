"""The Runge-Kutta ODE solver written directly against the runtime system.

The largest row of Table I (LibSolve: 800 LOC with the tool vs 1252
direct): nine codelets, each with hand-written backend wrappers, plus a
hand-coded integration loop that registers operands, packs scalar
arguments and contexts, and manages synchronisation — everything the
composition tool otherwise generates from the XML descriptors.

Also the vehicle of Figure 7: ``main(variants=("cpu",))`` is the
"Direct - CPU" curve, ``main(variants=("cuda",))`` "Direct - CUDA".
"""

from __future__ import annotations

import numpy as np

from repro.apps import odesolver as ode
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

_ARCH_OF = {"cpu": Arch.CPU, "openmp": Arch.OPENMP, "cuda": Arch.CUDA}


# hand-written backend wrappers, one per component x backend ------------------

def _init_task(ctx, *args):
    y, n = args[0], args[1]
    ode.ode_init_kernel(y, n)


def _rhs_task(ctx, *args):
    y, k, n, t = args[0], args[1], args[2], args[3]
    ode.ode_rhs_kernel(y, k, n, t)


def _accum_task(ctx, *args):
    du, k, a, h, n = args[0], args[1], args[2], args[3], args[4]
    ode.ode_accum_kernel(du, k, a, h, n)


def _update_task(ctx, *args):
    y, du, b, n = args[0], args[1], args[2], args[3]
    ode.ode_update_kernel(y, du, b, n)


def _err_accum_task(ctx, *args):
    err, du, c, n = args[0], args[1], args[2], args[3]
    ode.ode_err_accum_kernel(err, du, c, n)


def _reset_task(ctx, *args):
    v, n = args[0], args[1]
    ode.ode_reset_kernel(v, n)


def _norm_task(ctx, *args):
    err, y, result, n = args[0], args[1], args[2], args[3]
    ode.ode_norm_kernel(err, y, result, n)


def _copy_task(ctx, *args):
    src, dst, n = args[0], args[1], args[2]
    ode.ode_copy_kernel(src, dst, n)


def _output_task(ctx, *args):
    y, sample, n, stride = args[0], args[1], args[2], args[3]
    ode.ode_output_kernel(y, sample, n, stride)


_TASK_FNS = {
    "ode_init": _init_task,
    "ode_rhs": _rhs_task,
    "ode_accum": _accum_task,
    "ode_update": _update_task,
    "ode_err_accum": _err_accum_task,
    "ode_reset": _reset_task,
    "ode_norm": _norm_task,
    "ode_copy": _copy_task,
    "ode_output": _output_task,
}


def build_codelets(variants: tuple[str, ...] = ("cpu", "openmp", "cuda")) -> dict[str, Codelet]:
    """Hand-assembled codelets for all nine components.

    ``variants`` restricts the registered backends — the Figure 7 curves
    use single-backend builds.
    """
    codelets: dict[str, Codelet] = {}
    for name in ode.COMPONENT_NAMES:
        codelet = Codelet(name)
        for suffix in variants:
            cost = getattr(ode, f"{name}_cost_{suffix}")
            codelet.add_variant(
                ImplVariant(
                    name=f"{name}_{suffix}",
                    arch=_ARCH_OF[suffix],
                    fn=_TASK_FNS[name],
                    cost_model=cost,
                )
            )
        codelets[name] = codelet
    return codelets


def integrate(
    runtime: Runtime,
    codelets: dict[str, Codelet],
    n: int,
    steps: int,
    h: float = 1e-3,
    sample_every: int = 10,
) -> tuple[np.ndarray, int]:
    """Hand-coded integration loop against the raw runtime API.

    Returns (final state, number of component invocations).
    """
    y = np.zeros(n, dtype=np.float32)
    k = np.zeros(n, dtype=np.float32)
    du = np.zeros(n, dtype=np.float32)
    err = np.zeros(n, dtype=np.float32)
    norm = np.zeros(1, dtype=np.float32)
    sample = np.zeros(min(n, 16), dtype=np.float32)
    h_y = runtime.register(y, "y")
    h_k = runtime.register(k, "k")
    h_du = runtime.register(du, "du")
    h_err = runtime.register(err, "err")
    h_norm = runtime.register(norm, "norm")
    h_sample = runtime.register(sample, "sample")
    calls = 0
    runtime.submit(
        codelets["ode_init"], [(h_y, "w")], ctx={"n": n}, scalar_args=(n,),
        name="ode_init",
    )
    calls += 1
    runtime.submit(
        codelets["ode_copy"], [(h_y, "r"), (h_du, "w")], ctx={"n": n},
        scalar_args=(n,), name="ode_copy",
    )
    calls += 1
    t = 0.0
    stride = max(n // max(len(sample), 1), 1)
    for step in range(steps):
        runtime.submit(
            codelets["ode_reset"], [(h_err, "w")], ctx={"n": n},
            scalar_args=(n,), name="ode_reset",
        )
        calls += 1
        for stage in range(5):
            runtime.submit(
                codelets["ode_rhs"], [(h_y, "r"), (h_k, "w")], ctx={"n": n},
                scalar_args=(n, t + h * stage / 5.0), name="ode_rhs",
            )
            runtime.submit(
                codelets["ode_accum"], [(h_du, "rw"), (h_k, "r")], ctx={"n": n},
                scalar_args=(ode.CK_A[stage], h, n), name="ode_accum",
            )
            runtime.submit(
                codelets["ode_update"], [(h_y, "rw"), (h_du, "r")], ctx={"n": n},
                scalar_args=(ode.CK_B[stage], n), name="ode_update",
            )
            calls += 3
        runtime.submit(
            codelets["ode_err_accum"], [(h_err, "rw"), (h_du, "r")], ctx={"n": n},
            scalar_args=(ode.CK_C[step % 5], n), name="ode_err_accum",
        )
        runtime.submit(
            codelets["ode_norm"], [(h_err, "r"), (h_y, "r"), (h_norm, "w")],
            ctx={"n": n}, scalar_args=(n,), name="ode_norm",
        )
        calls += 2
        if (step + 1) % sample_every == 0:
            runtime.submit(
                codelets["ode_output"], [(h_y, "r"), (h_sample, "w")],
                ctx={"n": n}, scalar_args=(n, stride), name="ode_output",
            )
            calls += 1
        t += h
    runtime.wait_for_all()
    runtime.unregister(h_y)
    runtime.unregister(h_k)
    runtime.unregister(h_du)
    runtime.unregister(h_err)
    runtime.unregister(h_norm)
    runtime.unregister(h_sample)
    return y, calls


def main(
    platform: str = "c2050",
    n: int = 2 * 250 * 250,
    steps: int = 588,
    variants: tuple[str, ...] = ("cpu", "openmp", "cuda"),
    scheduler: str = "dmda",
    seed: int = 0,
) -> tuple[np.ndarray, float, int]:
    """Complete hand-written application main program.

    Returns (final state, virtual execution time, invocation count).
    """
    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler=scheduler, seed=seed)
    codelets = build_codelets(variants)
    y, calls = integrate(runtime, codelets, n, steps)
    elapsed = runtime.shutdown()
    return y, elapsed, calls
