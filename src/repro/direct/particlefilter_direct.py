"""ParticleFilter written directly against the runtime system."""

from __future__ import annotations

import numpy as np

from repro.apps.particlefilter import (
    cost_cpu,
    cost_cuda,
    cost_openmp,
    particlefilter_cpu,
    particlefilter_cuda,
    particlefilter_openmp,
)
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _pf_cpu_task(ctx, *args):
    frames, track = args[0], args[1]
    n_frames, dim, n_particles, seed = args[2], args[3], args[4], args[5]
    particlefilter_cpu(frames, n_frames, dim, n_particles, seed, track)


def _pf_openmp_task(ctx, *args):
    frames, track = args[0], args[1]
    n_frames, dim, n_particles, seed = args[2], args[3], args[4], args[5]
    particlefilter_openmp(frames, n_frames, dim, n_particles, seed, track)


def _pf_cuda_task(ctx, *args):
    frames, track = args[0], args[1]
    n_frames, dim, n_particles, seed = args[2], args[3], args[4], args[5]
    particlefilter_cuda(frames, n_frames, dim, n_particles, seed, track)


def build_codelet() -> Codelet:
    codelet = Codelet("particlefilter")
    codelet.add_variant(
        ImplVariant(
            name="particlefilter_cpu", arch=Arch.CPU, fn=_pf_cpu_task, cost_model=cost_cpu
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="particlefilter_openmp",
            arch=Arch.OPENMP,
            fn=_pf_openmp_task,
            cost_model=cost_openmp,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="particlefilter_cuda",
            arch=Arch.CUDA,
            fn=_pf_cuda_task,
            cost_model=cost_cuda,
        )
    )
    return codelet


def particlefilter_call(
    runtime: Runtime,
    codelet: Codelet,
    frames: np.ndarray,
    track: np.ndarray,
    n_frames: int,
    dim: int,
    n_particles: int,
    seed: int,
    sync: bool = True,
):
    """One hand-written invocation: register, pack, submit, flush."""
    h_frames = runtime.register(frames, "frames")
    h_track = runtime.register(track, "track")
    ctx = {"n_frames": n_frames, "dim": dim, "n_particles": n_particles}
    task = runtime.submit(
        codelet,
        [(h_frames, "r"), (h_track, "w")],
        ctx=ctx,
        scalar_args=(n_frames, dim, n_particles, seed),
        sync=sync,
        name="particlefilter",
    )
    if sync:
        runtime.unregister(h_frames)
        runtime.unregister(h_track)
    return task


def main(
    platform: str = "c2050", n_particles: int = 16_000, seed: int = 0
) -> np.ndarray:
    """Complete hand-written application main program."""
    from repro.apps.particlefilter import make_video

    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    frames, _ = make_video(8, 64, seed=seed)
    track = np.zeros(16, dtype=np.float32)
    particlefilter_call(runtime, codelet, frames, track, 8, 64, n_particles, seed)
    runtime.shutdown()
    return track
