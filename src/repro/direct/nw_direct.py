"""Needleman-Wunsch written directly against the runtime system."""

from __future__ import annotations

import numpy as np

from repro.apps.nw import cost_cpu, cost_cuda, cost_openmp, nw_cpu, nw_cuda, nw_openmp
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _nw_cpu_task(ctx, *args):
    seq1, seq2, score = args[0], args[1], args[2]
    n, penalty = args[3], args[4]
    nw_cpu(seq1, seq2, score, n, penalty)


def _nw_openmp_task(ctx, *args):
    seq1, seq2, score = args[0], args[1], args[2]
    n, penalty = args[3], args[4]
    nw_openmp(seq1, seq2, score, n, penalty)


def _nw_cuda_task(ctx, *args):
    seq1, seq2, score = args[0], args[1], args[2]
    n, penalty = args[3], args[4]
    nw_cuda(seq1, seq2, score, n, penalty)


def build_codelet() -> Codelet:
    codelet = Codelet("nw")
    codelet.add_variant(
        ImplVariant(name="nw_cpu", arch=Arch.CPU, fn=_nw_cpu_task, cost_model=cost_cpu)
    )
    codelet.add_variant(
        ImplVariant(
            name="nw_openmp", arch=Arch.OPENMP, fn=_nw_openmp_task, cost_model=cost_openmp
        )
    )
    codelet.add_variant(
        ImplVariant(name="nw_cuda", arch=Arch.CUDA, fn=_nw_cuda_task, cost_model=cost_cuda)
    )
    return codelet


def nw_call(
    runtime: Runtime,
    codelet: Codelet,
    seq1: np.ndarray,
    seq2: np.ndarray,
    score: np.ndarray,
    n: int,
    penalty: int,
    sync: bool = True,
):
    """One hand-written nw invocation: register, pack, submit, flush."""
    h_s1 = runtime.register(seq1, "seq1")
    h_s2 = runtime.register(seq2, "seq2")
    h_score = runtime.register(score, "score")
    ctx = {"n": n, "penalty": penalty}
    task = runtime.submit(
        codelet,
        [(h_s1, "r"), (h_s2, "r"), (h_score, "w")],
        ctx=ctx,
        scalar_args=(n, penalty),
        sync=sync,
        name="nw",
    )
    if sync:
        runtime.unregister(h_s1)
        runtime.unregister(h_s2)
        runtime.unregister(h_score)
    return task


def main(platform: str = "c2050", n: int = 1024, seed: int = 0) -> np.ndarray:
    """Complete hand-written application main program."""
    from repro.apps.nw import make_sequences

    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    seq1, seq2 = make_sequences(n, seed=seed)
    score = np.zeros((n + 1) * (n + 1), dtype=np.int32)
    nw_call(runtime, codelet, seq1, seq2, score, n, 2)
    runtime.shutdown()
    return score
