"""Seeded DAG generator for the ``dag-dmda`` and ``dag-lookahead`` workloads.

A program is a list of task submissions over a fixed pool of data
handles.  Every codelet has an OpenMP (CPU gang) and a CUDA variant
priced by :mod:`repro.apps.costkit`, and every CUDA variant declares a
:class:`~repro.hw.model.KernelProfile`, which only the detailed device
tier reads.  Dependencies come from sequential data consistency: a task
that reads or read-writes a handle orders after the last writer of it.

Three task shapes:

- *random*: one kernel reads one or two pool handles of one size class
  (``r``) and read-writes another one of that class (``rw``);
- *chain*: stages read-write one large handle in turn, alternating a
  GPU-friendly and a CPU-friendly kernel (the transfer-bound regime the
  lookahead planner is for);
- *fan-out*: a burst of tasks that all read one large handle and each
  read-write its own smaller output.

Handle sizes within a size class are spread evenly over 1x to 1.9x of
the class size.  They stay in one log2 bucket and so share
performance-model history: predictions carry a real within-bucket
error, and prediction quality moves the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.costkit import gpu_time, ncores_of, openmp_time
from repro.hw.devices import AccessPattern
from repro.hw.model import KernelProfile
from repro.runtime import Arch, Codelet, ImplVariant


@dataclass(frozen=True)
class Kind:
    """One kernel type: work per element, access pattern, GPU launch shape."""

    name: str
    flops: float  # per element
    nbytes: float  # bytes moved per element
    pattern: AccessPattern
    profile: KernelProfile
    n_inputs: int = 1


KINDS = {
    k.name: k
    for k in (
        Kind(
            "axpy", 2.0, 12.0, AccessPattern.REGULAR,
            KernelProfile(threads_per_block=256, regs_per_thread=16,
                          mix={"fma": 0.3, "alu": 0.1, "ldst_global": 0.6}),
        ),
        Kind(
            "dense", 96.0, 12.0, AccessPattern.REGULAR,
            KernelProfile(threads_per_block=256, regs_per_thread=48,
                          shared_mem_per_block=16 * 1024,
                          mix={"fma": 0.7, "alu": 0.12, "ldst_shared": 0.1,
                               "ldst_global": 0.06, "branch": 0.02}),
            n_inputs=2,
        ),
        Kind(
            "gather", 2.0, 16.0, AccessPattern.IRREGULAR,
            KernelProfile(threads_per_block=128, regs_per_thread=28,
                          mix={"fma": 0.18, "alu": 0.27, "ldst_global": 0.45,
                               "branch": 0.1}),
        ),
        Kind(
            "branchy", 60.0, 8.0, AccessPattern.BRANCHY,
            KernelProfile(threads_per_block=128, regs_per_thread=40,
                          shared_mem_per_block=4 * 1024,
                          mix={"fma": 0.2, "alu": 0.3, "ldst_global": 0.15,
                               "sfu": 0.05, "branch": 0.3}),
        ),
    )
}

#: chain stages alternate these two (GPU-friendly, CPU-friendly)
CHAIN_KINDS = ("dense", "branchy")


def _noop(ctx, *arrays):
    """Kernel body; the DAG workloads run with kernels off."""


def make_codelet(kind: Kind) -> Codelet:
    """OpenMP + CUDA variants of one kernel type; ``ctx["n"]`` (a float,
    so it stays out of the history footprint) is the element count."""

    def cpu_cost(ctx, dev, k=kind):
        n = ctx["n"]
        return openmp_time(dev, ncores_of(ctx), k.flops * n, k.nbytes * n, k.pattern)

    def gpu_cost(ctx, dev, k=kind):
        n = ctx["n"]
        return gpu_time(dev, k.flops * n, k.nbytes * n, k.pattern, profile=k.profile)

    return Codelet(
        f"dag_{kind.name}",
        [
            ImplVariant(f"dag_{kind.name}_omp", Arch.OPENMP, _noop, cpu_cost),
            ImplVariant(
                f"dag_{kind.name}_cuda", Arch.CUDA, _noop, gpu_cost,
                kernel_profile=kind.profile,
            ),
        ],
    )


@dataclass(frozen=True)
class DagSpec:
    """Shape of one generated program."""

    n_tasks: int
    #: log2 element counts of the pool's size classes
    size_classes: tuple[int, ...]
    handles_per_class: int
    #: share of the tasks that belong to chains / fan-out bursts
    chain_share: float = 0.0
    fanout_share: float = 0.0
    chain_len: int = 8
    fanout_width: int = 6
    #: size classes chains and fan-out sources draw from (default: the
    #: largest class)
    large_classes: tuple[int, ...] = ()
    #: size class of fan-out outputs
    fanout_out_class: int = 0


@dataclass(frozen=True)
class Dag:
    """A generated program: pool handle sizes plus the submission list.

    ``tasks`` entries are ``(kind name, ((handle index, mode), ...), n)``
    where ``n`` is the element count the kernel works on.
    """

    handle_sizes: tuple[int, ...]
    tasks: tuple[tuple[str, tuple[tuple[int, str], ...], float], ...]


def generate(spec: DagSpec, seed: int) -> Dag:
    """The program for ``seed``: the same seed gives the same program."""
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    by_class: dict[int, list[int]] = {}
    classes = sorted(
        set(spec.size_classes) | set(spec.large_classes)
        | ({spec.fanout_out_class} if spec.fanout_share else set())
    )
    # every seed gets the same sizes per class, in its own order, so the
    # program's total work does not drift with the seed
    spread = np.linspace(1.0, 1.9, spec.handles_per_class)
    for c in classes:
        for f in rng.permutation(spread):
            by_class.setdefault(c, []).append(len(sizes))
            sizes.append(int((1 << c) * f))
    large = [h for c in spec.large_classes or (max(spec.size_classes),) for h in by_class[c]]
    # fixed group counts in a seeded order; chains and fan-out bursts take
    # their large handle round-robin, so every seed does the same work
    n_chains = round(spec.n_tasks * spec.chain_share / spec.chain_len)
    n_fans = round(spec.n_tasks * spec.fanout_share / spec.fanout_width)
    n_rand = max(spec.n_tasks - n_chains * spec.chain_len - n_fans * spec.fanout_width, 0)
    groups = np.array(["chain"] * n_chains + ["fan"] * n_fans + ["rand"] * n_rand)
    rng.shuffle(groups)
    large_order = rng.permutation(large)
    kinds = sorted(KINDS)
    tasks: list = []
    n_large = 0
    for group in groups:
        if group == "chain":
            h = int(large_order[n_large % len(large)])
            n_large += 1
            for step in range(spec.chain_len):
                kind = CHAIN_KINDS[step % 2]
                tasks.append((kind, ((h, "rw"),), float(sizes[h])))
        elif group == "fan":
            src = int(large_order[n_large % len(large)])
            n_large += 1
            outs = rng.choice(
                by_class[spec.fanout_out_class], size=spec.fanout_width, replace=False
            )
            kind = kinds[int(rng.integers(len(kinds)))]
            for out in outs:
                tasks.append(
                    (kind, ((src, "r"), (int(out), "rw")), float(sizes[int(out)]))
                )
        else:
            kind = kinds[int(rng.integers(len(kinds)))]
            pool = by_class[int(rng.choice(spec.size_classes))]
            picked = rng.choice(pool, size=KINDS[kind].n_inputs + 1, replace=False)
            ops = tuple((int(h), "r") for h in picked[1:]) + ((int(picked[0]), "rw"),)
            tasks.append((kind, ops, float(sizes[int(picked[0])])))
    return Dag(tuple(sizes), tuple(tasks[: spec.n_tasks]))
