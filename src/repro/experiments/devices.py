"""Coarse-vs-detailed device-model ablation across the device zoo.

The detailed tier (:mod:`repro.hw.model`) prices GPU kernels from SM
occupancy, an L1/L2 hit-rate-blended bandwidth and instruction-class
latencies instead of the coarse tier's flat efficiency scalars.  The
question this experiment answers is not "are the numbers different"
(they are, by construction) but **does the extra fidelity change what
the schedulers decide** — and does the answer depend on the GPU
generation, which is the whole point of having a zoo.

For every zoo preset (``fermi``/``kepler``/``pascal``/``volta``), three
kernel archetypes and both schedulers (dmda, lookahead), we run the same
serial task chain at both fidelity tiers on pre-calibrated performance
models and record the steady-state (variant, arch) choice:

- **sgemm** — regular, compute-bound.  GPUs should win at every tier on
  every generation; a flip here would be a calibration bug.
- **spmv** — irregular, memory-bound.  The detailed tier's
  latency-hiding term punishes low-occupancy gather kernels far more
  than a flat efficiency scalar does.
- **resample** — branchy, compute-bound (particle-filter resampling).
  On Fermi (few warps, 600-cycle global latency, issue width 1) the
  detailed tier prices the GPU *below* the CPU gang, flipping dmda's
  placement; on Volta (full occupancy, short latencies) the GPU keeps
  winning at either tier.

Gates (all hard; the process exits non-zero on failure):

- ``flip_found`` — at least one (app, preset) where a scheduler's
  steady-state choice differs between tiers;
- ``sgemm_stable`` — sgemm never flips (the detailed tier must not
  wreck the obvious case);
- ``tiers_priced_differently`` — for every preset, at least one app's
  makespan differs between tiers (the knobs actually reach pricing).

``python -m repro.experiments.devices`` writes
``benchmarks/results/BENCH_devices.json``; ``--smoke`` shortens the
chains for CI.
"""

from __future__ import annotations


import numpy as np

from repro.apps.costkit import gpu_time, ncores_of, openmp_time
from repro.experiments import runner
from repro.hw.devices import AccessPattern
from repro.hw.model import KernelProfile
from repro.hw.presets import machine
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.perfmodel import PerfModel

PRESETS = ("fermi", "kepler", "pascal", "volta")
TIERS = ("coarse", "detailed")
SCHEDULERS = ("dmda", "lookahead")

#: CPU cores per zoo machine (one drives the GPU -> 5 CPU workers)
N_CPU_CORES = 6

CHAIN_LINKS = 16
CHAIN_LINKS_SMOKE = 6

#: lookahead window/beam — small, the chain has two placements per task
WINDOW = 6
BEAM = 8


# ---------------------------------------------------------------------------
# Kernel archetypes.  Costs are the shared costkit rooflines evaluated on
# the *actual* device spec, so they respond to the attached device model;
# the CUDA variants carry explicit kernel profiles for the detailed tier.
# ---------------------------------------------------------------------------

SGEMM_N = 1024  # matrix dim: 2n^3 flops, 3 * 4n^2 bytes
SPMV_NNZ = 6_000_000  # 2 flops/nnz, ~8 B/nnz + row pointers
RESAMPLE_N = 2_000_000  # particles: ~400 flops and 16 B each


def _sgemm_codelet() -> Codelet:
    flops = 2.0 * SGEMM_N**3
    nbytes = 3 * 4 * SGEMM_N**2
    profile = KernelProfile(
        threads_per_block=256,
        regs_per_thread=48,
        shared_mem_per_block=16 * 1024,
        mix={"fma": 0.70, "alu": 0.12, "ldst_shared": 0.10, "ldst_global": 0.06, "branch": 0.02},
    )

    def fn(ctx, y):
        y += 1.0

    return Codelet(
        "dev_sgemm",
        [
            ImplVariant(
                "dev_sgemm_omp",
                Arch.OPENMP,
                fn,
                lambda ctx, dev: openmp_time(
                    dev, ncores_of(ctx), flops, nbytes, AccessPattern.REGULAR
                ),
            ),
            ImplVariant(
                "dev_sgemm_cuda",
                Arch.CUDA,
                fn,
                lambda ctx, dev: gpu_time(
                    dev, flops, nbytes, AccessPattern.REGULAR, profile=profile
                ),
                kernel_profile=profile,
            ),
        ],
    )


def _spmv_codelet() -> Codelet:
    flops = 2.0 * SPMV_NNZ
    nbytes = 8 * SPMV_NNZ  # value + column index per nonzero
    profile = KernelProfile(
        threads_per_block=128,
        regs_per_thread=28,
        mix={"fma": 0.18, "alu": 0.27, "ldst_global": 0.45, "branch": 0.10},
    )

    def fn(ctx, y):
        y += 1.0

    return Codelet(
        "dev_spmv",
        [
            ImplVariant(
                "dev_spmv_omp",
                Arch.OPENMP,
                fn,
                lambda ctx, dev: openmp_time(
                    dev, ncores_of(ctx), flops, nbytes, AccessPattern.IRREGULAR
                ),
            ),
            ImplVariant(
                "dev_spmv_cuda",
                Arch.CUDA,
                fn,
                lambda ctx, dev: gpu_time(
                    dev, flops, nbytes, AccessPattern.IRREGULAR, profile=profile
                ),
                kernel_profile=profile,
            ),
        ],
    )


def _resample_codelet() -> Codelet:
    flops = 400.0 * RESAMPLE_N
    nbytes = 16 * RESAMPLE_N
    profile = KernelProfile(
        threads_per_block=128,
        regs_per_thread=40,
        shared_mem_per_block=4 * 1024,
        mix={"fma": 0.20, "alu": 0.30, "ldst_global": 0.15, "sfu": 0.05, "branch": 0.30},
    )

    def fn(ctx, y):
        y += 1.0

    return Codelet(
        "dev_resample",
        [
            ImplVariant(
                "dev_resample_omp",
                Arch.OPENMP,
                fn,
                lambda ctx, dev: openmp_time(
                    dev, ncores_of(ctx), flops, nbytes, AccessPattern.BRANCHY
                ),
            ),
            ImplVariant(
                "dev_resample_cuda",
                Arch.CUDA,
                fn,
                lambda ctx, dev: gpu_time(
                    dev, flops, nbytes, AccessPattern.BRANCHY, profile=profile
                ),
                kernel_profile=profile,
            ),
        ],
    )


APPS = {
    "sgemm": _sgemm_codelet,
    "spmv": _spmv_codelet,
    "resample": _resample_codelet,
}

#: operand length per app (float32 elements), sized to the traffic above
OPERAND_ELEMS = {
    "sgemm": 3 * SGEMM_N**2,
    "spmv": 2 * SPMV_NNZ,
    "resample": 4 * RESAMPLE_N,
}


# ---------------------------------------------------------------------------
# One arm: calibrate, run the chain, read the steady-state choice.
# ---------------------------------------------------------------------------

def _calibrate(mach, codelet: Codelet, n_elems: int) -> PerfModel:
    """Pre-train the performance model: dmda's exploration visits every
    variant; with zero noise the learned means equal the tier's ground
    truth exactly."""
    pm = PerfModel()
    rt = Runtime(
        mach,
        scheduler="dmda",
        perfmodel=pm,
        seed=0,
        noise_sigma=0.0,
        run_kernels=False,
    )
    for i in range(6):
        h = rt.register(
            np.zeros(n_elems, dtype=np.float32), f"warm_{codelet.name}_{i}"
        )
        rt.submit(codelet, [(h, "rw")], ctx={"n": n_elems})
    rt.wait_for_all()
    rt.shutdown()
    return pm


def _scheduler_kwargs(scheduler: str) -> dict:
    if scheduler == "dmda":
        return {"scheduler": "dmda"}
    return {
        "scheduler": "lookahead",
        "scheduler_options": {"window_size": WINDOW, "beam_width": BEAM},
    }


def run_arm(preset: str, tier: str, app: str, scheduler: str, n_links: int) -> dict:
    """Run one (preset, tier, app, scheduler) chain; report the choice."""
    mach = machine(preset, fidelity=tier, n_cpu_cores=N_CPU_CORES)
    codelet = APPS[app]()
    n_elems = OPERAND_ELEMS[app]
    pm = _calibrate(mach, codelet, n_elems)

    rt = Runtime(
        machine(preset, fidelity=tier, n_cpu_cores=N_CPU_CORES),
        perfmodel=pm,
        seed=0,
        noise_sigma=0.0,
        run_kernels=False,
        **_scheduler_kwargs(scheduler),
    )
    h = rt.register(np.zeros(n_elems, dtype=np.float32), f"{app}_chain")
    for _ in range(n_links):
        rt.submit(codelet, [(h, "rw")], ctx={"n": n_elems})
    makespan = rt.wait_for_all()

    # steady-state choice: the variant the scheduler settles on for the
    # back half of the chain (the front may amortise the initial PCIe
    # crossing or explore)
    tail = list(rt.trace.tasks)[n_links // 2:]
    variants = {rec.variant for rec in tail}
    archs = {rec.arch for rec in tail}
    rt.shutdown()
    return {
        "preset": preset,
        "tier": tier,
        "app": app,
        "scheduler": scheduler,
        "makespan_s": makespan,
        "choice_variant": sorted(variants)[0] if len(variants) == 1 else "mixed",
        "choice_arch": sorted(archs)[0] if len(archs) == 1 else "mixed",
    }


def run(smoke: bool = False) -> dict:
    n_links = CHAIN_LINKS_SMOKE if smoke else CHAIN_LINKS
    arms: dict[str, dict] = {}
    for preset in PRESETS:
        for app in APPS:
            for scheduler in SCHEDULERS:
                for tier in TIERS:
                    key = f"{preset}/{app}/{scheduler}/{tier}"
                    arms[key] = run_arm(preset, tier, app, scheduler, n_links)

    # flips: (preset, app, scheduler) whose steady-state choice differs
    # between tiers
    flips = []
    sgemm_flips = []
    priced_differently = {p: False for p in PRESETS}
    for preset in PRESETS:
        for app in APPS:
            for scheduler in SCHEDULERS:
                coarse = arms[f"{preset}/{app}/{scheduler}/coarse"]
                detailed = arms[f"{preset}/{app}/{scheduler}/detailed"]
                if abs(coarse["makespan_s"] - detailed["makespan_s"]) > 1e-12:
                    priced_differently[preset] = True
                if coarse["choice_variant"] != detailed["choice_variant"]:
                    flip = {
                        "preset": preset,
                        "app": app,
                        "scheduler": scheduler,
                        "coarse_choice": coarse["choice_variant"],
                        "detailed_choice": detailed["choice_variant"],
                    }
                    flips.append(flip)
                    if app == "sgemm":
                        sgemm_flips.append(flip)

    gates = {
        "flip_found": {
            "value": len(flips),
            "ok": len(flips) >= 1,
        },
        "sgemm_stable": {
            "value": len(sgemm_flips),
            "ok": len(sgemm_flips) == 0,
        },
        "tiers_priced_differently": {
            "value": sorted(p for p, v in priced_differently.items() if v),
            "ok": all(priced_differently.values()),
        },
    }
    return {
        "smoke": smoke,
        "n_chain_links": n_links,
        "n_cpu_cores": N_CPU_CORES,
        "presets": list(PRESETS),
        "apps": list(APPS),
        "schedulers": list(SCHEDULERS),
        "arms": arms,
        "flips": flips,
        "gates": gates,
        "within_budget": all(g["ok"] for g in gates.values()),
    }


def format_results(doc: dict) -> str:
    lines = ["device-model fidelity ablation (steady-state scheduler choices)"]
    for preset in doc["presets"]:
        lines.append(f"  {preset}:")
        for app in doc["apps"]:
            for scheduler in doc["schedulers"]:
                c = doc["arms"][f"{preset}/{app}/{scheduler}/coarse"]
                d = doc["arms"][f"{preset}/{app}/{scheduler}/detailed"]
                marker = "  << FLIP" if c["choice_variant"] != d["choice_variant"] else ""
                lines.append(
                    f"    {app:<9s} {scheduler:<10s} "
                    f"coarse={c['choice_arch']:<7s} "
                    f"detailed={d['choice_arch']:<7s}{marker}"
                )
    for name, g in doc["gates"].items():
        flag = "ok" if g["ok"] else "** FAILED **"
        lines.append(f"  gate {name}: {g['value']} {flag}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = runner.parse(
        "devices",
        "coarse vs detailed device-model ablation over the zoo",
        argv,
    )
    doc = run(smoke=args.smoke)
    return runner.report(
        args,
        "devices",
        doc,
        doc["within_budget"],
        {"devices_fidelity": format_results(doc)},
    )


if __name__ == "__main__":
    raise SystemExit(main())
