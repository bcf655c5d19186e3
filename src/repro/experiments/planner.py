"""Lookahead-vs-dmda planner ablation on transfer-heavy workloads.

The lookahead planner (see :mod:`repro.composer.lookahead` and
``docs/PLANNER.md``) exists for exactly one failure mode of greedy
composition: a per-task optimum that ping-pongs an operand across PCIe
because each individual step is locally cheapest, while keeping the
operand device-resident for the *next* consumer would be globally
cheaper.  This experiment constructs that regime synthetically and
measures all three arms on identical, pre-calibrated performance models:

- **chain** — one large operand read-written by an alternating sequence
  of a GPU-friendly and a CPU-friendly codelet.  Greedy dmda bounces the
  operand host↔device every step; the planner (fusion on) keeps the
  whole chain device-resident and eats the slower GPU kernel, which wins
  once transfers dominate.  The fusion-off arm scores the conservative
  materialize-to-host composition and therefore plans the same
  ping-pong dmda does — the ablation that shows *fusion*, not the DP,
  is what pays here.
- **fanout** — independent tasks with private operands.  There is
  nothing to fuse and no global structure to exploit, so the planner
  must not *lose*: its makespan has to stay within a few percent of
  dmda's.

Every run uses a model pre-trained to calibration (the planner refuses
to plan uncalibrated windows and would just fall back to dmda), zero
noise and modeled kernels, so makespans are exact model arithmetic and
the gates are deterministic.

``python -m repro.experiments.planner`` writes
``benchmarks/results/BENCH_planner.json`` and exits non-zero when a gate
fails (``--smoke`` shrinks the chain for CI).  Gates:

- chain speedup (dmda / lookahead-fusion-on) >= ``CHAIN_SPEEDUP_MIN``;
- fanout makespan within ``FANOUT_REL_TOL`` of dmda's;
- every planned window's modeled cost <= its greedy modeled cost;
- the fusion-on chain run actually fused producer→consumer edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import runner
from repro.hw.description import HOST_NODE
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.perfmodel import PerfModel

#: minimum dmda/lookahead(fusion on) makespan ratio on the chain
CHAIN_SPEEDUP_MIN = 1.15

#: fanout: |lookahead - dmda| / dmda must stay under this
FANOUT_REL_TOL = 0.05

#: operand length (float32); large enough that one PCIe crossing
#: dominates the cheap kernels below
N_ELEMS = 4_000_000

#: planner window (chain tasks per planning window)
WINDOW = 12

#: beam width for the chain DP — wide enough that the device-resident
#: plan survives the early steps where it trails the ping-pong prefixes
BEAM = 12

CHAIN_LINKS = 48
CHAIN_LINKS_SMOKE = 12
FANOUT_TASKS = 16


def _machine():
    """One GPU plus one CPU core: the minimal ping-pong platform.

    A single CPU worker (the other core drives the GPU, StarPU-style)
    keeps the planner's candidate set small — two placements per task —
    so the beam provably retains the device-resident plan instead of
    filling up with core-symmetric ping-pong prefixes.
    """
    return platform_c2050(n_cpu_cores=2)


def _codelets() -> tuple[Codelet, Codelet, float]:
    """The alternating chain stages, with costs scaled to the PCIe time.

    With ``T`` = one host↔device crossing of the operand:

    - stage A: GPU ``0.2 T``, CPU ``2.2 T`` — GPU-friendly;
    - stage B: CPU ``0.2 T``, GPU ``1.4 T`` — CPU-friendly, but cheaper
      on the GPU than the ``1.2 T`` it costs to pull the operand home
      and run it there... *except* that greedy dmda compares exactly
      those two ends (``1.4 T`` vs ``0.2 T + 1 T``) and takes the CPU.

    Greedy therefore pays ``2.4 T`` per A+B cycle (two crossings), the
    device-resident plan ``1.6 T`` (none).
    """
    m = _machine()
    gpu_node = m.gpu_units[0].memory_node
    t_pcie = m.transfer_time(HOST_NODE, gpu_node, N_ELEMS * 4)

    def fn(ctx, y):  # modeled run: kernels never execute
        y += 1.0

    def const(cost):
        return lambda ctx, dev: cost

    stage_a = Codelet(
        "plan_stage_a",
        [
            ImplVariant("plan_a_cpu", Arch.CPU, fn, const(2.2 * t_pcie)),
            ImplVariant("plan_a_cuda", Arch.CUDA, fn, const(0.2 * t_pcie)),
        ],
    )
    stage_b = Codelet(
        "plan_stage_b",
        [
            ImplVariant("plan_b_cpu", Arch.CPU, fn, const(0.2 * t_pcie)),
            ImplVariant("plan_b_cuda", Arch.CUDA, fn, const(1.4 * t_pcie)),
        ],
    )
    return stage_a, stage_b, t_pcie


def _trained_model(codelets) -> PerfModel:
    """Pre-calibrate every variant of every codelet at the chain size.

    dmda's exploration does the work: a handful of submissions per
    codelet visits each variant ``calibration_samples`` times, and with
    zero noise the recorded durations equal the cost models exactly.
    """
    pm = PerfModel()
    rt = Runtime(
        _machine(),
        scheduler="dmda",
        perfmodel=pm,
        seed=0,
        noise_sigma=0.0,
        run_kernels=False,
    )
    for cl in codelets:
        for i in range(6):
            h = rt.register(
                np.zeros(N_ELEMS, dtype=np.float32), f"warm_{cl.name}_{i}"
            )
            rt.submit(cl, [(h, "rw")], ctx={"n": N_ELEMS})
    rt.wait_for_all()
    rt.shutdown()
    return pm


@dataclass(frozen=True)
class ArmResult:
    arm: str
    makespan: float
    n_planned_windows: int = 0
    n_fallback_windows: int = 0
    n_fused_edges: int = 0
    plan_le_greedy: bool = True

    def to_dict(self) -> dict:
        return {
            "arm": self.arm,
            "makespan_s": self.makespan,
            "n_planned_windows": self.n_planned_windows,
            "n_fallback_windows": self.n_fallback_windows,
            "n_fused_edges": self.n_fused_edges,
            "plan_le_greedy": self.plan_le_greedy,
        }


def _arm_kwargs(arm: str) -> dict:
    if arm == "dmda":
        return {"scheduler": "dmda"}
    fusion = arm.endswith("fusion_on")
    return {
        "scheduler": "lookahead",
        "scheduler_options": {
            "window_size": WINDOW,
            "beam_width": BEAM,
            "fusion": fusion,
        },
    }


def _finish(arm: str, rt: Runtime, makespan: float) -> ArmResult:
    sched = rt.scheduler
    if getattr(sched, "is_bulk", False):
        planned = [p for p in sched.plans if not p.fallback]
        res = ArmResult(
            arm,
            makespan,
            n_planned_windows=len(planned),
            n_fallback_windows=sched.n_fallback_windows,
            n_fused_edges=sched.n_fused_edges,
            plan_le_greedy=all(
                p.planned_makespan <= p.greedy_makespan + 1e-9
                for p in planned
            ),
        )
    else:
        res = ArmResult(arm, makespan)
    rt.shutdown()
    return res


def run_chain(arm: str, n_links: int) -> ArmResult:
    stage_a, stage_b, _ = _codelets()
    pm = _trained_model((stage_a, stage_b))
    rt = Runtime(
        _machine(),
        perfmodel=pm,
        seed=0,
        noise_sigma=0.0,
        run_kernels=False,
        **_arm_kwargs(arm),
    )
    h = rt.register(np.zeros(N_ELEMS, dtype=np.float32), "chain")
    for i in range(n_links):
        cl = stage_a if i % 2 == 0 else stage_b
        rt.submit(cl, [(h, "rw")], ctx={"n": N_ELEMS})
    makespan = rt.wait_for_all()
    return _finish(arm, rt, makespan)


def run_fanout(arm: str, n_tasks: int) -> ArmResult:
    stage_a, _, _ = _codelets()
    pm = _trained_model((stage_a,))
    rt = Runtime(
        _machine(),
        perfmodel=pm,
        seed=0,
        noise_sigma=0.0,
        run_kernels=False,
        **_arm_kwargs(arm),
    )
    for i in range(n_tasks):
        h = rt.register(np.zeros(N_ELEMS, dtype=np.float32), f"fan{i}")
        rt.submit(stage_a, [(h, "rw")], ctx={"n": N_ELEMS})
    makespan = rt.wait_for_all()
    return _finish(arm, rt, makespan)


ARMS = ("dmda", "lookahead_fusion_off", "lookahead_fusion_on")


def run(smoke: bool = False) -> dict:
    n_links = CHAIN_LINKS_SMOKE if smoke else CHAIN_LINKS
    chain = {arm: run_chain(arm, n_links) for arm in ARMS}
    fanout = {arm: run_fanout(arm, FANOUT_TASKS) for arm in ARMS}

    speedup = chain["dmda"].makespan / chain["lookahead_fusion_on"].makespan
    fan_rel = abs(
        fanout["lookahead_fusion_on"].makespan - fanout["dmda"].makespan
    ) / fanout["dmda"].makespan
    plans_ok = all(
        r.plan_le_greedy for r in (*chain.values(), *fanout.values())
    )
    gates = {
        "chain_speedup": {
            "value": speedup,
            "min": CHAIN_SPEEDUP_MIN,
            "ok": speedup >= CHAIN_SPEEDUP_MIN,
        },
        "fanout_rel_diff": {
            "value": fan_rel,
            "max": FANOUT_REL_TOL,
            "ok": fan_rel <= FANOUT_REL_TOL,
        },
        "plan_le_greedy": {"ok": plans_ok},
        "chain_fused_edges": {
            "value": chain["lookahead_fusion_on"].n_fused_edges,
            "ok": chain["lookahead_fusion_on"].n_fused_edges > 0,
        },
    }
    return {
        "smoke": smoke,
        "n_chain_links": n_links,
        "n_fanout_tasks": FANOUT_TASKS,
        "window_size": WINDOW,
        "beam_width": BEAM,
        "chain": {arm: r.to_dict() for arm, r in chain.items()},
        "fanout": {arm: r.to_dict() for arm, r in fanout.items()},
        "gates": gates,
        "within_budget": all(g["ok"] for g in gates.values()),
    }


def format_results(doc: dict) -> str:
    lines = ["planner ablation (virtual makespans, pre-calibrated model)"]
    for workload in ("chain", "fanout"):
        lines.append(f"  {workload}:")
        for arm, r in doc[workload].items():
            extra = ""
            if arm.startswith("lookahead"):
                extra = (
                    f"  [{r['n_planned_windows']} planned windows, "
                    f"{r['n_fused_edges']} fused edges]"
                )
            lines.append(
                f"    {arm:<22s} {r['makespan_s'] * 1e3:9.3f} ms{extra}"
            )
    for name, g in doc["gates"].items():
        bound = (
            f" (>= {g['min']})" if "min" in g
            else f" (<= {g['max']})" if "max" in g
            else ""
        )
        value = f" {g['value']:.3f}" if "value" in g else ""
        flag = "ok" if g["ok"] else "** FAILED **"
        lines.append(f"  gate {name}:{value}{bound} {flag}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = runner.parse(
        "planner", "lookahead planner vs greedy dmda ablation", argv
    )
    doc = run(smoke=args.smoke)
    return runner.report(
        args,
        "planner",
        doc,
        doc["within_budget"],
        {"planner_ablation": format_results(doc)},
    )


if __name__ == "__main__":
    raise SystemExit(main())
