"""Fault-injection ablation: resilience of dynamic composition.

A result the paper's setup enables but never ran: because every
composed component carries *multiple* interchangeable implementation
variants, the runtime can recover from GPU faults by re-running the
failed invocation on another variant/worker (GPU -> CPU fallback).  This
study quantifies that claim on the Figure-6 workloads:

- ``fault_study`` sweeps the transient kernel-fault rate and reports,
  per scheduling policy, the success rate, retry/fallback counts and the
  makespan inflation relative to the fault-free run;
- ``device_loss_study`` kills the GPU at a chosen virtual time mid-run
  and shows graceful degradation: in-flight GPU work is requeued onto
  CPU variants, device replicas are re-sourced, and the run completes.

Both use seeded :class:`~repro.hw.faults.FaultModel` schedules, so every
number is reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.errors import InvariantViolation, PeppherError, UnrecoverableTaskError
from repro.experiments import runner
from repro.experiments.fig6 import SCENARIOS, AppScenario
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime import RecoveryPolicy, Runtime

#: policies compared (the same set as the scheduler ablation)
POLICIES = ("eager", "ws", "dmda")

#: default kernel-fault rates swept (0 = the fault-free baseline)
RATES = (0.0, 0.02, 0.05, 0.1)


@dataclass(frozen=True)
class FaultCell:
    """One (policy, fault-rate) measurement."""

    policy: str
    rate: float
    #: fraction of repetitions that completed despite the faults
    success_rate: float
    #: mean virtual makespan of the successful repetitions (seconds)
    makespan_s: float
    #: makespan relative to the same policy at rate 0
    inflation: float
    n_faults: int
    n_retries: int
    n_fallbacks: int
    n_recovered: int
    n_lost: int


@dataclass
class FaultStudyResult:
    """Sweep results for one application."""

    app: str
    size: int
    reps: int
    cells: list[FaultCell] = field(default_factory=list)

    def cell(self, policy: str, rate: float) -> FaultCell:
        for c in self.cells:
            if c.policy == policy and c.rate == rate:
                return c
        raise KeyError((policy, rate))


def _run_once(
    scenario: AppScenario,
    policy: str,
    faults: FaultModel | None,
    seed: int,
    size: int,
    recovery: RecoveryPolicy,
    calls: int = 1,
    check: bool | None = None,
) -> tuple[float | None, dict[str, int]]:
    """One repetition (``calls`` invocations in one session); returns
    (makespan or None on failure, fault tallies)."""
    rt = Runtime(
        platform_c2050(),
        scheduler=policy,
        seed=seed,
        faults=faults,
        recovery=recovery,
        check=check,
    )
    stats = {"faults": 0, "retries": 0, "fallbacks": 0, "recovered": 0, "lost": 0}
    try:
        codelets = scenario.make_codelets()
        for _ in range(calls):
            scenario.run_once(rt, codelets, size, seed)
        makespan = rt.shutdown()
    except InvariantViolation:
        # an illegal trace is a checker finding, never a "failed rep"
        raise
    except (UnrecoverableTaskError, PeppherError):
        makespan = None
    stats["faults"] = rt.trace.n_faults
    stats["retries"] = rt.trace.n_task_retries
    stats["fallbacks"] = rt.trace.n_fallbacks
    stats["recovered"] = rt.trace.n_tasks_recovered
    stats["lost"] = rt.trace.n_tasks_lost
    return makespan, stats


def fault_study(
    app: str = "sgemm",
    policies: tuple[str, ...] = POLICIES,
    rates: tuple[float, ...] = RATES,
    size_index: int = 0,
    reps: int = 3,
    calls: int = 8,
    seed: int = 0,
    transfer_rate_scale: float = 0.2,
    recovery: RecoveryPolicy | None = None,
    check: bool | None = None,
) -> FaultStudyResult:
    """Makespan and success rate vs. fault rate across schedulers.

    Each cell runs ``reps`` repetitions of one Figure-6 application at
    ``sizes[size_index]``, with ``calls`` component invocations per
    repetition (several invocations per session give the fault schedule
    enough attempts to actually strike at low rates); transfers fault at
    ``transfer_rate_scale`` times the kernel rate (corruption is rarer
    than kernel failure on real hardware).
    """
    scenario = SCENARIOS[app]
    size = scenario.sizes[size_index]
    recovery = recovery or RecoveryPolicy()
    result = FaultStudyResult(app=app, size=size, reps=reps)
    baseline: dict[str, float] = {}
    for policy in policies:
        for rate in rates:
            makespans: list[float] = []
            tallies = {"faults": 0, "retries": 0, "fallbacks": 0,
                       "recovered": 0, "lost": 0}
            for rep in range(reps):
                faults = (
                    FaultModel(
                        kernel_fault_rate=rate,
                        transfer_fault_rate=rate * transfer_rate_scale,
                        seed=seed + rep,
                    )
                    if rate > 0
                    else None
                )
                makespan, stats = _run_once(
                    scenario, policy, faults, seed + rep, size, recovery,
                    calls=calls, check=check,
                )
                if makespan is not None:
                    makespans.append(makespan)
                for k in tallies:
                    tallies[k] += stats[k]
            mean = float(np.mean(makespans)) if makespans else float("nan")
            if rate == 0.0:
                baseline[policy] = mean
            base = baseline.get(policy, mean)
            result.cells.append(
                FaultCell(
                    policy=policy,
                    rate=rate,
                    success_rate=len(makespans) / reps,
                    makespan_s=mean,
                    inflation=mean / base if base and base > 0 else float("nan"),
                    n_faults=tallies["faults"],
                    n_retries=tallies["retries"],
                    n_fallbacks=tallies["fallbacks"],
                    n_recovered=tallies["recovered"],
                    n_lost=tallies["lost"],
                )
            )
    return result


def format_fault_study(result: FaultStudyResult) -> str:
    lines = [
        f"ABL-F1: fault sweep on {result.app} (size {result.size}, "
        f"{result.reps} reps/cell; inflation is vs. the same policy at rate 0)",
        f"{'policy':<8s} {'rate':>6s} {'ok':>5s} {'makespan':>12s} "
        f"{'inflate':>8s} {'faults':>7s} {'retries':>8s} {'fallbk':>7s} "
        f"{'lost':>5s}",
    ]
    for c in result.cells:
        lines.append(
            f"{c.policy:<8s} {c.rate:6.2f} {c.success_rate:5.0%} "
            f"{c.makespan_s * 1e3:10.3f}ms {c.inflation:8.3f} "
            f"{c.n_faults:7d} {c.n_retries:8d} {c.n_fallbacks:7d} "
            f"{c.n_lost:5d}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# device-loss scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceLossRow:
    """One scripted GPU-loss run."""

    policy: str
    #: virtual time the GPU died, as a fraction of the fault-free makespan
    loss_fraction: float
    completed: bool
    makespan_s: float
    inflation: float
    n_replicas_recovered: int
    n_retries: int
    tasks_by_arch: dict[str, int]


def device_loss_study(
    app: str = "sgemm",
    policies: tuple[str, ...] = POLICIES,
    loss_fractions: tuple[float, ...] = (0.25, 0.5, 0.75),
    size_index: int = 0,
    seed: int = 0,
    check: bool | None = None,
) -> list[DeviceLossRow]:
    """Kill the GPU partway through the run; measure graceful degradation.

    The loss time is scripted at a fraction of each policy's fault-free
    makespan, so "the GPU died halfway" means the same thing for every
    policy regardless of how fast it would have finished.
    """
    scenario = SCENARIOS[app]
    size = scenario.sizes[size_index]
    rows: list[DeviceLossRow] = []
    for policy in policies:
        base, _ = _run_once(
            scenario, policy, None, seed, size, RecoveryPolicy(), check=check
        )
        assert base is not None  # fault-free run must succeed
        for frac in loss_fractions:
            machine = platform_c2050()
            gpu_unit = machine.gpu_units[0].unit_id
            faults = FaultModel(
                device_loss_at={gpu_unit: base * frac}, seed=seed
            )
            rt = Runtime(
                platform_c2050(), scheduler=policy, seed=seed, faults=faults,
                check=check,
            )
            completed = True
            try:
                scenario.run_once(rt, scenario.make_codelets(), size, seed)
                makespan = rt.shutdown()
            except InvariantViolation:
                raise
            except PeppherError:
                completed = False
                makespan = float("nan")
            rows.append(
                DeviceLossRow(
                    policy=policy,
                    loss_fraction=frac,
                    completed=completed,
                    makespan_s=makespan,
                    inflation=makespan / base if completed else float("nan"),
                    n_replicas_recovered=rt.trace.n_replicas_recovered,
                    n_retries=rt.trace.n_task_retries,
                    tasks_by_arch=rt.trace.tasks_by_arch(),
                )
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    args = runner.parse(
        "faults",
        "fault-injection ablation (virtual time, seeded)",
        argv,
        check=True,
        extra={
            "--app": dict(default="sgemm", choices=sorted(SCENARIOS)),
            "--seed": dict(type=int, default=0),
        },
    )
    if args.smoke:
        study = fault_study(
            app=args.app,
            policies=("eager", "dmda"),
            rates=(0.0, 0.05),
            reps=1,
            calls=2,
            seed=args.seed,
        )
        rows = device_loss_study(
            app=args.app,
            policies=("eager", "dmda"),
            loss_fractions=(0.5,),
            seed=args.seed,
        )
    else:
        study = fault_study(app=args.app, seed=args.seed)
        rows = device_loss_study(app=args.app, seed=args.seed)
    doc = {"study": asdict(study), "device_loss": [asdict(r) for r in rows]}
    tables = {
        "faults_sweep": format_fault_study(study),
        "faults_device_loss": format_device_loss_study(rows),
    }
    return runner.report(args, "faults", doc, True, tables)



def format_device_loss_study(rows: list[DeviceLossRow]) -> str:
    lines = [
        "ABL-F2: scripted GPU loss mid-run (inflation vs. fault-free makespan)",
        f"{'policy':<8s} {'lost@':>6s} {'done':>5s} {'makespan':>12s} "
        f"{'inflate':>8s} {'replicas':>9s} {'retries':>8s}  tasks-by-arch",
    ]
    for r in rows:
        arch = ", ".join(f"{a}: {n}" for a, n in sorted(r.tasks_by_arch.items()))
        lines.append(
            f"{r.policy:<8s} {r.loss_fraction:6.2f} "
            f"{'yes' if r.completed else 'NO':>5s} "
            f"{r.makespan_s * 1e3:10.3f}ms {r.inflation:8.3f} "
            f"{r.n_replicas_recovered:9d} {r.n_retries:8d}  {arch}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
