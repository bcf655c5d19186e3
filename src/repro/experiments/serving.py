"""Serving study: multi-tenant throughput/latency on one machine.

The paper composes one application at a time; this study asks what
happens when the composed components are put behind a service endpoint
and several tenants offer load concurrently (the ROADMAP's "serves
heavy traffic" north star).  Three questions, each one sweep:

- ``run_serving_study`` — goodput and tail latency as offered load and
  tenant count grow, per scheduling policy.  Shows the saturation knee
  and how coalescing holds goodput past it;
- ``admission_ablation`` — the same overload offered to an unbounded
  queue versus depth- and backlog-bounded admission.  Unbounded
  admission trades a 0% shed rate for unbounded p99 (queueing
  collapse); bounded admission sheds a fraction and caps the tail;
- ``fairness_ablation`` — a heavy and a light tenant of near-identical
  per-request cost.  Throughput-greedy dispatch (``eager``) starves the
  light tenant's minority shape; the ``fair`` policy's weighted fair
  queueing keeps per-tenant p99s within a small factor.

Run ``python -m repro.experiments.serving`` to regenerate the tables in
``benchmarks/results/`` plus the machine-readable ``BENCH_serve.json``
summary (``--smoke`` shrinks everything to a seconds-long CI run).

All runs are virtual-time simulations with seeded arrivals: every
number is deterministic and the wall-clock cost is bookkeeping only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.experiments import runner
from repro.hw.description import MachineDescription
from repro.hw.presets import platform_c2050
from repro.runtime.perfmodel import PerfModel
from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    CompositionServer,
    SloReport,
    TenantSpec,
    format_slo_report,
)
from repro.serve.slo import percentile

#: dispatch policies compared (fair = WFQ dispatch + fair placement)
SCHEDULERS = ("eager", "dmda", "fair")

#: tuned serving knobs: the dispatch queue only exists (and batching /
#: fairness only matter) when in-flight tasks are capped near the
#: worker count and buckets can grow past one batch
BATCH = BatchPolicy(max_batch=4)
MAX_INFLIGHT = 4
TENANT_QUOTA = 16


def tenant_mix(
    n_tenants: int,
    rate_hz: float,
    n_requests: int,
    seed: int = 0,
    heavy_share: float = 0.75,
) -> list[TenantSpec]:
    """``n_tenants`` sgemm tenants of near-identical per-request cost.

    Tenant 0 offers ``heavy_share`` of the total rate; the rest split
    the remainder.  Sizes differ by one (256, 255, ...) so each tenant
    owns a distinct coalescer bucket while per-request cost stays
    comparable — the setup where dispatch *ordering*, not work
    imbalance, decides the per-tenant tails.
    """
    if n_tenants < 1:
        raise ValueError(f"n_tenants must be >= 1, got {n_tenants}")
    specs = []
    for i in range(n_tenants):
        if n_tenants == 1:
            rate = rate_hz
        elif i == 0:
            rate = rate_hz * heavy_share
        else:
            rate = rate_hz * (1.0 - heavy_share) / (n_tenants - 1)
        share = rate / rate_hz
        specs.append(
            TenantSpec(
                name=f"t{i}",
                workload="sgemm",
                size=256 - i,
                rate_hz=rate,
                n_requests=max(int(n_requests * share), 4),
                seed=seed * 101 + i,
            )
        )
    return specs


def calibrate_perfmodel(
    machine: MachineDescription, tenants: list[TenantSpec], seed: int = 99
) -> PerfModel:
    """Warm a perfmodel on every tenant shape via a closed-loop run.

    A cold model makes early placement decisions garbage (the scheduler
    has no timings to compare variants with), which would pollute the
    measured tails; real serving systems warm up before taking traffic.
    """
    warm = [
        TenantSpec(
            name=f"warm{i}",
            workload=t.workload,
            size=t.size,
            rate_hz=None,
            n_requests=24,
            concurrency=2,
            seed=seed + i,
        )
        for i, t in enumerate(tenants)
    ]
    server = CompositionServer(machine, tenants=warm, scheduler="dmda")
    server.run()
    server.shutdown()
    return server.engine.perf


def _serve(
    machine: MachineDescription,
    tenants: list[TenantSpec],
    scheduler: str,
    admission: AdmissionPolicy | None,
    perfmodel: PerfModel,
) -> tuple[SloReport, CompositionServer]:
    server = CompositionServer(
        machine,
        tenants=tenants,
        scheduler=scheduler,
        admission=admission,
        batching=BATCH,
        max_inflight=MAX_INFLIGHT,
        # each run gets its own copy so measurements do not leak
        # calibration between compared cells
        perfmodel=copy.deepcopy(perfmodel),
    )
    report = server.run()
    # close the session so shutdown-time hooks (trace invariant
    # checking, store merges) actually run for every measured cell
    server.shutdown()
    return report, server


# ---------------------------------------------------------------------------
# the load sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingCell:
    """One (scheduler, offered rate, tenant count) measurement."""

    scheduler: str
    rate_hz: float
    n_tenants: int
    goodput_rps: float
    shed_rate: float
    p50_ms: float
    p99_ms: float
    p99_spread: float
    mean_batch: float


@dataclass
class ServingStudyResult:
    platform: str
    cells: list[ServingCell] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "cells": [vars(c) for c in self.cells],
        }


def run_serving_study(
    machine: MachineDescription | None = None,
    rates: tuple[float, ...] = (2000.0, 8000.0, 20000.0),
    tenant_counts: tuple[int, ...] = (2, 4),
    schedulers: tuple[str, ...] = SCHEDULERS,
    n_requests: int = 400,
    seed: int = 0,
) -> ServingStudyResult:
    """Sweep offered rate x tenant count x scheduler under admission."""
    machine = machine or platform_c2050()
    result = ServingStudyResult(platform=machine.name)
    admission = AdmissionPolicy(max_queue_per_tenant=TENANT_QUOTA)
    perf: PerfModel | None = None
    for n_tenants in tenant_counts:
        tenants = tenant_mix(n_tenants, rates[0], n_requests, seed=seed)
        perf = calibrate_perfmodel(machine, tenants)
        for rate in rates:
            tenants = tenant_mix(n_tenants, rate, n_requests, seed=seed)
            for sched in schedulers:
                report, server = _serve(machine, tenants, sched, admission, perf)
                lat = [
                    r.latency
                    for r in server.trace.requests
                    if r.completed
                ]
                result.cells.append(
                    ServingCell(
                        scheduler=sched,
                        rate_hz=rate,
                        n_tenants=n_tenants,
                        goodput_rps=report.goodput_rps,
                        shed_rate=report.shed_rate,
                        p50_ms=percentile(lat, 50) * 1e3,
                        p99_ms=percentile(lat, 99) * 1e3,
                        p99_spread=report.p99_spread(),
                        mean_batch=server.coalescer.mean_batch_size,
                    )
                )
    return result


def format_serving_study(result: ServingStudyResult) -> str:
    lines = [
        f"Serving study ({result.platform}): goodput / tail latency "
        f"under admission (quota {TENANT_QUOTA}/tenant, batch <= "
        f"{BATCH.max_batch})",
        f"{'sched':<6s} {'rate':>8s} {'ten':>4s} {'goodput':>9s} "
        f"{'shed':>7s} {'p50':>9s} {'p99':>9s} {'spread':>7s} {'batch':>6s}",
    ]
    for c in result.cells:
        spread = "n/a" if c.p99_spread != c.p99_spread else f"{c.p99_spread:.2f}x"
        lines.append(
            f"{c.scheduler:<6s} {c.rate_hz:8.0f} {c.n_tenants:4d} "
            f"{c.goodput_rps:7.0f}/s {c.shed_rate:6.1%} "
            f"{c.p50_ms:7.2f}ms {c.p99_ms:7.2f}ms {spread:>7s} "
            f"{c.mean_batch:6.2f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# admission ablation: bounded vs unbounded queueing at overload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionCell:
    label: str
    p99_ms: float
    mean_queue_wait_ms: float
    shed_rate: float
    goodput_rps: float


@dataclass
class AdmissionAblationResult:
    platform: str
    rate_hz: float
    cells: list[AdmissionCell] = field(default_factory=list)

    def cell(self, label: str) -> AdmissionCell:
        for c in self.cells:
            if c.label == label:
                return c
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "rate_hz": self.rate_hz,
            "cells": [vars(c) for c in self.cells],
        }


def admission_ablation(
    machine: MachineDescription | None = None,
    rate_hz: float = 20000.0,
    n_requests: int = 400,
    seed: int = 5,
) -> AdmissionAblationResult:
    """One overloaded tenant, three admission policies.

    The unbounded queue admits everything and every admitted request
    pays for the backlog ahead of it; depth- and backlog-bounded
    admission shed the excess and cap the tail.
    """
    machine = machine or platform_c2050()
    tenants = [
        TenantSpec(
            "t0", workload="sgemm", size=256, rate_hz=rate_hz,
            n_requests=n_requests, seed=seed,
        )
    ]
    perf = calibrate_perfmodel(machine, tenants)
    policies = [
        ("unbounded", None),
        ("depth<=16", AdmissionPolicy(max_queue_depth=16)),
        ("backlog<=0.5ms", AdmissionPolicy(max_backlog_s=5e-4)),
        (
            "delay<=1ms",
            AdmissionPolicy(
                max_queue_depth=16, on_overload="delay", max_delay_s=0.001
            ),
        ),
    ]
    result = AdmissionAblationResult(platform=machine.name, rate_hz=rate_hz)
    for label, pol in policies:
        report, _ = _serve(machine, tenants, "dmda", pol, perf)
        t = report.tenants[0]
        result.cells.append(
            AdmissionCell(
                label=label,
                p99_ms=t.p99_s * 1e3,
                mean_queue_wait_ms=t.mean_queue_wait_s * 1e3,
                shed_rate=t.shed_rate,
                goodput_rps=t.goodput_rps,
            )
        )
    return result


def format_admission_ablation(result: AdmissionAblationResult) -> str:
    lines = [
        f"Admission ablation ({result.platform}): one tenant offering "
        f"{result.rate_hz:.0f} req/s (over capacity)",
        f"{'policy':<14s} {'p99':>9s} {'queue-wait':>11s} {'shed':>7s} "
        f"{'goodput':>9s}",
    ]
    for c in result.cells:
        lines.append(
            f"{c.label:<14s} {c.p99_ms:7.2f}ms {c.mean_queue_wait_ms:9.2f}ms "
            f"{c.shed_rate:6.1%} {c.goodput_rps:7.0f}/s"
        )
    bounded = [c for c in result.cells if c.label != "unbounded"]
    if bounded:
        un = result.cell("unbounded")
        best = min(bounded, key=lambda c: c.p99_ms)
        lines.append(
            f"bounded admission cuts p99 {un.p99_ms / best.p99_ms:.1f}x "
            f"({un.p99_ms:.2f}ms -> {best.p99_ms:.2f}ms) by shedding "
            f"{best.shed_rate:.0%} of arrivals"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# fairness ablation: greedy starvation vs weighted fair queueing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessCell:
    scheduler: str
    heavy_p99_ms: float
    light_p99_ms: float
    p99_spread: float
    shed_rate: float


@dataclass
class FairnessAblationResult:
    platform: str
    cells: list[FairnessCell] = field(default_factory=list)

    def cell(self, scheduler: str) -> FairnessCell:
        for c in self.cells:
            if c.scheduler == scheduler:
                return c
        raise KeyError(scheduler)

    def to_dict(self) -> dict:
        return {"platform": self.platform, "cells": [vars(c) for c in self.cells]}


def fairness_tenants(n_requests: int = 400, seed: int = 7) -> list[TenantSpec]:
    """A flooding tenant plus a light one of near-identical request cost."""
    return [
        TenantSpec(
            "heavy", workload="sgemm", size=256, rate_hz=20000.0,
            n_requests=n_requests, seed=seed,
        ),
        TenantSpec(
            "light", workload="sgemm", size=255, rate_hz=300.0,
            n_requests=max(n_requests // 25, 4), seed=seed + 1,
        ),
    ]


def fairness_ablation(
    machine: MachineDescription | None = None,
    n_requests: int = 400,
    seed: int = 7,
    schedulers: tuple[str, ...] = ("eager", "fair"),
) -> FairnessAblationResult:
    """Heavy+light tenants under per-tenant quotas, greedy vs fair."""
    machine = machine or platform_c2050()
    tenants = fairness_tenants(n_requests, seed)
    perf = calibrate_perfmodel(machine, tenants)
    admission = AdmissionPolicy(max_queue_per_tenant=TENANT_QUOTA)
    result = FairnessAblationResult(platform=machine.name)
    for sched in schedulers:
        report, _ = _serve(machine, tenants, sched, admission, perf)
        result.cells.append(
            FairnessCell(
                scheduler=sched,
                heavy_p99_ms=report.for_tenant("heavy").p99_s * 1e3,
                light_p99_ms=report.for_tenant("light").p99_s * 1e3,
                p99_spread=report.p99_spread(),
                shed_rate=report.shed_rate,
            )
        )
    return result


def format_fairness_ablation(result: FairnessAblationResult) -> str:
    lines = [
        f"Fairness ablation ({result.platform}): flooding heavy tenant vs "
        "light tenant, same per-request cost",
        f"{'sched':<6s} {'heavy p99':>10s} {'light p99':>10s} "
        f"{'spread':>7s} {'shed':>7s}",
    ]
    for c in result.cells:
        lines.append(
            f"{c.scheduler:<6s} {c.heavy_p99_ms:8.2f}ms {c.light_p99_ms:8.2f}ms "
            f"{c.p99_spread:6.2f}x {c.shed_rate:6.1%}"
        )
    try:
        greedy, fair = result.cell("eager"), result.cell("fair")
    except KeyError:
        return "\n".join(lines)
    lines.append(
        f"greedy dispatch starves the light tenant "
        f"({greedy.light_p99_ms:.2f}ms p99, {greedy.p99_spread:.1f}x spread); "
        f"weighted fair queueing holds the spread to {fair.p99_spread:.2f}x"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = runner.parse(
        "serving",
        "multi-tenant serving study (virtual time, seeded)",
        argv,
        check=True,
    )
    if args.smoke:
        study = run_serving_study(
            rates=(4000.0, 16000.0), tenant_counts=(2,), n_requests=120
        )
        adm = admission_ablation(n_requests=150)
        fair = fairness_ablation(n_requests=150)
    else:
        study = run_serving_study()
        adm = admission_ablation()
        fair = fairness_ablation()
    doc = {
        "study": study.to_dict(),
        "admission": adm.to_dict(),
        "fairness": fair.to_dict(),
    }
    tables = {
        "serving_study": format_serving_study(study),
        "serving_admission": format_admission_ablation(adm),
        "serving_fairness": format_fairness_ablation(fair),
    }
    return runner.report(args, "serve", doc, True, tables)


if __name__ == "__main__":
    raise SystemExit(main())
