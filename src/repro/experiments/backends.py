"""Analytical-vs-measured differential for the execution backends.

The simulated engine predicts variant timings from analytic device cost
models; :mod:`repro.exec` actually *runs* the kernels and wall-clocks
them.  This harness runs the same component invocations through a
:class:`~repro.exec.thread.ThreadPoolBackend` and compares the two
populations per codelet, per variant, per size rung:

- **scale-normalized model error** — analytical and wall-clock times
  live in different time bases (a simulated Fermi GPU vs. this host's
  CPU running NumPy), so raw relative error is meaningless; we fit one
  global scale factor (geometric mean of wall/analytical ratios) per
  component and report the residual relative error after scaling.
- **variant-choice agreement** — the metric that matters for dynamic
  composition: at each rung, does the variant the *analytical* model
  would pick (the dmda choice) coincide with the wall-clock winner?
  Disagreements are expected and informative: the analytical model
  speaks for the paper's hardware, the measurement for this host.

``python -m repro.experiments.backends`` writes
``benchmarks/results/BENCH_backends.json``; ``--smoke`` shrinks the
ladder for CI and the exit code is non-zero when the differential could
not collect any measured sample (backend wiring regression).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.apps import sgemm, spmv
from repro.composer.glue import lower_component
from repro.errors import SchedulingError
from repro.exec import ThreadPoolBackend
from repro.experiments import runner
from repro.hw.presets import platform_c2050
from repro.runtime.runtime import Runtime


@dataclass
class RungRow:
    """One (size rung, variant) comparison."""

    ctx: dict
    variant: str
    analytical_s: float
    measured_s: float


@dataclass
class ComponentDiff:
    """Differential outcome for one component."""

    component: str
    rows: list[RungRow] = field(default_factory=list)
    #: per-rung (analytical winner, measured winner)
    choices: list[tuple[str, str]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Geometric-mean wall/analytical ratio (the time-base bridge)."""
        ratios = [
            r.measured_s / r.analytical_s
            for r in self.rows
            if r.analytical_s > 0 and r.measured_s > 0
        ]
        if not ratios:
            return float("nan")
        return math.exp(sum(math.log(x) for x in ratios) / len(ratios))

    def errors(self) -> list[float]:
        """Per-row relative error after global scaling."""
        s = self.scale
        if math.isnan(s):
            return []
        return [
            abs(r.measured_s - s * r.analytical_s) / r.measured_s
            for r in self.rows
            if r.measured_s > 0
        ]

    @property
    def agreement(self) -> float:
        """Fraction of rungs where both models pick the same variant."""
        if not self.choices:
            return float("nan")
        hits = sum(1 for a, m in self.choices if a == m)
        return hits / len(self.choices)

    def to_dict(self) -> dict:
        errs = self.errors()
        return {
            "component": self.component,
            "n_rows": len(self.rows),
            "scale_wall_over_analytical": self.scale,
            "mean_scaled_rel_error": (sum(errs) / len(errs)) if errs else None,
            "max_scaled_rel_error": max(errs) if errs else None,
            "choice_agreement": self.agreement,
            "choices": [
                {"analytical": a, "measured": m} for a, m in self.choices
            ],
            "rows": [
                {
                    "ctx": r.ctx,
                    "variant": r.variant,
                    "analytical_s": r.analytical_s,
                    "measured_s": r.measured_s,
                }
                for r in self.rows
            ],
            "skipped": self.skipped,
        }


def run_component(
    name: str,
    interface,
    implementations,
    make_operands: Callable,
    ladder: Sequence[Mapping[str, object]],
    reps: int = 2,
    seed: int = 0,
) -> ComponentDiff:
    """Run every selectable variant at every rung on the thread backend.

    Each repetition uses a fresh eager single-variant runtime (the
    calibration driver's pattern) so both populations carry identical
    footprints; durations are read straight off the completed task
    (analytical) and the joined measurement (wall-clock).
    """
    codelet = lower_component(interface, implementations)
    diff = ComponentDiff(component=name)
    run_index = 0
    with ThreadPoolBackend() as backend:
        for ctx in ladder:
            ctx = dict(ctx)
            per_variant: dict[str, tuple[float, float]] = {}
            for variant in codelet.variants:
                if not variant.selectable(ctx):
                    diff.skipped.append(f"{variant.name}@{ctx}: guard")
                    continue
                restricted = codelet.restricted([variant.name])
                ana: list[float] = []
                wall: list[float] = []
                try:
                    for _ in range(reps):
                        rt = Runtime(
                            platform_c2050(),
                            scheduler="eager",
                            seed=seed + run_index,
                            noise_sigma=0.0,
                            run_kernels=True,
                            exec_backend=backend,
                        )
                        run_index += 1
                        operands, scalar_args = make_operands(ctx, rt)
                        task = rt.submit(
                            restricted,
                            operands,
                            ctx=ctx,
                            scalar_args=scalar_args,
                            sync=True,
                            name=f"diff:{variant.name}",
                        )
                        ana.append(task.end_time - task.start_time)
                        if rt.measurements:
                            wall.append(rt.measurements[-1].wall_s)
                        rt.shutdown()
                except SchedulingError:
                    diff.skipped.append(f"{variant.name}@{ctx}: infeasible")
                    continue
                if not ana or not wall:
                    continue
                a = sum(ana) / len(ana)
                w = sum(wall) / len(wall)
                diff.rows.append(
                    RungRow(
                        ctx=ctx, variant=variant.name,
                        analytical_s=a, measured_s=w,
                    )
                )
                per_variant[variant.name] = (a, w)
            if len(per_variant) >= 2:
                ana_best = min(per_variant, key=lambda v: per_variant[v][0])
                wall_best = min(per_variant, key=lambda v: per_variant[v][1])
                diff.choices.append((ana_best, wall_best))
    return diff


def sgemm_ladder(sizes: Sequence[int]) -> list[dict]:
    return [{"m": s, "n": s, "k": s} for s in sizes]


def spmv_ladder(sizes: Sequence[int]) -> list[dict]:
    return [{"nrows": s, "nnz": 8 * s} for s in sizes]


def run(
    smoke: bool = False, reps: int | None = None, seed: int = 0
) -> list[ComponentDiff]:
    sizes = (32, 64, 128) if smoke else (32, 64, 128, 192, 256)
    reps = reps if reps is not None else (1 if smoke else 3)
    return [
        run_component(
            "sgemm",
            sgemm.INTERFACE,
            sgemm.IMPLEMENTATIONS,
            sgemm.training_operands,
            sgemm_ladder(sizes),
            reps=reps,
            seed=seed,
        ),
        run_component(
            "spmv",
            spmv.INTERFACE,
            spmv.IMPLEMENTATIONS,
            spmv.training_operands,
            spmv_ladder(tuple(16 * s for s in sizes)),
            reps=reps,
            seed=seed,
        ),
    ]


def format_diff(diffs: Sequence[ComponentDiff]) -> str:
    lines = ["analytical vs measured (thread backend) differential"]
    for d in diffs:
        errs = d.errors()
        mean_err = sum(errs) / len(errs) if errs else float("nan")
        lines.append(
            f"  {d.component:<8s} rows={len(d.rows):3d}  "
            f"scale={d.scale:9.3g}  "
            f"scaled rel err mean={mean_err:6.1%}  "
            f"variant-choice agreement={d.agreement:6.1%}"
        )
        for a, m in d.choices:
            if a != m:
                lines.append(
                    f"           disagreement: analytical picks {a!r}, "
                    f"wall-clock picks {m!r}"
                )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = runner.parse(
        "backends",
        "analytical-vs-measured execution backend differential",
        argv,
    )
    diffs = run(smoke=args.smoke)
    # gate on the wiring, not the agreement: disagreement with the
    # paper's modeled hardware is a finding, a missing measurement is a bug
    return runner.report(
        args,
        "backends",
        {"components": [d.to_dict() for d in diffs]},
        all(d.rows for d in diffs),
        {"backends_diff": format_diff(diffs)},
    )


if __name__ == "__main__":
    raise SystemExit(main())
