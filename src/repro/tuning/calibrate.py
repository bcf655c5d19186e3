"""Adaptive calibration driver for the performance-model store.

The brute-force approach (:func:`repro.composer.training.train_dispatch_table`)
runs every variant the same number of times at every point of a full
cross-product grid.  Calibration for *runtime* composition needs less:
the scheduler only requires a trustworthy
:class:`~repro.runtime.perfmodel.PerfModel`, i.e. a regression fit per
variant plus exact history where it matters.  This driver therefore:

- walks a **log-spaced size ladder** (all context parameters scaled
  together, smallest rung first) instead of a full grid;
- **early-stops per variant** once its power-law fit *generalizes*: the
  check is out-of-sample — the fit built from previous rungs must
  predict the new rung's measurement within a relative tolerance before
  the variant may stop climbing.  (An in-sample check would converge in
  the overhead-dominated small-size region and extrapolate garbage.)
  A converged variant skips intermediate rungs but still **anchors the
  top rung** with one measurement, so every fit spans the full context
  range and never extrapolates far beyond its data;
- gives **dominated variants a reduced budget**: a variant consistently
  slower than the rung's best by a large factor keeps climbing the
  ladder with one repetition instead of several.  It is *not* dropped:
  every selectable variant must end calibrated (fit available), or a
  warm-started scheduler would still have to explore it.

Measurements run each variant on a fresh single-purpose runtime with an
``eager`` policy and a *shared* model, so observations carry
production-identical footprints (the restricted codelet keeps the
component's name) and accumulate exactly as they would in live runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.components.context import ContextInstance, ContextParamDecl
from repro.components.implementation import ImplementationDescriptor
from repro.components.interface import InterfaceDescriptor
from repro.composer.glue import lower_component
from repro.composer.training import OperandFactory
from repro.errors import CompositionError, SchedulingError
from repro.hw.description import MachineDescription
from repro.runtime.perfmodel import PerfModel
from repro.runtime.runtime import Runtime
from repro.tuning.store import PerfModelStore


def size_ladder(
    decls: Sequence[ContextParamDecl], rungs: int
) -> list[ContextInstance]:
    """Log-spaced ladder scaling every context parameter together.

    Unlike :func:`~repro.components.context.training_scenarios` (a full
    cross product, ``rungs**n_params`` points) the ladder has exactly
    ``rungs`` points: rung *i* takes each parameter's *i*-th geometric
    sample.  That is what a regression fit needs — samples spanning the
    size range — at a fraction of the cost.
    """
    decls = list(decls)
    if not decls:
        return [ContextInstance({})]
    grids = [d.sample_points(rungs) for d in decls]
    out = []
    for i in range(rungs):
        values = {
            d.name: (int(g[i]) if d.kind == "int" else float(g[i]))
            for d, g in zip(decls, grids)
        }
        inst = ContextInstance(values)
        if not out or out[-1] != inst:  # tiny ranges may collapse rungs
            out.append(inst)
    return out


@dataclass
class VariantCalibration:
    """Per-variant outcome of one calibration campaign."""

    variant: str
    runs: int = 0
    #: wall-clock samples contributed to the model's ``measured``
    #: provenance by a real execution backend (0 on the inline path)
    measured_runs: int = 0
    #: ladder index after which the variant's fit converged (None if it
    #: ran the full ladder without meeting the tolerance)
    converged_at: int | None = None
    #: variant was detected as clearly dominated and demoted to the
    #: reduced exploration budget
    dominated: bool = False
    #: a usable regression fit exists (the calibration goal)
    fitted: bool = False


@dataclass
class CalibrationReport:
    """Everything one adaptive calibration campaign did and measured."""

    interface_name: str
    model: PerfModel
    ladder: list[ContextInstance] = field(default_factory=list)
    variants: dict[str, VariantCalibration] = field(default_factory=dict)
    #: (scenario, variant, reason) combinations that could not run
    skipped: list[tuple[ContextInstance, str, str]] = field(default_factory=list)
    total_runs: int = 0
    #: name of the execution backend kernels ran on ("" = inline)
    exec_backend: str = ""

    def provenance(self) -> dict:
        """JSON-compatible provenance for the store entry."""
        return {
            "driver": "adaptive-ladder",
            "interface": self.interface_name,
            "ladder": [dict(s) for s in self.ladder],
            "total_runs": self.total_runs,
            "exec_backend": self.exec_backend,
            "variants": {
                name: {
                    "runs": vc.runs,
                    "measured_runs": vc.measured_runs,
                    "converged_at": vc.converged_at,
                    "dominated": vc.dominated,
                    "fitted": vc.fitted,
                }
                for name, vc in sorted(self.variants.items())
            },
            "skipped": [
                [dict(s), variant, reason] for s, variant, reason in self.skipped
            ],
        }

    def describe(self) -> str:
        lines = [
            f"adaptive calibration of {self.interface_name!r}: "
            f"{self.total_runs} runs over {len(self.ladder)} rungs"
        ]
        for name, vc in sorted(self.variants.items()):
            status = []
            if vc.converged_at is not None:
                status.append(f"converged at rung {vc.converged_at}")
            if vc.dominated:
                status.append("dominated (reduced budget)")
            status.append("fitted" if vc.fitted else "NO FIT")
            lines.append(f"  {name:<28s} {vc.runs:3d} runs; {', '.join(status)}")
        if self.skipped:
            lines.append(f"  skipped: {len(self.skipped)} (infeasible/guarded)")
        return "\n".join(lines)


def calibrate_component(
    interface: InterfaceDescriptor,
    implementations: Sequence[ImplementationDescriptor],
    machine_factory: Callable[[], MachineDescription],
    make_operands: OperandFactory,
    store: PerfModelStore | None = None,
    ladder: Sequence[ContextInstance] | None = None,
    rungs: int = 6,
    repetitions: int = 2,
    rel_tol: float = 0.25,
    dominance_factor: float = 8.0,
    seed: int = 0,
    run_kernels: bool = False,
    model: PerfModel | None = None,
    exec_backend: "str | object | None" = None,
) -> CalibrationReport:
    """Adaptively calibrate one component's performance model.

    Parameters
    ----------
    store:
        When given, the calibrated model is merged into the store entry
        for ``machine_factory()``'s machine (with provenance) — and the
        campaign warm-starts from whatever the store already holds.
    ladder:
        Explicit scenarios to climb (overrides ``rungs``).
    rungs:
        Ladder length when derived from the interface's context params.
    repetitions:
        Measurements per (rung, variant) while the variant is neither
        converged nor dominated.
    rel_tol:
        Early-stop threshold: relative error of the previous rungs' fit
        against the new rung's (out-of-sample) measurement.
    dominance_factor:
        A variant slower than the rung's best by more than this factor
        is demoted to one repetition per remaining rung.
    model:
        Accumulate into an existing model instead of a fresh one
        (ignored when ``store`` already has an entry to warm-start from).
    exec_backend:
        Run calibration kernels on a real execution backend (name or
        instance, see :mod:`repro.exec`) so the campaign also collects
        *wall-clock* samples under the model's ``"measured"``
        provenance, alongside the analytical ones.  A real backend
        implies ``run_kernels=True`` (there is nothing to measure
        otherwise).  Backends named here are closed before returning.
    """
    if repetitions < 1:
        raise CompositionError("calibration needs at least one repetition")
    if rel_tol <= 0:
        raise CompositionError("rel_tol must be positive")
    own_backend = False
    if isinstance(exec_backend, str):
        from repro.exec.base import make_backend

        exec_backend = make_backend(exec_backend)
        own_backend = True
    if exec_backend is not None and not exec_backend.inline:
        run_kernels = True  # wall-clock measurement needs real kernels
    codelet_all = lower_component(interface, implementations)
    machine = machine_factory()
    if model is None:
        model = (
            store.warm_model(machine, codelets=[codelet_all.name])
            if store is not None
            else PerfModel()
        )
    scenarios = (
        list(ladder)
        if ladder is not None
        else size_ladder(interface.context_params, rungs)
    )
    report = CalibrationReport(
        interface_name=interface.name,
        model=model,
        ladder=scenarios,
        exec_backend=exec_backend.name if exec_backend is not None else "",
    )
    states = {
        v.name: VariantCalibration(variant=v.name) for v in codelet_all.variants
    }
    report.variants = states
    # warm-started models may already hold measured samples from earlier
    # campaigns; count only what *this* campaign contributes
    prior_measured = {
        v.name: model.measured_regression.n_samples(v.name)
        for v in codelet_all.variants
    }

    run_index = 0
    for rung_i, scenario in enumerate(scenarios):
        top_rung = rung_i == len(scenarios) - 1
        ctx = scenario.as_dict()
        rung_means: dict[str, float] = {}
        for variant in codelet_all.variants:
            vc = states[variant.name]
            if vc.converged_at is not None and not top_rung:
                continue  # fit trusted; skip straight to the top anchor
            if not variant.selectable(ctx):
                report.skipped.append((scenario, variant.name, "guard"))
                continue
            restricted = codelet_all.restricted([variant.name])
            reps = (
                1 if (vc.dominated or vc.converged_at is not None)
                else repetitions
            )
            prior = model.regression.samples(variant.name)
            times: list[float] = []
            try:
                for _ in range(reps):
                    rt = Runtime(
                        machine_factory(),
                        scheduler="eager",
                        seed=seed + run_index,
                        run_kernels=run_kernels,
                        perfmodel=model,
                        exec_backend=exec_backend,
                    )
                    run_index += 1
                    operands, scalar_args = make_operands(ctx, rt)
                    start = rt.now
                    rt.submit(
                        restricted,
                        operands,
                        ctx=ctx,
                        scalar_args=scalar_args,
                        sync=True,
                        name=f"calib:{variant.name}",
                    )
                    times.append(rt.now - start)
                    rt.shutdown()
                    vc.runs += 1
                    report.total_runs += 1
            except SchedulingError:
                report.skipped.append((scenario, variant.name, "infeasible"))
                continue
            rung_means[variant.name] = sum(times) / len(times)
            # early stop, out-of-sample: the fit from *previous* rungs
            # must predict this rung's fresh measurements — the fit has
            # demonstrably generalized upward, not merely interpolated
            fresh = model.regression.samples(variant.name)[len(prior):]
            if vc.converged_at is None and fresh:
                measured = sum(t for _, t in fresh) / len(fresh)
                predicted = model.regression.predict_from(
                    prior, fresh[-1][0]
                )
                if (
                    predicted is not None
                    and measured > 0
                    and abs(predicted - measured) / measured <= rel_tol
                ):
                    vc.converged_at = rung_i
        # dominance: clearly-slower variants get the reduced budget for
        # the remaining rungs (never dropped — they still need a fit)
        if rung_means:
            best = min(rung_means.values())
            for name, mean in rung_means.items():
                if best > 0 and mean / best > dominance_factor:
                    states[name].dominated = True

    probe = 1.0e6  # any positive size: fits answer for all sizes
    for name, vc in states.items():
        vc.fitted = model.regression.predict(name, probe) is not None
        vc.measured_runs = (
            model.measured_regression.n_samples(name)
            - prior_measured.get(name, 0)
        )
    if own_backend:
        exec_backend.close()
    if store is not None:
        store.save(
            machine,
            model,
            provenance={codelet_all.name: report.provenance()},
        )
    return report
