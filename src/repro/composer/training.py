"""Training executions for static composition.

Figure 2 lists "training executions to prepare for composition
decisions" among the IR's uses (only partly supported in the paper's
prototype; completed here).  Instead of *evaluating prediction
functions*, the tool actually *runs* each candidate variant on the
target platform for every training scenario — on our simulated machine —
and builds the dispatch table from measured (noisy) times, the way
Kessler/Löwe-style off-line training works.

The application supplies an operand factory per component, because only
it knows how to materialise realistic inputs for a context instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.components.context import ContextInstance, training_scenarios
from repro.components.implementation import ImplementationDescriptor
from repro.components.interface import InterfaceDescriptor
from repro.composer.glue import lower_component
from repro.composer.static_comp import DispatchEntry, DispatchTable
from repro.errors import CompositionError, SchedulingError
from repro.hw.description import MachineDescription
from repro.runtime.perfmodel import PerfModel
from repro.runtime.runtime import Runtime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tuning.store import PerfModelStore

#: operand factory: (ctx, runtime) -> (operands [(handle, mode)], scalar_args)
OperandFactory = Callable[[Mapping[str, object], Runtime], tuple[list, tuple]]


@dataclass
class TrainingReport:
    """Everything one training campaign measured."""

    interface_name: str
    repetitions: int
    #: (scenario, variant name) -> mean measured seconds
    measurements: dict[tuple[ContextInstance, str], float] = field(
        default_factory=dict
    )
    skipped: list[tuple[ContextInstance, str, str]] = field(default_factory=list)
    table: DispatchTable | None = None

    def describe(self) -> str:
        lines = [
            f"training report for {self.interface_name!r} "
            f"({self.repetitions} repetitions per point):"
        ]
        scenarios = sorted(
            {s for s, _ in self.measurements}, key=lambda s: sorted(s.items())
        )
        for scenario in scenarios:
            lines.append(f"  {dict(scenario)}:")
            entries = sorted(
                (
                    (v, t)
                    for (s, v), t in self.measurements.items()
                    if s == scenario
                ),
                key=lambda e: e[1],
            )
            for variant, t in entries:
                lines.append(f"    {variant:<28s} {t * 1e3:9.4f} ms")
        if self.skipped:
            lines.append(f"  skipped: {len(self.skipped)} (infeasible/guarded)")
        return "\n".join(lines)


def train_dispatch_table(
    interface: InterfaceDescriptor,
    implementations: Sequence[ImplementationDescriptor],
    machine_factory: Callable[[], MachineDescription],
    make_operands: OperandFactory,
    scenarios: Sequence[ContextInstance] | None = None,
    points_per_param: int = 3,
    repetitions: int = 3,
    seed: int = 0,
    run_kernels: bool = False,
    store: "PerfModelStore | None" = None,
) -> TrainingReport:
    """Run training executions and build an empirical dispatch table.

    Every selectable variant is executed ``repetitions`` times per
    training scenario on a fresh runtime (cold data: the measurement
    includes the transfers a single invocation pays).  The per-scenario
    winner is the variant with the lowest mean measured time.

    With ``store``, every training execution's observations accumulate
    into one shared performance model that is merged back into the
    machine's store entry, and the finished dispatch table is persisted
    alongside it — later sessions warm-start from both.
    """
    if repetitions < 1:
        raise CompositionError("training needs at least one repetition")
    codelet_all = lower_component(interface, implementations)
    shared_model: PerfModel | None = None
    store_machine: MachineDescription | None = None
    if store is not None:
        store_machine = machine_factory()
        shared_model = store.warm_model(
            store_machine, codelets=[codelet_all.name]
        )
    if scenarios is None:
        scenarios = training_scenarios(
            interface.context_params, points_per_param
        )
    report = TrainingReport(interface_name=interface.name, repetitions=repetitions)
    table = DispatchTable(interface_name=interface.name)
    for scenario in scenarios:
        ctx = scenario.as_dict()
        predictions: list[tuple[str, float]] = []
        for variant in codelet_all.variants:
            if not variant.selectable(ctx):
                report.skipped.append((scenario, variant.name, "guard"))
                continue
            restricted = codelet_all.restricted([variant.name])
            times = []
            try:
                for rep in range(repetitions):
                    rt = Runtime(
                        machine_factory(),
                        scheduler="eager",
                        seed=seed + rep,
                        run_kernels=run_kernels,
                        perfmodel=shared_model,
                    )
                    operands, scalar_args = make_operands(ctx, rt)
                    start = rt.now
                    rt.submit(
                        restricted,
                        operands,
                        ctx=ctx,
                        scalar_args=scalar_args,
                        sync=True,
                        name=f"train:{variant.name}",
                    )
                    times.append(rt.now - start)
                    rt.shutdown()
            except SchedulingError:
                report.skipped.append((scenario, variant.name, "infeasible"))
                continue
            mean = sum(times) / len(times)
            report.measurements[(scenario, variant.name)] = mean
            predictions.append((variant.name, mean))
        if not predictions:
            continue
        predictions.sort(key=lambda p: (p[1], p[0]))
        best_name, best_time = predictions[0]
        table.entries.append(
            DispatchEntry(
                scenario=scenario,
                variant=best_name,
                predicted_time=best_time,
                all_predictions=tuple(predictions),
            )
        )
    report.table = table
    if store is not None and store_machine is not None and shared_model is not None:
        store.save(
            store_machine,
            shared_model,
            provenance={
                codelet_all.name: {
                    "driver": "train-dispatch-table",
                    "interface": interface.name,
                    "repetitions": repetitions,
                    "scenarios": [dict(s) for s in scenarios],
                }
            },
        )
        store.save_dispatch_table(store_machine, table)
    return report
