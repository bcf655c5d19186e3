"""Static composition: off-line dispatch tables from prediction metadata.

Static composition constructs off-line a dispatch function that is
evaluated at runtime for a context instance to return the expected best
implementation variant (paper section III).  If sufficient performance
prediction metadata is available, the tool constructs performance data
and dispatch tables by evaluating the prediction functions for selected
context scenarios.  Composition can be multi-stage: static composition
narrows the candidate set to the per-scenario winners, and the runtime
takes the final choice among those (the "registered with the
context-aware runtime system" path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.components.context import ContextInstance, training_scenarios
from repro.components.prediction import PredictionFunction
from repro.composer.ir import ComponentNode, ComponentTree
from repro.errors import CompositionError
from repro.hw.devices import DeviceSpec
from repro.hw.description import MachineDescription
from repro.hw.noise import NoiseModel
from repro.runtime.archs import Arch


@dataclass(frozen=True)
class DispatchEntry:
    """Winner for one training scenario."""

    scenario: ContextInstance
    variant: str
    predicted_time: float
    all_predictions: tuple[tuple[str, float], ...] = ()


@dataclass
class DispatchTable:
    """Per-component static dispatch: context scenario -> best variant.

    ``lookup`` matches a concrete call context to the nearest training
    scenario in log-space over the shared numeric context properties —
    a simple instance of the paper's "compacted by machine learning
    techniques" compaction (nearest-neighbour over the scenario grid).
    """

    interface_name: str
    entries: list[DispatchEntry] = field(default_factory=list)

    def winners(self) -> set[str]:
        """All variants that win at least one scenario (the narrowed
        candidate set for multi-stage composition)."""
        return {e.variant for e in self.entries}

    @property
    def unconditional(self) -> str | None:
        """The single winner, if one variant wins every scenario."""
        w = self.winners()
        return next(iter(w)) if len(w) == 1 else None

    def lookup(self, ctx: Mapping[str, object]) -> str:
        """Dispatch-function evaluation for a concrete call context."""
        if not self.entries:
            raise CompositionError(
                f"dispatch table for {self.interface_name!r} is empty"
            )
        best = min(
            self.entries,
            key=lambda e: (_scenario_distance(e.scenario, ctx), e.variant),
        )
        return best.variant

    def compact(self, max_depth: int = 6):
        """Distil this table into a decision tree (section III's
        "compacted by machine learning techniques"); see
        :mod:`repro.composer.compaction`."""
        from repro.composer.compaction import compact_dispatch_table

        return compact_dispatch_table(self, max_depth=max_depth)

    def describe(self) -> str:
        lines = [f"dispatch table for {self.interface_name!r}:"]
        for e in self.entries:
            lines.append(
                f"  {dict(e.scenario)} -> {e.variant} "
                f"({e.predicted_time * 1e3:.4f} ms)"
            )
        return "\n".join(lines)


def _scenario_distance(scenario: ContextInstance, ctx: Mapping[str, object]) -> float:
    """Log-space Euclidean distance over shared numeric properties."""
    dist = 0.0
    shared = 0
    for key in scenario:
        sval = scenario[key]
        cval = ctx.get(key)
        if isinstance(sval, (int, float)) and isinstance(cval, (int, float)):
            shared += 1
            a = math.log(max(float(sval), 1e-12))
            b = math.log(max(float(cval), 1e-12))
            dist += (a - b) ** 2
    if shared == 0:
        return float("inf") if len(scenario) else 0.0
    return math.sqrt(dist)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

def _device_for_arch(machine: MachineDescription, arch: Arch) -> DeviceSpec | None:
    """The device a variant of ``arch`` would execute on."""
    if arch in (Arch.CPU, Arch.OPENMP):
        units = machine.cpu_units
    else:
        units = machine.gpu_units
    return units[0].device if units else None


def _prediction_for(impl, fallback_cost_ref: bool = True) -> PredictionFunction | None:
    """The implementation's prediction function.

    Prefers the programmer-provided ``prediction_ref``; falls back to the
    analytic cost model reference, which plays the role of the "expert
    programmer" prediction the paper assumes when no micro-benchmark
    table exists.
    """
    pred = impl.prediction()
    if pred is not None:
        return pred
    if fallback_cost_ref and impl.cost_ref:
        return PredictionFunction.from_ref(impl.cost_ref)
    return None


def build_dispatch_table(
    node: ComponentNode,
    machine: MachineDescription,
    points_per_param: int = 4,
    training_repetitions: int = 1,
    noise: NoiseModel | None = None,
    store=None,
) -> DispatchTable:
    """Evaluate predictions over training scenarios and record winners.

    ``training_repetitions > 1`` emulates *training executions*: each
    prediction is sampled that many times under timing noise and
    averaged, as a real off-line training run would.

    With ``store`` (a :class:`~repro.tuning.store.PerfModelStore`), a
    dispatch table previously *trained from measurements* on this
    machine (see :func:`~repro.composer.training.train_dispatch_table`)
    is preferred over evaluating analytic predictions — measured data
    beats expert estimates, and the winners reflect the actual machine.
    """
    from repro.components.platform_desc import standard_platforms

    if store is not None:
        stored = store.load_dispatch_table(machine, node.name)
        if stored is not None and stored.entries:
            return stored

    platforms = {p.name: p for p in standard_platforms()}
    decls = node.interface.context_params
    scenarios = training_scenarios(decls, points_per_param)
    table = DispatchTable(interface_name=node.name)
    ncores = max(len(machine.cpu_units), 1)
    for scenario in scenarios:
        predictions: list[tuple[str, float]] = []
        for impl in node.implementations:
            pred = _prediction_for(impl)
            if pred is None:
                continue  # no prediction metadata: cannot place statically
            arch = impl.arch_for(platforms)
            device = _device_for_arch(machine, arch)
            if device is None:
                continue  # e.g. CUDA variant on a CPU-only machine
            ctx = scenario.as_dict()
            if arch is Arch.OPENMP:
                ctx["ncores"] = ncores
            try:
                times = []
                for _ in range(max(training_repetitions, 1)):
                    t = pred.predict(ctx, device)
                    if noise is not None:
                        t = noise.perturb(t)
                    times.append(t)
                t_mean = sum(times) / len(times)
            except Exception:
                continue  # prediction not applicable to this scenario
            guard_ok = all(c.evaluate(ctx) for c in impl.constraints)
            if not guard_ok:
                continue
            predictions.append((impl.name, t_mean))
        if not predictions:
            continue  # insufficient metadata for this scenario
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
    return table


def apply_static_composition(
    tree: ComponentTree, machine: MachineDescription, store=None
) -> ComponentTree:
    """Run static composition over the IR (multi-stage narrowing).

    For every component with enough prediction metadata, compute the
    dispatch table, attach it to the node, and narrow the candidate set
    to the scenario winners.  Components without metadata keep their
    full candidate set and are composed dynamically (the default).
    ``store`` lets nodes with previously trained tables reuse them (see
    :func:`build_dispatch_table`).
    """
    for node in tree.nodes:
        table = build_dispatch_table(
            node,
            machine,
            points_per_param=tree.recipe.training_points_per_param,
            store=store,
        )
        if not table.entries:
            continue
        node.static_choice = table
        winners = table.winners()
        node.implementations = [
            impl for impl in node.implementations if impl.name in winners
        ]
        node.check()
    return tree
