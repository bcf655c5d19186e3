"""Scheduler interface and the engine view schedulers decide against.

A scheduler sees tasks one at a time, at the moment they become ready
(StarPU's push model), and picks an (implementation variant, worker set)
pair.  It never sees ground-truth cost models — only the machine layout,
current worker/link availability estimates and the *learned* performance
model, exactly the information StarPU policies have.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.errors import SchedulingError
from repro.runtime.archs import Arch
from repro.runtime.codelet import ImplVariant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.description import Machine, ProcessingUnit
    from repro.runtime.task import Task


@dataclass(frozen=True)
class Decision:
    """Outcome of a scheduling choice for one ready task."""

    variant: ImplVariant
    workers: tuple["ProcessingUnit", ...]

    @property
    def anchor(self) -> "ProcessingUnit":
        """The unit whose memory node the task computes from."""
        return self.workers[0]


class EngineView(Protocol):
    """What the engine exposes to scheduling policies (read-only)."""

    @property
    def machine(self) -> "Machine": ...

    def worker_available_at(self, unit_id: int) -> float:
        """Virtual time the worker finishes its currently assigned work."""
        ...

    def worker_available_times(self) -> Sequence[float]:
        """Live per-worker available_at values indexed by unit id
        (read-only; one lookup per candidate instead of one call)."""
        ...

    def worker_assigned_count(self, unit_id: int) -> int:
        """Number of tasks assigned to the worker so far."""
        ...

    def estimate_data_ready(self, task: "Task", node: int) -> float:
        """Earliest time all of ``task``'s operands could be valid at
        ``node``, including estimated (not yet committed) transfers."""
        ...

    def estimate_transfer_cost(self, task: "Task", node: int) -> float:
        """Total seconds of copies needed to stage ``task`` at ``node``."""
        ...

    def link_available(self, link_node: int, direction: str) -> float:
        """Virtual time the (PCIe link, direction) DMA queue frees up
        (``direction`` is ``"h2d"`` or ``"d2h"``); bulk planners seed
        their simulated link occupancy from this."""
        ...

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Seconds to copy ``nbytes`` from memory node ``src`` to
        ``dst`` on an idle link (memoized; schedulers price transfers
        through this, never through ``machine.transfer_time``)."""
        ...

    def predict_exec(
        self, task: "Task", variant: ImplVariant, unit: "ProcessingUnit"
    ) -> float | None:
        """Learned execution-time estimate, or None while uncalibrated."""
        ...

    def n_samples(self, task: "Task", variant: ImplVariant) -> int:
        """Performance-history sample count for this (task-size, variant)."""
        ...

    def is_calibrated(
        self, task: "Task", variant: ImplVariant, min_history: int
    ) -> bool:
        """True once the model is trustworthy for this (task, variant):
        enough exact history for the size bucket, or a regression fit
        that covers the size (warm-started models count)."""
        ...

    def note_exploration(self, task: "Task") -> None:
        """Tell the engine this placement was an uncalibrated
        (exploration) decision, for the trace's exploration counter."""
        ...

    def cpu_gang(self) -> tuple["ProcessingUnit", ...]:
        """The CPU worker set an OpenMP (gang) variant occupies."""
        ...

    def random(self) -> float:
        """Uniform sample in [0, 1) from the engine's seeded stream."""
        ...

    def worker_usable(self, unit_id: int) -> bool:
        """False for workers whose device was lost or that the recovery
        layer blacklisted after repeated faults."""
        ...

    def failed_placements(self, task: "Task") -> set[tuple[str, int]]:
        """(variant name, anchor unit id) placements that already faulted
        for this task; retries prefer placements outside this set."""
        ...


def _feasible_decisions(task: "Task", view: EngineView) -> list[Decision]:
    """Build the feasible (variant, workers) list for one ready task."""
    decisions: list[Decision] = []
    gang = view.cpu_gang()
    for variant in task.codelet.candidates(task.ctx):
        if variant.arch.is_gang:
            if gang and len(gang) >= variant.min_cores:
                decisions.append(Decision(variant=variant, workers=gang))
            continue
        for unit in view.machine.units:
            if not view.worker_usable(unit.unit_id):
                continue
            if variant.arch.runs_on(unit) and variant.fits_device(unit.device):
                decisions.append(Decision(variant=variant, workers=(unit,)))
    return decisions


def enumerate_candidates(
    task: "Task", view: EngineView
) -> list[Decision]:
    """All feasible (variant, workers) decisions for a ready task.

    CPU variants may run on any CPU worker; OpenMP variants occupy the
    whole CPU gang; CUDA/OpenCL variants run on any GPU worker.  Variants
    whose selectability guard rejects the call context are skipped, as
    are workers that are dead (device lost) or blacklisted.  When the
    task already faulted on some placements, those are filtered out so
    every policy retries *elsewhere* first (GPU -> CPU fallback); they
    come back only if no untried placement remains (bounded same-place
    retry is better than giving up).

    Views may expose a ``candidate_cache`` dict; codelets whose variants
    are all guard-free get their decision list cached there (keyed by
    codelet identity — the list only depends on the codelet and on
    worker health, and the engine clears the cache whenever a worker is
    lost or blacklisted).  The returned list must be treated as
    immutable.
    """
    codelet = task.codelet
    cache = getattr(view, "candidate_cache", None)
    decisions: list[Decision] | None = None
    if cache is not None:
        entry = cache.get(id(codelet))
        if (
            entry is not None
            and entry[0] is codelet
            and entry[1] == len(codelet.variants)
        ):
            decisions = entry[2]
    if decisions is None:
        decisions = _feasible_decisions(task, view)
        if (
            cache is not None
            and decisions
            and all(v.guard is None for v in codelet.variants)
        ):
            cache[id(codelet)] = (codelet, len(codelet.variants), decisions)
    if not decisions:
        raise SchedulingError(
            f"task {task.name}: no executable variant on machine "
            f"{view.machine.name!r} (variants: "
            f"{[v.name for v in task.codelet.variants]}, context rejected: "
            f"{[v.name for v in task.codelet.variants if not v.selectable(task.ctx)]})"
        )
    # read the per-task fault set directly: it is None for every task
    # that never faulted, and the view-method indirection costs a call
    # on the per-task hot path
    failed = task.failed_on
    if failed:
        untried = [
            d
            for d in decisions
            if (d.variant.name, d.anchor.unit_id) not in failed
        ]
        if untried:
            return untried
    return decisions


class Scheduler(ABC):
    """Base class for scheduling policies."""

    #: short policy name used in CLI flags and experiment configs
    name: str = "base"

    #: bulk policies plan whole task windows before the engine commits
    #: any placement (see :mod:`repro.runtime.schedulers.bulk`); the
    #: engine checks this flag once at construction
    is_bulk: bool = False

    @abstractmethod
    def choose(self, task: "Task", view: EngineView) -> Decision:
        """Pick the decision for one ready task."""

    # Helper shared by time-driven policies ---------------------------------

    @staticmethod
    def earliest_start(task: "Task", decision: Decision, view: EngineView) -> float:
        """max(worker availability, operand readiness) for a decision."""
        node = decision.anchor.memory_node
        avail = max(view.worker_available_at(u.unit_id) for u in decision.workers)
        data = view.estimate_data_ready(task, node)
        return max(task.ready_time, avail, data)
