"""The default backend: inline kernel execution, byte-identical.

``SimulatedBackend`` is the executable name for what the engine has
always done — run each kernel synchronously on the submitting thread at
schedule time, in dependency order.  With it (or with no backend at
all) the engine takes its original code path: no futures, no hazard
tracking, no measurements, and same-seed runs produce byte-identical
traces to every earlier release.

It still implements the full direct surface (``submit_kernel`` /
``measure``), returning already-resolved futures, so calibration code
written against :class:`~repro.exec.base.ExecutionBackend` runs
unchanged on both backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.exec.base import ExecFuture, ExecutionBackend, _run_inline
from repro.exec.timing import timed_call

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.task import Task


class SimulatedBackend(ExecutionBackend):
    """Inline execution on the submitting thread (the default)."""

    name = "simulated"
    inline = True

    def dispatch_task(self, task: "Task") -> ExecFuture:
        # the engine never calls this for inline backends (it keeps the
        # original run_kernel path); provided for API completeness
        variant = task.chosen_variant
        assert variant is not None
        arrays = tuple(op.handle.array for op in task.operands)
        return _run_inline(
            lambda: timed_call(
                variant.fn,
                task.ctx,
                arrays,
                task.scalar_args,
                codelet=task.codelet.name,
                variant=variant.name,
                task_id=task.task_id,
                backend=self.name,
            )
        )

    def submit_kernel(
        self,
        fn: Callable,
        ctx: Mapping[str, object],
        arrays: Sequence,
        scalar_args: tuple = (),
        *,
        codelet: str = "",
        variant: str = "",
        task_id: int = -1,
    ) -> ExecFuture:
        return _run_inline(
            lambda: timed_call(
                fn,
                ctx,
                arrays,
                scalar_args,
                codelet=codelet,
                variant=variant,
                task_id=task_id,
                backend=self.name,
            )
        )
