"""Thread-pool execution backend: real concurrency for NumPy kernels.

NumPy's compiled inner loops (BLAS calls, ufunc loops over large
arrays) release the GIL, so kernels dispatched to a
``ThreadPoolExecutor`` genuinely overlap on multicore hosts — this is
the cheapest way to turn the simulated runtime into a real one: shared
memory means in-place operand writes are immediately visible, nothing
needs pickling, and all measurements share one ``perf_counter_ns``
clock domain (so span-overlap assertions are meaningful).

The engine preserves data-hazard order by joining a predecessor's
kernel future before dispatching a dependent kernel; *independent*
kernels run concurrently.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.errors import ExecBackendError
from repro.exec.base import ExecFuture, ExecutionBackend
from repro.exec.timing import timed_call

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.task import Task


class ThreadPoolBackend(ExecutionBackend):
    """Kernels on a ``ThreadPoolExecutor`` (shared memory, GIL-releasing).

    Parameters
    ----------
    max_workers:
        Pool width; defaults to ``ThreadPoolExecutor``'s CPU-derived
        default.  ``max_workers=1`` serializes kernels (useful to test
        queueing and cancellation deterministically).
    """

    name = "thread"
    inline = False

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ExecBackendError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-exec"
        )
        self._closed = False
        self._lock = threading.Lock()

    def _check_open(self) -> None:
        if self._closed:
            raise ExecBackendError("thread backend has been closed")

    def dispatch_task(self, task: "Task") -> ExecFuture:
        variant = task.chosen_variant
        assert variant is not None
        arrays = tuple(op.handle.array for op in task.operands)
        return self.submit_kernel(
            variant.fn,
            task.ctx,
            arrays,
            task.scalar_args,
            codelet=task.codelet.name,
            variant=variant.name,
            task_id=task.task_id,
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
        self._check_open()
        inner = self._pool.submit(
            timed_call,
            fn,
            ctx,
            arrays,
            scalar_args,
            codelet=codelet,
            variant=variant,
            task_id=task_id,
            backend=self.name,
        )
        return ExecFuture(inner)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)
