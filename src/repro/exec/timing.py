"""Wall-clock kernel timing: the measurement side of :mod:`repro.exec`.

Every kernel invocation a real backend runs is bracketed by
``time.perf_counter_ns`` *inside the pool thread that executes it*, so
the span covers exactly the kernel — no queueing, no future plumbing.
:class:`Measurement` carries the span in nanoseconds plus enough
identity (codelet, variant, backend, worker) to feed the
performance-model store's ``measured`` provenance and to let tests
assert that independent kernels genuinely overlapped.

Spans from one process share a clock domain (``perf_counter_ns`` of the
host process), so span overlap between kernels is meaningful.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Measurement:
    """One wall-clock-timed kernel execution."""

    #: codelet the kernel belongs to ('' for bare submit_kernel calls)
    codelet: str
    #: variant name ('' for bare submit_kernel calls)
    variant: str
    #: engine task id (-1 for bare submit_kernel calls)
    task_id: int
    #: wall-clock seconds the kernel ran
    wall_s: float
    #: ``perf_counter_ns`` at kernel entry, in the executing worker
    start_ns: int
    #: ``perf_counter_ns`` at kernel exit, in the executing worker
    end_ns: int
    #: backend that ran the kernel ("simulated", "thread")
    backend: str
    #: executing worker (thread name)
    worker: str = ""

    def overlaps(self, other: "Measurement") -> bool:
        """Whether two spans overlap (same clock domain only)."""
        return self.start_ns < other.end_ns and other.start_ns < self.end_ns

    def to_dict(self) -> dict:
        return {
            "codelet": self.codelet,
            "variant": self.variant,
            "task_id": self.task_id,
            "wall_s": self.wall_s,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "backend": self.backend,
            "worker": self.worker,
        }


def timed_call(
    fn,
    ctx,
    arrays,
    scalar_args=(),
    *,
    codelet: str = "",
    variant: str = "",
    task_id: int = -1,
    backend: str = "",
    worker: str | None = None,
) -> Measurement:
    """Run ``fn(ctx, *arrays, *scalar_args)`` bracketed by
    ``perf_counter_ns``; return the :class:`Measurement`.

    Runs in whichever worker calls it — this is the function backends
    ship to their pools, so the timestamps are taken where the kernel
    executes.
    """
    if worker is None:
        worker = threading.current_thread().name
    start_ns = time.perf_counter_ns()
    fn(ctx, *arrays, *scalar_args)
    end_ns = time.perf_counter_ns()
    return Measurement(
        codelet=codelet,
        variant=variant,
        task_id=task_id,
        wall_s=(end_ns - start_ns) * 1e-9,
        start_ns=start_ns,
        end_ns=end_ns,
        backend=backend,
        worker=worker,
    )
