"""repro.exec — real-concurrency execution backends for codelet kernels.

The engine's discrete-event core models *when* things happen; this
package decides *where the kernel computation actually runs*:

========== ===================== =========================================
backend    concurrency           use when
========== ===================== =========================================
simulated  none (inline)         default; byte-identical to every
                                 earlier release; pure simulation studies
thread     real (GIL-releasing   NumPy/BLAS-heavy kernels; shared memory,
           kernels overlap)      one clock domain, zero copy cost
========== ===================== =========================================

Real backends wall-clock every kernel (``time.perf_counter_ns`` inside
the executing worker) and the engine feeds those measurements into the
performance model under the ``"measured"`` provenance — alongside, never
replacing, the analytical observations — which is what the
analytical-vs-measured differential (``repro.experiments.backends``)
calibrates against.

Entry points::

    from repro.exec import ThreadPoolBackend
    with Session("c2050", exec_backend="thread") as s:   # or an instance
        ...

See ``docs/BACKENDS.md`` for the full matrix and the calibration
workflow.
"""

from repro.exec.base import (
    ExecFuture,
    ExecutionBackend,
    Measurement,
    make_backend,
    timed_call,
)
from repro.exec.simulated import SimulatedBackend
from repro.exec.thread import ThreadPoolBackend

__all__ = [
    "ExecFuture",
    "ExecutionBackend",
    "Measurement",
    "SimulatedBackend",
    "ThreadPoolBackend",
    "make_backend",
    "timed_call",
]
