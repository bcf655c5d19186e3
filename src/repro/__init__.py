"""repro — a reproduction of the PEPPHER composition tool (MuCoCoS/SC 2012).

The package provides:

- :mod:`repro.hw` — a simulated heterogeneous machine (CPUs + GPUs) with
  calibrated analytical device cost models and a virtual clock.
- :mod:`repro.runtime` — a StarPU-like task-based runtime: data handles with
  MSI coherence over memory nodes, implicit dependency inference from data
  access modes, asynchronous task submission and performance-aware
  schedulers, driven by a discrete-event engine.
- :mod:`repro.containers` — PEPPHER smart containers (Scalar, Vector,
  Matrix) that keep operand data coherent across memory units and make
  data accesses from the application program block only when necessary.
- :mod:`repro.components` — the PEPPHER component model: interface /
  implementation / platform / main descriptors (real XML), repositories,
  call contexts, prediction functions, tunables and constraints.
- :mod:`repro.composer` — the composition tool itself: descriptor
  exploration, component-tree IR, generic component expansion, user-guided
  static narrowing, static composition with dispatch tables, and code
  generation (entry/backend wrapper stubs, a ``peppher`` header module and
  a Makefile-analog build plan).
- :mod:`repro.apps` / :mod:`repro.direct` — ten PEPPHERized applications
  (SpMV, SGEMM, Rodinia kernels, a Runge-Kutta ODE solver) in both
  tool-mode and hand-written-runtime form.
- :mod:`repro.exec` — a real-concurrency thread-pool execution backend
  behind the codelet API: kernels genuinely overlap, are wall-clock
  timed, and feed the performance model's ``measured`` provenance.

See ``DESIGN.md`` for the system inventory and the per-experiment index and
``EXPERIMENTS.md`` for paper-vs-measured results.
"""

from repro._version import __version__

#: headline API, re-exported for convenience:
#: ``from repro import Runtime, Vector, Composer, Recipe, ...``
from repro.components import MainDescriptor, Repository
from repro.composer import ComposedApplication, Composer, Recipe
from repro.containers import Matrix, Scalar, Vector
from repro.hw import (
    MachineDescription,
    machine,
    platform_c1060,
    platform_c2050,
)
from repro.obs import MetricsRegistry, MetricsSuite
from repro.runtime import Runtime
from repro.runtime.events import EngineEvents
from repro.session import Session
from repro.tuning import PerfModelStore

# entry-point subpackages, imported last (they consume the core above)
from repro import check, serve  # noqa: E402  isort: skip

__all__ = [
    "ComposedApplication",
    "Composer",
    "EngineEvents",
    "MachineDescription",
    "Matrix",
    "MainDescriptor",
    "MetricsRegistry",
    "MetricsSuite",
    "PerfModelStore",
    "Recipe",
    "Repository",
    "Runtime",
    "Scalar",
    "Session",
    "Vector",
    "__version__",
    "check",
    "machine",
    "platform_c1060",
    "platform_c2050",
    "serve",
]
