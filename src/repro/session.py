"""The unified ``repro.Session`` facade.

One object wiring everything a PEPPHER-style application needs: a
machine (preset name, factory or instance), a :class:`Runtime` with a
scheduler picked by name, the persistent performance-model store,
fault-injection and recovery policy, and trace export — the pieces that
previously each had their own entry point::

    from repro import Session

    with Session("c2050", store="~/.peppher-models") as s:
        h = s.register(array)
        s.submit(codelet, [(h, "rw")], ctx={"n": 1024})
        s.wait_for_all()
        s.save_trace("run.json")

The session is a thin veneer: everything it builds is reachable
(``.machine``, ``.runtime``, ``.store``) so advanced code can keep using
the underlying APIs directly; old entry points remain supported.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PeppherError, RuntimeSystemError
from repro.hw.faults import FaultModel
from repro.hw.description import MachineDescription
from repro.hw import presets
from repro.obs.suite import MetricsSuite
from repro.runtime.engine import RecoveryPolicy
from repro.runtime.runtime import Runtime
from repro.runtime.trace_export import (
    gantt_text,
    save_chrome_trace,
    save_trace_json,
)
from repro.tuning.store import PerfModelStore


class Session:
    """One configured composition session on a (simulated) machine.

    Parameters
    ----------
    machine:
        A preset name (``"c2050"``, ``"c1060"``, ``"2xc2050"``,
        ``"cpu"``), a zero-argument machine factory, or a built
        :class:`~repro.hw.description.MachineDescription`.
        ``machine_options`` are forwarded to the preset/factory (e.g.
        ``n_cpu_cores=5``).
    scheduler:
        Scheduling policy name resolved via
        :func:`~repro.runtime.schedulers.make_scheduler`, with
        ``scheduler_options`` as its keyword arguments.
    store:
        A :class:`~repro.tuning.store.PerfModelStore` or a directory
        path for one.  The runtime warm-starts from the machine's
        calibrated models and merges its observations back at shutdown.
    faults / recovery:
        Fault-injection model and recovery policy, forwarded verbatim.
    check:
        Validate the finished trace against the run invariants at
        shutdown (see :mod:`repro.check`); ``None`` defers to the
        process-wide default.
    record:
        Record scheduling decisions for deterministic replay (see
        :attr:`~repro.runtime.runtime.Runtime.decision_log`).
    metrics:
        Live observability (see :mod:`repro.obs`): ``True`` attaches a
        fresh :class:`~repro.obs.MetricsSuite` (reachable as
        :attr:`metrics`, snapshot via ``session.metrics.snapshot()``),
        an existing suite reuses it, a dict supplies suite keyword
        arguments (e.g. ``{"period_s": 1e-2}``), and ``False``/``None``
        (default) disables metrics with zero overhead.  The suite
        follows the session across :meth:`restart`.
    exec_backend:
        Where kernel computations actually run (see :mod:`repro.exec`):
        a backend name (``"simulated"``, ``"thread"``),
        a backend instance, or ``None`` (default) for the original
        inline path.  A backend named here is owned by the session —
        shared across :meth:`restart` and closed at :meth:`shutdown`;
        an instance is borrowed and left open.
    trace_dir:
        Default directory for :meth:`save_trace` outputs.

    Every other keyword (``seed``, ``noise_sigma``, ``run_kernels``,
    ``submit_overhead_s``) matches :class:`~repro.runtime.runtime.Runtime`.
    """

    def __init__(
        self,
        machine: str | MachineDescription | Callable[..., MachineDescription] = "c2050",
        scheduler: str = "dmda",
        scheduler_options: Mapping[str, object] | None = None,
        store: "PerfModelStore | str | Path | None" = None,
        seed: int = 0,
        noise_sigma: float = 0.03,
        submit_overhead_s: float = 1e-6,
        run_kernels: bool = True,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        check: bool | None = None,
        record: bool = False,
        metrics: "bool | dict | MetricsSuite | None" = None,
        trace_dir: str | Path | None = None,
        machine_options: Mapping[str, object] | None = None,
        exec_backend: "str | object | None" = None,
    ) -> None:
        opts = dict(machine_options or {})
        if isinstance(machine, str):
            name = machine
            self._machine_factory: Callable[[], MachineDescription] = (
                lambda: presets.machine(name, **opts)
            )
        elif isinstance(machine, MachineDescription):
            if opts:
                raise PeppherError(
                    "machine_options only apply when machine is a preset "
                    "name or factory"
                )
            built = machine
            self._machine_factory = lambda: built
        elif callable(machine):
            factory = machine
            self._machine_factory = lambda: factory(**opts)
        else:
            raise PeppherError(
                f"machine must be a preset name, MachineDescription or factory, "
                f"got {type(machine).__name__}"
            )
        if store is not None and not isinstance(store, PerfModelStore):
            store = PerfModelStore(Path(store).expanduser())
        self.store = store
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._own_backend = False
        if isinstance(exec_backend, str):
            from repro.exec.base import make_backend

            exec_backend = make_backend(exec_backend)
            self._own_backend = True
        self.exec_backend = exec_backend
        self._runtime_kwargs = {
            "scheduler": scheduler,
            "scheduler_options": dict(scheduler_options or {}),
            "noise_sigma": noise_sigma,
            "submit_overhead_s": submit_overhead_s,
            "run_kernels": run_kernels,
            "faults": faults,
            "recovery": recovery,
            "check": check,
            "record": record,
            # always an instance (or None): the session owns name-built
            # backends, so restart() reuses the same pool
            "exec_backend": exec_backend,
        }
        self._seed = seed
        self.metrics = MetricsSuite.create(metrics)
        self.runtime = self._make_runtime(seed)
        if self.metrics is not None:
            self.metrics.attach(self.runtime.engine)

    def _make_runtime(self, seed: int) -> Runtime:
        return Runtime(
            self._machine_factory(),
            seed=seed,
            store=self.store,
            **self._runtime_kwargs,
        )

    # -- lifecycle -----------------------------------------------------------

    def restart(self, seed: int | None = None) -> "Runtime":
        """Close the current runtime and start a fresh one.

        The new runtime keeps the learned performance model: through the
        store when one is configured (shutdown merges, start-up
        warm-loads), directly otherwise.  This is the calibrate-then-
        measure pattern (first run explores, later runs are warm)
        without manual model plumbing.
        """
        model = self.runtime.perfmodel
        self.runtime.shutdown()
        self._seed = self._seed + 1 if seed is None else seed
        if self.store is not None:
            self.runtime = self._make_runtime(self._seed)
        else:
            self.runtime = Runtime(
                self._machine_factory(),
                seed=self._seed,
                perfmodel=model,
                **self._runtime_kwargs,
            )
        if self.metrics is not None:
            # counters keep accumulating; gauges/samples follow the new
            # engine
            self.metrics.attach(self.runtime.engine)
        return self.runtime

    def shutdown(self) -> float:
        """Drain, persist models (when a store is configured), close."""
        t = self.runtime.shutdown()
        if self._own_backend and self.exec_backend is not None:
            self.exec_backend.close()
        return t

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.shutdown()
        except PeppherError:
            if exc_type is None:
                raise

    # -- delegation to the runtime ------------------------------------------

    @property
    def machine(self) -> MachineDescription:
        return self.runtime.machine

    @property
    def now(self) -> float:
        return self.runtime.now

    @property
    def trace(self):
        return self.runtime.trace

    @property
    def perfmodel(self):
        return self.runtime.perfmodel

    def register(self, array: np.ndarray, name: str = ""):
        return self.runtime.register(array, name=name)

    def unregister(self, handle) -> float:
        return self.runtime.unregister(handle)

    def acquire(self, handle, mode) -> float:
        return self.runtime.acquire(handle, mode)

    def partition_equal(self, handle, n_chunks: int, axis: int = 0):
        return self.runtime.partition_equal(handle, n_chunks, axis=axis)

    def partition_by_slices(self, handle, slices: Iterable):
        return self.runtime.partition_by_slices(handle, slices)

    def unpartition(self, handle) -> float:
        return self.runtime.unpartition(handle)

    def submit(
        self,
        codelet,
        operands: Sequence,
        ctx: Mapping[str, object] | None = None,
        scalar_args: tuple = (),
        sync: bool = False,
        priority: int = 0,
        name: str = "",
    ):
        return self.runtime.submit(
            codelet,
            operands,
            ctx=ctx,
            scalar_args=scalar_args,
            sync=sync,
            priority=priority,
            name=name,
        )

    def wait_for_all(self) -> float:
        return self.runtime.wait_for_all()

    @property
    def measurements(self):
        """Wall-clock kernel measurements (real exec backends only)."""
        return self.runtime.measurements

    # -- trace export --------------------------------------------------------

    def save_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON for the current trace."""
        path = Path(path)
        if self.trace_dir is not None and not path.is_absolute():
            path = self.trace_dir / path
        return save_chrome_trace(self.trace, self.machine, path)

    def save_trace_json(self, path: str | Path) -> Path:
        """Write the *lossless* trace JSON (machine summary included),
        the input format of ``python -m repro.check``."""
        path = Path(path)
        if self.trace_dir is not None and not path.is_absolute():
            path = self.trace_dir / path
        return save_trace_json(self.trace, self.machine, path)

    def gantt(self, width: int = 72) -> str:
        """Terminal Gantt chart of the current trace."""
        return gantt_text(self.trace, self.machine, width=width)

    # -- checking shortcuts --------------------------------------------------

    @property
    def decision_log(self):
        """Recorded decisions (``record=True`` sessions), else ``None``."""
        return self.runtime.decision_log

    def check_now(self) -> None:
        """Validate the trace-so-far against the run invariants,
        raising the first :class:`~repro.errors.InvariantViolation`."""
        from repro.check.invariants import assert_trace_legal

        assert_trace_legal(self.trace, self.machine)

    # -- tuning shortcuts ----------------------------------------------------

    def calibrated_codelets(self) -> set[str]:
        """Codelets with calibrated models for this machine (store-backed
        plus whatever this session has already learned)."""
        out = set(self.perfmodel.codelets())
        if self.store is not None:
            try:
                warm = self.store.load(self.machine)
            except RuntimeSystemError:
                warm = None
            if warm is not None:
                out |= warm.codelets()
        return out
