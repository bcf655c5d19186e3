"""Property: fault schedules never corrupt results, only timelines.

Whatever faults strike — transient kernel failures, transfer corruption,
a dying GPU — a run that completes must produce bit-identical kernel
results to the fault-free run, because kernels execute exactly once, on
the attempt that finally succeeds.

A run may end early only when a declared budget is spent: a task's
``max_retries`` (:class:`UnrecoverableTaskError`), or a host read's
copy exhausting ``max_transfer_retries`` (:class:`TransferFault`; the
host has no other placement to fall back to, so the transfer budget is
its whole recovery).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import TransferFault, UnrecoverableTaskError
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime import RecoveryPolicy, Runtime

from tests.conftest import make_axpy_codelet

_N = 512
_N_TASKS = 6
_RECOVERY = RecoveryPolicy(max_retries=10)


def _runtime(faults, scheduler, seed):
    return Runtime(
        platform_c2050(),
        scheduler=scheduler,
        seed=seed,
        faults=faults,
        recovery=_RECOVERY,
    )


def _drive(rt):
    cl = make_axpy_codelet()
    y = rt.register(np.zeros(_N, dtype=np.float32))
    x = rt.register(np.ones(_N, dtype=np.float32))
    for i in range(_N_TASKS):
        rt.submit(
            cl, [(y, "rw"), (x, "r")], ctx={"n": _N},
            scalar_args=(float(i + 1),),
        )
    rt.wait_for_all()
    rt.acquire(y, "r")
    result = y.array.copy()
    makespan = rt.shutdown()
    return makespan, result


def _run(faults, scheduler, seed):
    return _drive(_runtime(faults, scheduler, seed))


@given(
    kernel_rate=st.floats(min_value=0.0, max_value=0.6),
    transfer_rate=st.floats(min_value=0.0, max_value=0.4),
    fault_seed=st.integers(min_value=0, max_value=2**31 - 1),
    scheduler=st.sampled_from(["eager", "ws", "dmda"]),
)
@example(
    kernel_rate=0.3125, transfer_rate=0.25, fault_seed=16777217, scheduler="ws"
)
@settings(max_examples=40, deadline=None)
def test_any_fault_schedule_preserves_results(
    kernel_rate, transfer_rate, fault_seed, scheduler
):
    _, expected = _run(None, scheduler, seed=1)
    faults = FaultModel(
        kernel_fault_rate=kernel_rate,
        transfer_fault_rate=transfer_rate,
        seed=fault_seed,
    )
    rt = _runtime(faults, scheduler, seed=1)
    try:
        makespan, result = _drive(rt)
    except UnrecoverableTaskError:
        # a hot-enough schedule may legitimately exhaust the retry
        # budget; the property only constrains runs that complete
        return
    except TransferFault:
        # only after the copy used its whole retransmission budget: one
        # corrupted-attempt record per attempt, for one handle
        budget = _RECOVERY.max_transfer_retries + 1
        tail = list(rt.trace.faults)[-budget:]
        assert [f.kind for f in tail] == ["transfer"] * budget
        assert [f.attempt for f in tail] == list(range(budget))
        assert len({f.handle_id for f in tail}) == 1
        return
    assert np.array_equal(result, expected)
    assert makespan > 0


@given(
    loss_fraction=st.floats(min_value=0.01, max_value=1.5),
    scheduler=st.sampled_from(["eager", "ws", "dmda"]),
)
@settings(max_examples=20, deadline=None)
def test_gpu_loss_at_any_time_preserves_results(loss_fraction, scheduler):
    baseline_makespan, expected = _run(None, scheduler, seed=1)
    machine = platform_c2050()
    gpu = machine.gpu_units[0].unit_id
    faults = FaultModel(
        device_loss_at={gpu: baseline_makespan * loss_fraction}, seed=0
    )
    makespan, result = _run(faults, scheduler, seed=1)
    assert np.array_equal(result, expected)
