"""Fault-path invariants: retry discipline and blacklist placement."""


import numpy as np
import pytest

from repro.check import check_trace
from repro.errors import UnrecoverableTaskError
from repro.hw.faults import FaultModel
from repro.hw.presets import cpu_only, platform_c2050
from repro.runtime import RecoveryPolicy, Runtime
from repro.runtime.stats import FaultRecord

from tests.conftest import make_axpy_codelet


def _faulty_trace(machine=None, **kw):
    machine = machine or platform_c2050()
    rt = Runtime(machine, scheduler="dmda", seed=0,
                 faults=FaultModel(kernel_fault_rate=0.3, seed=3),
                 recovery=RecoveryPolicy(max_retries=8), **kw)
    cl = make_axpy_codelet(archs=("cpu", "openmp", "cuda"))
    y = rt.register(np.zeros(4096, dtype=np.float32))
    x = rt.register(np.ones(4096, dtype=np.float32))
    for _ in range(16):
        rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 4096},
                  scalar_args=(1.0,))
    rt.wait_for_all()
    rt.shutdown()
    return rt.trace, machine


def _forge(tr, rec):
    """Append a forged fault record with a fresh, in-range seq stamp."""
    seq = tr.next_seq
    tr.next_seq = seq + 1
    tr.faults.append(rec.replace(seq=seq))


def test_legal_faulty_run_has_no_violations():
    tr, machine = _faulty_trace()
    assert tr.n_faults > 0
    assert check_trace(tr, machine) == []


def test_blacklist_scenario_with_lost_trigger_has_no_false_positive():
    """When the triggering task is itself lost (no TaskRecord), the
    placement scan cannot anchor on a submission index and must stay
    silent rather than flag eagerly-placed later tasks."""
    machine = cpu_only(3)
    rt = Runtime(machine, scheduler="eager", seed=0,
                 faults=FaultModel(kernel_fault_rate=1.0, seed=0),
                 recovery=RecoveryPolicy(max_retries=30, blacklist_after=2))
    cl = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(8, dtype=np.float32))
    x = rt.register(np.ones(8, dtype=np.float32))
    with pytest.raises(UnrecoverableTaskError):
        rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 8},
                  scalar_args=(1.0,))
    assert any(f.kind == "blacklisted" for f in rt.trace.faults)
    assert check_trace(rt.trace, machine) == []


def test_duplicate_attempt_fault_is_flagged():
    tr, machine = _faulty_trace()
    kernel = next(f for f in tr.faults if f.kind == "kernel")
    _forge(tr, kernel)  # a second fault for the same (task, attempt)
    rules = {v.rule for v in check_trace(tr, machine)}
    assert "fault.attempt-duplicate" in rules


def test_overlapping_retry_attempts_are_flagged():
    tr, machine = _faulty_trace()
    kernel = next(f for f in tr.faults if f.kind == "kernel")
    # a later attempt faulting *earlier* in time than its predecessor
    _forge(tr, kernel.replace(
        attempt=kernel.attempt + 1, time=kernel.time * 0.5
    ))
    rules = {v.rule for v in check_trace(tr, machine)}
    assert "fault.attempt-overlap" in rules


def test_placement_on_blacklisted_worker_is_flagged():
    tr, machine = _faulty_trace()
    # pick a trigger task and a strictly later-submitted task, then
    # claim the later task's worker was blacklisted before it was ready
    tasks = sorted(tr.tasks, key=lambda r: r.submit_seq)
    trigger, later = None, None
    for a in tasks:
        for b in tasks:
            if (
                b.submit_seq > a.submit_seq
                and b.ready_time > 0
                and b.worker_ids
                and not set(b.worker_ids) & set(a.worker_ids)
            ):
                trigger, later = a, b
                break
        if trigger is not None:
            break
    assert trigger is not None, "workload too uniform to forge a scenario"
    _forge(tr, FaultRecord(
        kind="blacklisted",
        time=later.ready_time * 0.5,
        task_id=trigger.task_id,
        task_name=trigger.name,
        worker_ids=(later.worker_ids[0],),
        detail="forged for the test",
    ))
    rules = {v.rule for v in check_trace(tr, machine)}
    assert "fault.blacklist-placement" in rules


def test_trigger_task_keeping_blacklisted_worker_is_flagged():
    tr, machine = _faulty_trace()
    rec = tr.tasks[0]
    _forge(tr, FaultRecord(
        kind="blacklisted",
        time=0.0,
        task_id=rec.task_id,
        task_name=rec.name,
        worker_ids=(rec.worker_ids[0],),
        detail="forged: trigger still placed on the retired worker",
    ))
    rules = {v.rule for v in check_trace(tr, machine)}
    assert "fault.blacklist-placement" in rules
