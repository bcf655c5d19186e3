"""The trace-access API.

Records live in a columnar store; everything outside the engine reads
them through ``trace.tasks()`` / ``trace.columns(...)`` or forges them
with the record constructor (``TaskRecord(...)``).  These tests pin
that surface — and that the metrics-off hot path builds no event
payloads at all.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime import events as events_mod
from repro.runtime.stats import (
    ExecutionTrace,
    TaskRecord,
    TransferRecord,
)


def _run_small(n_tasks: int = 20) -> Runtime:
    rt = Runtime(
        platform_c2050(),
        scheduler="eager",
        seed=7,
        noise_sigma=0.0,
        run_kernels=False,
    )
    codelet = Codelet(
        "api",
        [
            ImplVariant("api_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 1e-6),
            ImplVariant("api_gpu", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-7),
        ],
    )
    h = rt.register(np.zeros(32, dtype=np.float32), "h")
    for i in range(n_tasks):
        rt.submit(codelet, [(h, "rw")], name=f"t{i}")
    rt.wait_for_all()
    return rt


# -- blessed accessors -------------------------------------------------------


def test_tasks_accessor_is_callable_and_sequence():
    rt = _run_small(12)
    trace = rt.engine.trace
    # the blessed iteration spelling: trace.tasks()
    recs = list(trace.tasks())
    assert len(recs) == 12
    assert all(isinstance(r, TaskRecord) for r in recs)
    # the attribute still behaves like the list it used to be
    assert len(trace.tasks) == 12
    assert trace.tasks[0].name == "t0"
    assert trace.tasks[-1].name == "t11"
    assert [r.name for r in trace.tasks[2:4]] == ["t2", "t3"]
    rt.shutdown()


def test_transfers_and_faults_accessors():
    rt = _run_small(8)
    trace = rt.engine.trace
    assert list(trace.faults()) == []
    for rec in trace.transfers():
        assert isinstance(rec, TransferRecord)
    rt.shutdown()


def test_columns_view_matches_records():
    rt = _run_small(10)
    trace = rt.engine.trace
    ends = trace.columns("end_time")
    assert isinstance(ends, array)  # float field -> array('d')
    assert list(ends) == [r.end_time for r in trace.tasks()]
    names = trace.columns("name")
    assert isinstance(names, list)  # object field -> plain list
    assert names[0] == "t0"
    rt.shutdown()


def test_columns_rejects_unknown_field_and_kind():
    trace = ExecutionTrace()
    with pytest.raises(KeyError, match="no field"):
        trace.columns("nope")
    with pytest.raises(KeyError, match="unknown record kind"):
        trace.columns("end_time", kind="nope")


def test_state_dict_round_trips_records():
    rt = _run_small(5)
    doc = rt.engine.trace.state_dict()
    assert len(doc["tasks"]) == 5
    assert doc["tasks"][0]["name"] == "t0"
    rt.shutdown()


# -- record construction -----------------------------------------------------


def test_record_constructor():
    rec = TaskRecord(1, "t", "c", "v", "cpu", (0,), 0.0, 0.0, 0.0, 1.0)
    assert rec.end_time == 1.0
    assert rec.replace(name="u").name == "u"
    assert rec.as_dict()["task_id"] == 1
    with pytest.raises(TypeError, match="multiple values"):
        TaskRecord(1, "t", "c", "v", "cpu", (0,), 0.0, 0.0, 0.0, 1.0, task_id=2)
    with pytest.raises(TypeError, match="missing required"):
        TaskRecord(1, "t")


# -- metrics-off hot path ----------------------------------------------------


def test_metrics_off_run_builds_zero_event_payloads(monkeypatch):
    """With no subscribers, the want-gates must skip payload
    construction entirely: no event object is ever allocated."""
    constructed = []

    def _counting(cls):
        class Counting(cls):
            def __init__(self, *a, **k):
                constructed.append(cls.__name__)
                super().__init__(*a, **k)

        return Counting

    for name in (
        "SubmitEvent",
        "ScheduleEvent",
        "StartEvent",
        "CompleteEvent",
        "TransferEvent",
        "EvictEvent",
        "FaultEvent",
        "FlushEvent",
    ):
        monkeypatch.setattr(
            events_mod, name, _counting(getattr(events_mod, name))
        )

    rt = _run_small(30)
    ev = rt.engine.events
    assert ev.n_subscribers() == 0
    assert constructed == []
    assert ev._ring == []
    rt.shutdown()
    assert constructed == []


def test_subscribed_run_builds_payloads():
    """Control for the zero-payload test: with a subscriber the same
    workload does deliver typed events."""
    rt = _run_small(0)
    seen = []
    rt.engine.events.subscribe("complete", seen.append)
    codelet = Codelet(
        "sub",
        [ImplVariant("sub_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 1e-6)],
    )
    h = rt.register(np.zeros(8, dtype=np.float32), "s")
    rt.submit(codelet, [(h, "rw")], name="s0")
    rt.wait_for_all()
    assert [e.task.name for e in seen] == ["s0"]
    assert isinstance(seen[0].record, TaskRecord)
    rt.shutdown()
