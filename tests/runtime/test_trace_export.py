"""Trace export: Chrome trace-event JSON and text Gantt."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.hw.description import HOST_NODE
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.stats import (
    ExecutionTrace,
    RequestRecord,
    TaskRecord,
    TransferRecord,
)
from repro.runtime.trace_export import (
    _counter_events,
    _request_events,
    _SERVE_PID,
    canonical_chrome_json,
    gantt_text,
    save_chrome_trace,
    to_chrome_trace,
)


def _traced_run():
    rt = Runtime(platform_c2050(), scheduler="eager", seed=0, noise_sigma=0.0)
    cpu_cl = Codelet(
        "c", [ImplVariant("work_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 1e-3)]
    )
    gpu_cl = Codelet(
        "g", [ImplVariant("work_cuda", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-3)]
    )
    h1 = rt.register(np.zeros(1000, dtype=np.float32), "h1")
    h2 = rt.register(np.zeros(1000, dtype=np.float32), "h2")
    rt.submit(cpu_cl, [(h1, "rw")])
    rt.submit(gpu_cl, [(h2, "r")])  # forces one h2d transfer
    rt.wait_for_all()
    return rt


def test_chrome_trace_structure():
    rt = _traced_run()
    doc = to_chrome_trace(rt.trace, rt.machine)
    events = doc["traceEvents"]
    names = {e["args"].get("name") for e in events if e["ph"] == "M"}
    assert any("Tesla C2050" in (n or "") for n in names)
    assert any("DMA" in (n or "") for n in names)
    task_events = [e for e in events if e["ph"] == "X" and "task" in e.get("cat", "")]
    assert {e["name"] for e in task_events} == {"work_cpu", "work_cuda"}
    transfer_events = [e for e in events if e.get("cat") == "transfer"]
    assert len(transfer_events) == 1
    assert transfer_events[0]["name"].startswith("h2d:")
    rt.shutdown()


def test_chrome_trace_json_roundtrips(tmp_path):
    rt = _traced_run()
    path = save_chrome_trace(rt.trace, rt.machine, tmp_path / "trace.json")
    loaded = json.loads(path.read_text())
    assert loaded["displayTimeUnit"] == "ms"
    assert len(loaded["traceEvents"]) >= 4
    rt.shutdown()


def test_chrome_trace_records_evictions(tmp_path):
    from dataclasses import replace

    from repro.hw.devices import tesla_c2050, xeon_e5520_core
    from repro.hw.description import make_machine

    gpu = replace(tesla_c2050(), memory_bytes=8 * 1024 * 1024)
    machine = make_machine("tiny", cpu=xeon_e5520_core(), n_cpu_cores=4, gpus=[gpu])
    rt = Runtime(machine, scheduler="eager", seed=0, noise_sigma=0.0)
    cl = Codelet(
        "k", [ImplVariant("k", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-4)]
    )
    a = rt.register(np.zeros(5 * 1024 * 256, dtype=np.float32), "a")  # 5 MB
    b = rt.register(np.zeros(5 * 1024 * 256, dtype=np.float32), "b")
    rt.submit(cl, [(a, "r")], sync=True)
    rt.submit(cl, [(b, "r")], sync=True)
    doc = to_chrome_trace(rt.trace, rt.machine)
    assert any(e.get("cat") == "eviction" for e in doc["traceEvents"])
    rt.shutdown()


def test_gantt_text_shape():
    rt = _traced_run()
    text = gantt_text(rt.trace, rt.machine, width=40)
    lines = text.splitlines()
    # one row per unit plus header, DMA row and legend
    assert len(lines) == 1 + len(rt.machine.units) + 1 + 1
    assert "@" in text  # cuda work visible
    assert "#" in text  # cpu work visible
    assert "^" in text  # the upload visible
    rt.shutdown()


def test_gantt_empty_trace():
    rt = Runtime(platform_c2050(), scheduler="eager", seed=0)
    assert gantt_text(rt.trace, rt.machine) == "(empty trace)"
    rt.shutdown()


# -- counter tracks -----------------------------------------------------------


def test_counter_tracks_balance_to_zero():
    rt = _traced_run()
    counters = _counter_events(rt.trace, rt.machine)
    assert counters and all(e["ph"] == "C" for e in counters)
    ts = [e["ts"] for e in counters]
    assert ts == sorted(ts)
    queue = [e for e in counters if e["name"] == "queue depth"]
    busy = [e for e in counters if e["name"] == "workers busy"]
    # the run drained: the last sample of every aggregate track is zero
    assert queue[-1]["args"] == {"pending": 0, "running": 0}
    assert busy[-1]["args"] == {"busy": 0}
    # and while tasks ran, something was pending/busy at some point
    assert max(e["args"]["running"] for e in queue) >= 1
    assert max(e["args"]["busy"] for e in busy) >= 1
    # every sample is a legal occupancy count
    for e in queue:
        assert e["args"]["pending"] >= 0 and e["args"]["running"] >= 0
    rt.shutdown()


def test_counter_per_worker_util_tracks():
    rt = _traced_run()
    counters = _counter_events(rt.trace, rt.machine)
    used = {w for rec in rt.trace.tasks for w in rec.worker_ids}
    util = {}
    for e in counters:
        if e["name"].startswith("util u"):
            util.setdefault(e["tid"], []).append(e["args"]["busy"])
    assert set(util) == used
    for samples in util.values():
        assert set(samples) <= {0, 1}  # one task at a time per worker
        assert samples[-1] == 0  # drained
    rt.shutdown()


def test_counters_ride_along_in_chrome_trace():
    rt = _traced_run()
    doc = to_chrome_trace(rt.trace, rt.machine)
    assert any(e.get("cat") == "counter" for e in doc["traceEvents"])
    rt.shutdown()


# -- serving request rows -----------------------------------------------------


def _serving_trace():
    trace = ExecutionTrace()
    trace.requests.extend(
        [
            RequestRecord(
                tenant="alpha", req_id=0, codelet="sgemm", arrival_time=0.0,
                dispatch_time=0.01, start_time=0.02, end_time=0.05,
                batch_size=2, task_id=1,
            ),
            RequestRecord(
                tenant="beta", req_id=1, codelet="spmv", arrival_time=0.01,
                shed=True,
            ),
            RequestRecord(
                tenant="alpha", req_id=2, codelet="sgemm", arrival_time=0.02,
                failed=True,
            ),
        ]
    )
    return trace


def test_request_events_per_tenant_rows():
    events = _request_events(_serving_trace())
    assert all(e["pid"] == _SERVE_PID for e in events)
    thread_names = {
        e["args"]["name"] for e in events if e["name"] == "thread_name"
    }
    assert thread_names == {"tenant alpha", "tenant beta"}
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 1 and spans[0]["name"] == "sgemm"
    args = spans[0]["args"]
    assert args["batch"] == 2
    assert args["queue_wait_ms"] == pytest.approx(10.0)  # arrival -> dispatch
    assert args["exec_ms"] == pytest.approx(30.0)
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert instants == {"shed:spmv", "failed:sgemm"}


def test_request_rows_ride_along_in_chrome_trace():
    trace = _serving_trace()
    doc = to_chrome_trace(trace, platform_c2050())
    assert any(e.get("cat") == "request" for e in doc["traceEvents"])


# -- golden file --------------------------------------------------------------

_GOLDEN = Path(__file__).parent.parent / "data" / "golden_gantt.txt"


def _golden_trace():
    """A small hand-built trace: stable across runs by construction."""
    machine = platform_c2050()
    gpu = machine.gpu_units[0]
    trace = ExecutionTrace()
    trace.tasks.append(
        TaskRecord(
            task_id=0, name="prep#0", codelet="prep", variant="prep_cpu",
            arch="cpu", worker_ids=(0,), submit_time=0.0, ready_time=0.0,
            start_time=0.0, end_time=0.004, node=HOST_NODE, submit_seq=0,
            seq=0,
        )
    )
    trace.transfers.append(
        TransferRecord(
            handle_id=0, handle_name="data0", src_node=HOST_NODE,
            dst_node=gpu.memory_node, nbytes=4096, start_time=0.004,
            end_time=0.006, seq=1,
        )
    )
    trace.tasks.append(
        TaskRecord(
            task_id=1, name="kernel#1", codelet="kernel",
            variant="kernel_cuda", arch="cuda", worker_ids=(gpu.unit_id,),
            submit_time=0.0, ready_time=0.004, start_time=0.006,
            end_time=0.010, node=gpu.memory_node, submit_seq=1, seq=2,
            reads=(0,), deps=(0,),
        )
    )
    trace.n_submitted = 2
    trace.next_seq = 3
    return trace, machine


def test_golden_gantt_is_stable():
    trace, machine = _golden_trace()
    assert gantt_text(trace, machine, width=48) == _GOLDEN.read_text()


def test_golden_trace_canonical_json_is_stable():
    # the canonical Chrome JSON of the same trace is byte-stable too
    trace, machine = _golden_trace()
    a = canonical_chrome_json(trace, machine)
    b = canonical_chrome_json(trace, machine)
    assert a == b
    doc = json.loads(a)
    assert {e.get("cat") for e in doc["traceEvents"]} >= {
        "task,cpu", "task,cuda", "transfer",
    }
