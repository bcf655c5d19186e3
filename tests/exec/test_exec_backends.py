"""Unit tests for the repro.exec backends themselves (no engine)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import ExecBackendError
from repro.exec import (
    Measurement,
    SimulatedBackend,
    ThreadPoolBackend,
    make_backend,
    timed_call,
)


def _add_one(ctx, x):
    x += 1


def test_make_backend_by_name():
    for name, cls in [
        ("simulated", SimulatedBackend),
        ("thread", ThreadPoolBackend),
    ]:
        b = make_backend(name)
        assert isinstance(b, cls)
        assert b.name == name
        b.close()


def test_make_backend_passthrough_instance():
    b = ThreadPoolBackend(max_workers=1)
    assert make_backend(b) is b
    with pytest.raises(ExecBackendError):
        make_backend(b, max_workers=2)  # options need a name
    b.close()


def test_make_backend_unknown_name():
    with pytest.raises(ExecBackendError, match="unknown execution backend"):
        make_backend("gpu-magic")


def test_timed_call_measures_and_runs():
    x = np.zeros(4)
    m = timed_call(_add_one, {}, (x,), codelet="c", variant="v", backend="b")
    assert isinstance(m, Measurement)
    assert np.all(x == 1)
    assert m.wall_s >= 0 and m.end_ns >= m.start_ns
    assert (m.codelet, m.variant, m.backend) == ("c", "v", "b")


def test_measurement_overlaps():
    a = Measurement("c", "v", 0, 1e-9, start_ns=0, end_ns=100, backend="t")
    b = Measurement("c", "v", 1, 1e-9, start_ns=50, end_ns=150, backend="t")
    c = Measurement("c", "v", 2, 1e-9, start_ns=100, end_ns=200, backend="t")
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)  # touching endpoints do not overlap


def test_simulated_backend_is_inline_and_synchronous():
    b = SimulatedBackend()
    assert b.inline
    x = np.zeros(4)
    fut = b.submit_kernel(_add_one, {}, (x,))
    assert fut.done()  # inline: finished before the future is returned
    assert np.all(x == 1)
    assert fut.result().backend == "simulated"


def test_simulated_backend_captures_kernel_exception_in_future():
    def boom(ctx, x):
        raise ValueError("bad kernel")

    fut = SimulatedBackend().submit_kernel(boom, {}, (np.zeros(2),))
    assert fut.done()
    with pytest.raises(ValueError, match="bad kernel"):
        fut.result()


def test_thread_backend_shared_memory_and_measurement():
    with ThreadPoolBackend(max_workers=2) as b:
        assert not b.inline
        x = np.zeros(8)
        m = b.submit_kernel(_add_one, {}, (x,), codelet="c", variant="v").result()
        assert np.all(x == 1)
        assert m.backend == "thread"
        assert m.worker.startswith("repro-exec")


def test_thread_backend_real_overlap_spans():
    ev = threading.Barrier(2, timeout=5)

    def rendezvous(ctx, x):
        ev.wait()  # both kernels must be running simultaneously
        time.sleep(0.01)

    with ThreadPoolBackend(max_workers=2) as b:
        f1 = b.submit_kernel(rendezvous, {}, (np.zeros(1),))
        f2 = b.submit_kernel(rendezvous, {}, (np.zeros(1),))
        m1, m2 = f1.result(timeout=5), f2.result(timeout=5)
    assert m1.overlaps(m2)


def test_thread_backend_cancellation():
    gate = threading.Event()

    def blocker(ctx, x):
        gate.wait(timeout=5)

    b = ThreadPoolBackend(max_workers=1)
    try:
        running = b.submit_kernel(blocker, {}, (np.zeros(1),))
        queued = b.submit_kernel(_add_one, {}, (np.zeros(1),))
        assert queued.cancel()  # still queued behind the blocker
        assert queued.cancelled()
        assert not running.cancel()  # already executing
        with pytest.raises(Exception):  # concurrent.futures.CancelledError
            queued.result(timeout=1)
    finally:
        gate.set()
        b.close()


def test_thread_backend_rejects_use_after_close():
    b = ThreadPoolBackend(max_workers=1)
    b.close()
    b.close()  # idempotent
    with pytest.raises(ExecBackendError, match="closed"):
        b.submit_kernel(_add_one, {}, (np.zeros(1),))


def test_backend_rejects_bad_max_workers():
    with pytest.raises(ExecBackendError):
        ThreadPoolBackend(max_workers=0)


def test_measure_warmup_and_reps():
    calls = []

    def counting(ctx, x):
        calls.append(1)

    with ThreadPoolBackend(max_workers=1) as b:
        ms = b.measure(counting, {}, (np.zeros(1),), warmup=2, reps=3)
    assert len(ms) == 3  # warmup runs are discarded
    assert len(calls) == 5

