"""Unit tests for the lookahead window planner and engine bulk mode.

The integration/property suites prove end-to-end behavior; these pin the
scheduler's contract surface: constructor validation, registry wiring,
window flush triggers (full window, ``wait_for_all``, smart-container
access), calibration fallback, :class:`WindowPlan` introspection, the
plan-vs-greedy guarantee, and fusion accounting.
"""

from unittest import mock

import numpy as np
import pytest

from repro.composer.lookahead import LookaheadScheduler, WindowPlan
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.schedulers import make_scheduler, policy_names
from repro.runtime.schedulers.base import enumerate_candidates

N = 4096


def _codelet(name="la", cpu=1e-4, gpu=3e-5):
    return Codelet(
        name,
        [
            ImplVariant(
                f"{name}_cpu", Arch.CPU, lambda ctx, *a: None,
                lambda ctx, dev: cpu,
            ),
            ImplVariant(
                f"{name}_cuda", Arch.CUDA, lambda ctx, *a: None,
                lambda ctx, dev: gpu,
            ),
        ],
    )


def _runtime(**opts):
    return Runtime(
        platform_c2050(),
        scheduler="lookahead",
        scheduler_options=opts,
        seed=0,
        noise_sigma=0.0,
        run_kernels=False,
        check=False,
    )


def _calibrate(rt, codelet, n=6):
    """Warm the performance model: these windows fall back to dmda,
    whose exploration samples every variant until it can be priced."""
    h = rt.register(np.zeros(N, dtype=np.float32), "warm")
    for i in range(n):
        rt.submit(codelet, [(h, "rw")], name=f"warm{i}")
    rt.wait_for_all()


# -- construction and registry ------------------------------------------------


def test_factory_resolves_lookahead():
    sched = make_scheduler("lookahead", window_size=4, beam_width=2)
    assert isinstance(sched, LookaheadScheduler)
    assert sched.is_bulk
    assert sched.window_size == 4
    assert sched.beam_width == 2
    assert "lookahead" in policy_names()


@pytest.mark.parametrize("bad", [0, -1])
def test_rejects_bad_window_size(bad):
    with pytest.raises(ValueError):
        LookaheadScheduler(window_size=bad)


@pytest.mark.parametrize("bad", [0, -3])
def test_rejects_bad_beam_width(bad):
    with pytest.raises(ValueError):
        LookaheadScheduler(beam_width=bad)


def test_beam_width_one_is_legal():
    # degenerates to a greedy pass under the planner's cost model
    rt = _runtime(window_size=4, beam_width=1)
    cl = _codelet()
    _calibrate(rt, cl)
    h = rt.register(np.zeros(N, dtype=np.float32), "h")
    for i in range(4):
        rt.submit(cl, [(h, "rw")], name=f"t{i}")
    rt.wait_for_all()
    sched = rt.scheduler
    assert sched.n_planned_windows >= 1
    rt.shutdown()


# -- flush triggers -----------------------------------------------------------


def test_full_window_flushes_at_submit_time():
    rt = _runtime(window_size=3)
    cl = _codelet()
    h = rt.register(np.zeros(N, dtype=np.float32), "h")
    assert rt.scheduler.n_windows == 0
    rt.submit(cl, [(h, "r")], name="a")
    rt.submit(cl, [(h, "r")], name="b")
    assert rt.scheduler.n_windows == 0  # still buffering
    rt.submit(cl, [(h, "r")], name="c")
    assert rt.scheduler.n_windows == 1  # window full -> planned now
    rt.wait_for_all()
    rt.shutdown()


def test_wait_for_all_flushes_partial_window():
    rt = _runtime(window_size=16)
    cl = _codelet()
    h = rt.register(np.zeros(N, dtype=np.float32), "h")
    for i in range(5):
        rt.submit(cl, [(h, "r")], name=f"t{i}")
    assert rt.scheduler.n_windows == 0
    rt.wait_for_all()
    sched = rt.scheduler
    assert sched.n_windows == 1
    assert sched.plans[0].n_tasks == 5
    rt.shutdown()


def test_container_access_flushes_partial_window():
    # reading a smart container is a sync point: the pending window must
    # commit (and its writes land) before the host sees the data
    rt = _runtime(window_size=16)
    cl = _codelet()
    h = rt.register(np.zeros(N, dtype=np.float32), "h")
    for i in range(3):
        rt.submit(cl, [(h, "rw")], name=f"t{i}")
    assert rt.scheduler.n_windows == 0
    rt.acquire(h, "r")
    assert rt.scheduler.n_windows == 1
    rt.wait_for_all()
    rt.shutdown()


# -- calibration fallback -----------------------------------------------------


def test_uncalibrated_window_falls_back_to_dmda():
    rt = _runtime(window_size=4)
    cl = _codelet()
    h = rt.register(np.zeros(N, dtype=np.float32), "h")
    for i in range(4):
        rt.submit(cl, [(h, "rw")], name=f"t{i}")
    rt.wait_for_all()
    sched = rt.scheduler
    first = sched.plans[0]
    assert first.fallback
    assert first.planned_makespan is None
    assert first.greedy_makespan is None
    assert first.decisions == ()
    assert sched.n_fallback_windows >= 1
    assert sched.n_fallback_tasks >= 4
    rt.shutdown()


def test_history_less_codelet_never_plans():
    # performance_aware=False (the per-component useHistoryModels flag)
    # opts the codelet out of model-based placement: every window falls
    # back, no matter how much history accumulates
    blind = Codelet(
        "blind",
        [
            ImplVariant(
                "blind_cpu", Arch.CPU, lambda ctx, *a: None,
                lambda ctx, dev: 1e-4,
            ),
            ImplVariant(
                "blind_cuda", Arch.CUDA, lambda ctx, *a: None,
                lambda ctx, dev: 3e-5,
            ),
        ],
        performance_aware=False,
    )
    assert not blind.performance_aware
    rt = _runtime(window_size=4)
    h = rt.register(np.zeros(N, dtype=np.float32), "h")
    for i in range(20):
        rt.submit(blind, [(h, "rw")], name=f"t{i}")
    rt.wait_for_all()
    sched = rt.scheduler
    assert sched.n_windows == sched.n_fallback_windows > 0
    assert sched.n_planned_windows == 0
    rt.shutdown()


# -- planned windows ----------------------------------------------------------


def test_window_plan_records_committed_decisions():
    rt = _runtime(window_size=8)
    cl = _codelet()
    _calibrate(rt, cl)
    h = rt.register(np.zeros(N, dtype=np.float32), "h")
    for i in range(5):
        rt.submit(cl, [(h, "rw")], name=f"t{i}")
    rt.wait_for_all()
    sched = rt.scheduler
    plan = sched.plans[-1]
    assert isinstance(plan, WindowPlan)
    assert not plan.fallback
    assert plan.n_tasks == 5
    assert len(plan.decisions) == 5
    assert plan.planned_makespan <= plan.greedy_makespan + 1e-12
    # the committed trace executed exactly the planned placements
    by_name = {rec.name: rec for rec in rt.trace.tasks}
    for name, variant, workers in plan.decisions:
        rec = by_name[name]
        assert rec.variant == variant
        assert rec.worker_ids == workers
    rt.shutdown()


def test_task_counters_are_exhaustive():
    rt = _runtime(window_size=4)
    cl = _codelet()
    _calibrate(rt, cl)
    h = rt.register(np.zeros(N, dtype=np.float32), "h")
    for i in range(10):
        rt.submit(cl, [(h, "rw" if i % 2 else "r")], name=f"t{i}")
    rt.wait_for_all()
    sched = rt.scheduler
    total = sched.n_planned_tasks + sched.n_fallback_tasks
    assert total == rt.trace.n_tasks
    assert sum(p.n_tasks for p in sched.plans) == total
    rt.shutdown()


def test_pruning_counters_account_for_every_child():
    # every child of every beam state is either scored or skipped by the
    # makespan lower bound; on a chain the bound skips some of them
    width = 8
    rt = _runtime(window_size=8, beam_width=width)
    cl = _codelet()
    _calibrate(rt, cl)
    sched = rt.scheduler
    before = sched.n_children_evaluated + sched.n_children_pruned
    plan_window = sched.plan_window
    children = 0

    def counting_plan_window(tasks, view):
        nonlocal children
        plan_window(tasks, view)
        if sched.plans[-1].fallback:
            return
        beam = 1  # the beam keeps min(width, children) states per step
        for task in tasks:
            n = len(enumerate_candidates(task, view))
            children += beam * n
            beam = min(width, beam * n)

    h = rt.register(np.zeros(N, dtype=np.float32), "chain")
    with mock.patch.object(sched, "plan_window", counting_plan_window):
        for i in range(24):
            rt.submit(cl, [(h, "rw")], name=f"link{i}")
        rt.wait_for_all()
    assert children > 0
    assert (
        sched.n_children_evaluated + sched.n_children_pruned - before
        == children
    )
    assert sched.n_children_pruned > 0
    rt.shutdown()


# -- fusion accounting --------------------------------------------------------


def _chain_run(fusion):
    rt = _runtime(window_size=8, fusion=fusion)
    cl = _codelet(gpu=1e-6, cpu=1e-4)  # device clearly cheapest
    _calibrate(rt, cl)
    h = rt.register(np.zeros(N, dtype=np.float32), "chain")
    for i in range(8):
        rt.submit(cl, [(h, "rw")], name=f"link{i}")
    rt.wait_for_all()
    sched = rt.scheduler
    fused = sched.n_fused_edges
    rt.shutdown()
    return fused


def test_fusion_elides_chain_round_trips():
    assert _chain_run(fusion=True) > 0


def test_fusion_off_never_records_fused_edges():
    assert _chain_run(fusion=False) == 0
