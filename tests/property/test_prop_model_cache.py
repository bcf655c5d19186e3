"""Property test: the engine's cached model pricing equals the model.

``Engine.calibrated_estimates`` prices a task's candidates from the
task's shared footprint entry (live ``RunningStats`` references,
refreshed when ``HistoryModel.version`` moves).  Under any interleaving
of records, merges and warm loads it must agree with the plain
per-variant queries ``PerfModel.calibrated`` / ``PerfModel.predict``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant
from repro.runtime.access import AccessMode
from repro.runtime.engine import Engine
from repro.runtime.perfmodel import PerfModel
from repro.runtime.schedulers.base import enumerate_candidates
from repro.runtime.schedulers.dmda import DmdaScheduler
from repro.runtime.task import Operand, Task

#: operand element counts; pairs share a log2 bucket (one footprint,
#: different exact sizes), the rest span enough range for regression fits
_ELEMS = (16, 24, 256, 1024, 1500, 8192)
_VARIANTS = ("k_cpu", "k_cuda")

_N_TASKS = len(_ELEMS) * 2  # every size, once per codelet (full / restricted)

_record = st.tuples(
    st.just("record"),
    st.integers(0, len(_ELEMS) - 1),
    st.sampled_from(_VARIANTS),
    st.floats(1e-6, 1e-3),
)
#: (size index, variant, duration) observations of another model
_entries = st.lists(
    st.tuples(
        st.integers(0, len(_ELEMS) - 1),
        st.sampled_from(_VARIANTS),
        st.floats(1e-6, 1e-3),
    ),
    max_size=6,
)
#: a model that learned elsewhere, folded in as-is ("merge") or after a
#: round trip through its persisted form ("warm", as the tuning store
#: loads one); the integer repeats every observation
_merge = st.tuples(st.sampled_from(("merge", "warm")), _entries, st.integers(1, 5))
_query = st.tuples(
    st.just("query"), st.integers(0, _N_TASKS - 1), st.sampled_from((1, 2, 4))
)
_ops = st.lists(st.one_of(_record, _merge, _query, _query), max_size=40)


def _codelets() -> tuple[Codelet, Codelet]:
    full = Codelet(
        "k",
        [
            ImplVariant("k_cpu", Arch.CPU, lambda ctx, *a: None, lambda ctx, d: 1e-5),
            ImplVariant("k_cuda", Arch.CUDA, lambda ctx, *a: None, lambda ctx, d: 1e-6),
        ],
    )
    return full, full.restricted(["k_cpu"])


def _other_model(hms: int, entries, copies: int) -> PerfModel:
    other = PerfModel(history_min_samples=hms)
    for i, var, dur in entries:
        nbytes = _ELEMS[i] * 4
        fp = ("k", (nbytes.bit_length(),), ())
        for _ in range(copies):
            other.record(fp, var, float(nbytes), dur)
    return other


def _check(engine: Engine, task: Task, min_history: int) -> None:
    decisions = enumerate_candidates(task, engine)
    got = engine.calibrated_estimates(task, decisions, min_history)
    perf = engine.perf
    fp = task.footprint()
    size = float(task.operand_bytes())
    calibrated = [
        perf.calibrated(fp, d.variant.name, size, min_history) for d in decisions
    ]
    if not all(calibrated):
        assert got is None
    else:
        assert got == [perf.predict(fp, d.variant.name, size) for d in decisions]


@given(
    hms=st.sampled_from((1, 3)),
    ops=_ops,
    final_min_history=st.sampled_from((1, 2, 4)),
)
@settings(max_examples=120, deadline=None)
def test_calibrated_estimates_match_model_queries(hms, ops, final_min_history):
    engine = Engine(
        platform_c2050(),
        DmdaScheduler(),
        perfmodel=PerfModel(history_min_samples=hms),
        run_kernels=False,
    )
    full, restricted = _codelets()
    handles = [
        engine.register(np.zeros(n, dtype=np.float32), f"h{n}") for n in _ELEMS
    ]
    # one task per (codelet, size); the restricted copy shares variant
    # names and footprints with the full codelet
    tasks = [
        Task(codelet, [Operand(h, AccessMode.R)])
        for codelet in (full, restricted)
        for h in handles
    ]
    perf = engine.perf
    for op in ops:
        kind = op[0]
        if kind == "record":
            _, i, var, dur = op
            task = tasks[i]
            perf.record(task.footprint(), var, float(task.operand_bytes()), dur)
        elif kind == "merge":
            perf.merge_from(_other_model(hms, op[1], op[2]))
        elif kind == "warm":
            other = _other_model(hms, op[1], op[2])
            perf.merge_from(PerfModel.from_dict(other.to_dict()))
        else:
            _check(engine, tasks[op[1]], op[2])
    for task in tasks:
        _check(engine, task, final_min_history)


def test_calibrated_estimates_regression_only():
    """Sizes never recorded are priced by the fit, never by the cache."""
    engine = Engine(platform_c2050(), DmdaScheduler(), run_kernels=False)
    full, _ = _codelets()
    perf = engine.perf
    for n in (16, 256, 1024, 8192):
        fp = ("k", ((n * 4).bit_length(),), ())
        for var in _VARIANTS:
            perf.record(fp, var, float(n * 4), 1e-9 * n)
    h = engine.register(np.zeros(100, dtype=np.float32), "unseen")
    task = Task(full, [Operand(h, AccessMode.R)])
    decisions = enumerate_candidates(task, engine)
    got = engine.calibrated_estimates(task, decisions, 2)
    assert got is not None
    assert got == [perf.predict(task.footprint(), d.variant.name, 400.0) for d in decisions]
    assert got[0] == perf.regression.predict(decisions[0].variant.name, 400.0)
