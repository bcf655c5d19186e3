"""Decision recording and deterministic replay."""


import numpy as np
import pytest

from repro.check.replay import (
    DecisionLog,
    DecisionRecord,
    assert_traces_identical,
    record_and_replay,
)
from repro.errors import ReplayDivergence
from repro.hw.presets import platform_c2050
from repro.runtime import Runtime

from tests.conftest import make_axpy_codelet

N = 200_000



def replace(rec, **changes):
    """Records are slotted now (no dataclasses.replace); forward to the
    blessed per-record replace()."""
    return rec.replace(**changes)


def _workload(n_tasks=6):
    """A run function for record_and_replay: n_tasks axpy submissions."""

    def run(rt):
        cl = make_axpy_codelet()
        hy = rt.register(np.zeros(N, dtype=np.float32), "y")
        hx = rt.register(np.ones(N, dtype=np.float32), "x")
        for _ in range(n_tasks):
            rt.submit(
                cl, [(hy, "rw"), (hx, "r")], ctx={"n": N}, scalar_args=(1.0,)
            )
        rt.wait_for_all()

    return run


# -- record + replay round trip ----------------------------------------------


@pytest.mark.parametrize("scheduler", ["eager", "dmda", "ws"])
def test_record_and_replay_reproduces_trace(scheduler):
    recorded, replayed, log = record_and_replay(
        _workload(), machine_factory=platform_c2050, scheduler=scheduler,
        seed=3,
    )
    assert len(log) == 6
    assert recorded.n_tasks == replayed.n_tasks == 6
    # helper already asserted identity; spot-check the strongest bits
    assert recorded.makespan == replayed.makespan
    assert [r.variant for r in recorded.tasks] == [
        r.variant for r in replayed.tasks
    ]


def test_record_and_replay_reproduces_lookahead_plans():
    """Planner decisions replay byte-identically, window flushes included.

    ``record_and_replay`` carries the recorded scheduler's bulk window
    size into the replay scheduler, so the engine buffers and flushes
    tasks at exactly the recorded boundaries — event-heap tie-breaking
    and transfer interleaving then reproduce exactly.
    """
    recorded, replayed, log = record_and_replay(
        _workload(36),
        machine_factory=platform_c2050,
        scheduler="lookahead",
        scheduler_options={"window_size": 8},
        seed=5,
    )
    assert len(log) == 36
    assert recorded.n_tasks == replayed.n_tasks == 36
    # helper already ran assert_traces_identical; pin the strongest bits
    assert recorded.makespan == replayed.makespan
    assert [
        (r.variant, r.worker_ids, r.start_time, r.end_time)
        for r in recorded.tasks
    ] == [
        (r.variant, r.worker_ids, r.start_time, r.end_time)
        for r in replayed.tasks
    ]


def test_record_and_replay_rejects_conflicting_machine_args():
    with pytest.raises(TypeError):
        record_and_replay(
            _workload(),
            machine_factory=platform_c2050,
            machine=platform_c2050(),
        )


def test_runtime_record_flag_exposes_decision_log():
    rt = Runtime(platform_c2050(), scheduler="eager", seed=0, record=True)
    _workload(4)(rt)
    rt.shutdown()
    assert rt.decision_log is not None
    assert len(rt.decision_log) == 4
    entry = rt.decision_log.entries[0]
    assert entry.codelet == "axpy"
    assert entry.variant.startswith("axpy_")
    assert entry.worker_ids


def test_runtime_without_record_has_no_log():
    rt = Runtime(platform_c2050(), scheduler="eager", seed=0)
    assert rt.decision_log is None
    rt.shutdown()


# -- log serialization --------------------------------------------------------


def test_decision_log_json_round_trip(tmp_path):
    log = DecisionLog(
        [
            DecisionRecord("axpy", "axpy_cuda", (4,)),
            DecisionRecord("axpy", "axpy_openmp", (0, 1, 2, 3)),
        ]
    )
    path = log.save(tmp_path / "decisions.json")
    loaded = DecisionLog.load(path)
    assert loaded.entries == log.entries
    assert isinstance(loaded.entries[1].worker_ids, tuple)


def test_decision_log_rejects_foreign_documents():
    with pytest.raises(ReplayDivergence) as excinfo:
        DecisionLog.from_jsonable({"decisions": []})
    assert excinfo.value.rule == "replay.log-format"


@pytest.mark.parametrize(
    "content, match",
    [('["a"]', "missing format marker"), ('{"format": "repro-', "log.json")],
    ids=["list-valued", "truncated"],
)
def test_decision_log_load_rejects_malformed_json(tmp_path, content, match):
    path = tmp_path / "log.json"
    path.write_text(content)
    with pytest.raises(ReplayDivergence, match=match) as excinfo:
        DecisionLog.load(path)
    assert excinfo.value.rule == "replay.log-format"


def test_decision_log_rejects_future_versions():
    doc = DecisionLog().to_jsonable()
    doc["version"] = 99
    with pytest.raises(ReplayDivergence) as excinfo:
        DecisionLog.from_jsonable(doc)
    assert excinfo.value.rule == "replay.log-version"


# -- divergence detection -----------------------------------------------------


def _replay_runtime(entries, seed=0):
    return Runtime(
        platform_c2050(),
        scheduler="replay",
        scheduler_options={"log": DecisionLog(entries)},
        seed=seed,
    )


def _submit_one(rt):
    cl = make_axpy_codelet()
    hy = rt.register(np.zeros(N, dtype=np.float32), "y")
    hx = rt.register(np.ones(N, dtype=np.float32), "x")
    rt.submit(cl, [(hy, "rw"), (hx, "r")], ctx={"n": N}, scalar_args=(1.0,))
    rt.wait_for_all()


@pytest.mark.parametrize(
    "entries, rule",
    [
        ([], "replay.log-exhausted"),
        ([DecisionRecord("sgemm", "sgemm_cpu", (0,))], "replay.codelet-mismatch"),
        ([DecisionRecord("axpy", "axpy_fpga", (0,))], "replay.unknown-variant"),
        ([DecisionRecord("axpy", "axpy_cpu", (999,))], "replay.unknown-worker"),
    ],
)


def test_replay_divergence_is_loud(entries, rule):
    rt = _replay_runtime(entries)
    with pytest.raises(ReplayDivergence) as excinfo:
        _submit_one(rt)
    assert excinfo.value.rule == rule


def test_replay_scheduler_follows_log_verbatim():
    # record an eager run, then replay its log entry-for-entry
    rt = Runtime(platform_c2050(), scheduler="dmda", seed=7, record=True)
    _workload(5)(rt)
    rt.shutdown()
    # same seed: the replayed run draws identical timing noise
    rt2 = _replay_runtime(rt.decision_log.entries, seed=7)
    _workload(5)(rt2)
    rt2.shutdown()
    assert_traces_identical(rt.trace, rt2.trace)


def test_assert_traces_identical_flags_any_difference():
    recorded, replayed, _log = record_and_replay(
        _workload(3), machine_factory=platform_c2050, scheduler="eager",
    )
    rec = replayed.tasks[0]
    replayed.tasks[0] = replace(rec, end_time=rec.end_time + 1.0)
    with pytest.raises(ReplayDivergence) as excinfo:
        assert_traces_identical(recorded, replayed)
    assert excinfo.value.rule == "replay.trace-mismatch"
    assert "end_time" in str(excinfo.value)


def test_exploration_counters_may_differ():
    recorded, replayed, _log = record_and_replay(
        _workload(3), machine_factory=platform_c2050, scheduler="dmda",
    )
    # a replayed dmda run never explores; identity must still hold
    assert replayed.n_exploration_decisions == 0
