"""Measured provenance in PerfModel, the store, and calibration."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps import sgemm
from repro.components.context import ContextInstance
from repro.errors import RuntimeSystemError
from repro.hw.presets import platform_c2050
from repro.runtime.perfmodel import PerfModel
from repro.tuning.calibrate import calibrate_component
from repro.tuning.store import PerfModelStore

FP = ("axpy", 1024)


def test_record_provenances_are_separate_populations():
    m = PerfModel()
    m.record(FP, "v", 100.0, 1e-3)  # analytical default
    m.record(FP, "v", 100.0, 5e-2, provenance="measured")
    assert m.n_samples(FP, "v") == 1
    assert m.n_samples(FP, "v", provenance="measured") == 1
    assert m.predict(FP, "v", 100.0) == pytest.approx(1e-3)
    assert m.predict(FP, "v", 100.0, provenance="measured") == pytest.approx(5e-2)
    assert m.measured_variants() == {"v"}


def test_unknown_provenance_raises():
    m = PerfModel()
    with pytest.raises(RuntimeSystemError, match="provenance"):
        m.record(FP, "v", 100.0, 1e-3, provenance="vibes")
    with pytest.raises(RuntimeSystemError, match="provenance"):
        m.predict(FP, "v", 100.0, provenance="vibes")


def test_round_trip_preserves_measured_tables():
    m = PerfModel()
    for s in (64.0, 128.0, 256.0, 512.0):
        m.record(FP, "v", s, s * 1e-5)
        m.record(FP, "v", s, s * 1e-3, provenance="measured")
    loaded = PerfModel.from_dict(json.loads(json.dumps(m.to_dict())))
    assert loaded.n_samples(FP, "v", provenance="measured") == 4
    assert loaded.predict(
        FP, "v", 128.0, provenance="measured"
    ) == pytest.approx(m.predict(FP, "v", 128.0, provenance="measured"))


def test_to_dict_omits_measured_keys_when_empty():
    m = PerfModel()
    m.record(FP, "v", 100.0, 1e-3)
    d = m.to_dict()
    assert "measured_history" not in d
    assert "measured_regression" not in d


def test_merge_from_carries_measured_samples():
    a, b = PerfModel(), PerfModel()
    b.record(FP, "v", 100.0, 2e-2, provenance="measured")
    a.merge_from(b)
    assert a.n_samples(FP, "v", provenance="measured") == 1


def test_subset_for_codelets_keeps_measured_only_variants():
    m = PerfModel()
    m.record(("axpy", 64), "axpy_cpu", 64.0, 1e-2, provenance="measured")
    m.record(("gemm", 64), "gemm_cpu", 64.0, 1e-2)
    sub = m.subset_for_codelets({"axpy"})
    assert sub.measured_variants() == {"axpy_cpu"}
    assert sub.n_samples(("gemm", 64), "gemm_cpu") == 0


def test_store_round_trips_measured_tables(tmp_path):
    store = PerfModelStore(tmp_path)
    machine = platform_c2050()
    m = PerfModel()
    m.record(("axpy", 64), "axpy_cpu", 64.0, 1e-2, provenance="measured")
    m.record(("axpy", 64), "axpy_cpu", 64.0, 1e-3)
    store.save(machine, m)
    warm = store.warm_model(machine)
    assert warm.n_samples(("axpy", 64), "axpy_cpu", provenance="measured") == 1


def test_calibrate_component_with_thread_backend_collects_measured():
    ladder = [
        ContextInstance({"m": 24, "n": 24, "k": 24}),
        ContextInstance({"m": 48, "n": 48, "k": 48}),
    ]
    report = calibrate_component(
        sgemm.INTERFACE,
        sgemm.IMPLEMENTATIONS,
        platform_c2050,
        sgemm.training_operands,
        ladder=ladder,
        repetitions=1,
        exec_backend="thread",  # implies run_kernels=True
    )
    assert report.exec_backend == "thread"
    measured = {
        name: vc.measured_runs for name, vc in report.variants.items()
    }
    assert sum(measured.values()) > 0, measured
    assert report.model.measured_variants()
    prov = report.provenance()
    assert prov["exec_backend"] == "thread"
    assert any(
        v["measured_runs"] > 0 for v in prov["variants"].values()
    )


def test_calibrate_component_inline_reports_no_measured():
    ladder = [ContextInstance({"m": 24, "n": 24, "k": 24})]
    report = calibrate_component(
        sgemm.INTERFACE,
        sgemm.IMPLEMENTATIONS,
        platform_c2050,
        sgemm.training_operands,
        ladder=ladder,
        repetitions=1,
    )
    assert report.exec_backend == ""
    assert all(vc.measured_runs == 0 for vc in report.variants.values())
