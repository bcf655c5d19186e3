"""Persistent per-machine perf-model store: round-trips, staleness, merging."""

import json

import pytest

from repro import Session
from repro.errors import StaleModelError
from repro.hw.presets import cpu_only, platform_c2050
from repro.runtime.perfmodel import PerfModel
from repro.tuning import PerfModelStore, machine_fingerprint


def _model(codelet="axpy", variant="axpy_cpu", base=1e-9):
    model = PerfModel()
    for size in (1e3, 1e4, 1e5, 1e6):
        model.record((codelet, (int(size),)), variant, size, base * size)
    return model


def test_cold_machine_loads_none_and_warm_model_is_empty(tmp_path):
    store = PerfModelStore(tmp_path)
    machine = platform_c2050()
    assert store.load(machine) is None
    warm = store.warm_model(machine)
    assert warm.codelets() == set()
    assert not store.has(machine)


def test_roundtrip_identical_predictions_across_processes(tmp_path):
    machine = platform_c2050()
    model = _model()
    PerfModelStore(tmp_path).save(machine, model)
    # a fresh store object with a fresh machine build = a new process
    loaded = PerfModelStore(tmp_path).load(platform_c2050())
    fp = ("axpy", (1000,))
    assert loaded.predict(fp, "axpy_cpu", 1e3) == pytest.approx(
        model.predict(fp, "axpy_cpu", 1e3)
    )
    # regression predictions for unseen sizes round-trip exactly too
    assert loaded.predict(("axpy", (777,)), "axpy_cpu", 5e7) == pytest.approx(
        model.predict(("axpy", (777,)), "axpy_cpu", 5e7)
    )
    assert loaded.codelets() == {"axpy"}


def test_fingerprint_tracks_description_not_name():
    a, b = platform_c2050(), platform_c2050()
    assert machine_fingerprint(a) == machine_fingerprint(b)
    c = platform_c2050(n_cpu_cores=7)
    assert a.name == c.name  # same preset name...
    assert machine_fingerprint(a) != machine_fingerprint(c)  # ...new fabric


def test_changed_machine_description_raises_stale(tmp_path):
    store = PerfModelStore(tmp_path)
    store.save(platform_c2050(), _model())
    changed = platform_c2050(n_cpu_cores=7)  # same name, new description
    with pytest.raises(StaleModelError):
        store.load(changed)
    with pytest.raises(StaleModelError):
        store.warm_model(changed)


def test_changed_format_version_raises_stale(tmp_path):
    store = PerfModelStore(tmp_path)
    machine = platform_c2050()
    path = store.save(machine, _model())
    payload = json.loads(path.read_text())
    payload["format_version"] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(StaleModelError):
        store.load(machine)


@pytest.mark.parametrize(
    "corrupt, why",
    [
        (lambda text: text[: len(text) // 2], "not valid JSON"),
        (lambda text: "[1, 2, 3]", "JSON list"),
    ],
    ids=["truncated", "list-valued"],
)
def test_malformed_store_file_raises_stale_naming_path(tmp_path, corrupt, why):
    store = PerfModelStore(tmp_path)
    machine = platform_c2050()
    path = store.save(machine, _model())
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(StaleModelError, match=why) as err:
        store.load(machine)
    assert str(path) in str(err.value)
    assert "delete the file or recalibrate" in str(err.value)
    with pytest.raises(StaleModelError, match=why):
        Session("c2050", store=tmp_path, run_kernels=False)
    # recovery: saving fresh measurements replaces the broken entry
    store.save(machine, _model())
    assert store.load(machine).codelets() == {"axpy"}


def test_save_replaces_stale_entry_outright(tmp_path):
    store = PerfModelStore(tmp_path)
    store.save(platform_c2050(), _model(base=1e-9))
    changed = platform_c2050(n_cpu_cores=7)
    store.save(changed, _model(base=5e-9))  # recalibration repairs staleness
    loaded = store.load(changed)  # no StaleModelError anymore
    assert loaded.predict(("axpy", (1000,)), "axpy_cpu", 1e3) == pytest.approx(
        5e-9 * 1e3
    )
    with pytest.raises(StaleModelError):
        store.load(platform_c2050())  # the old description is now the stale one


def test_merge_on_save_keeps_other_codelets(tmp_path):
    machine = platform_c2050()
    PerfModelStore(tmp_path).save(machine, _model("axpy", "axpy_cpu"))
    PerfModelStore(tmp_path).save(machine, _model("gemm", "gemm_cpu"))
    loaded = PerfModelStore(tmp_path).load(platform_c2050())
    assert loaded.codelets() == {"axpy", "gemm"}
    # selective loading by codelet
    only = PerfModelStore(tmp_path).load(platform_c2050(), codelets=["gemm"])
    assert only.codelets() == {"gemm"}


def test_merge_on_save_larger_history_wins(tmp_path):
    machine = platform_c2050()
    store = PerfModelStore(tmp_path)
    fp = ("axpy", (10,))
    first = PerfModel()
    for t in (1.0, 2.0, 3.0):
        first.record(fp, "axpy_cpu", 1e4, t)
    store.save(machine, first)
    second = PerfModel()  # fewer samples for the shared key: must lose
    second.record(fp, "axpy_cpu", 1e4, 99.0)
    store.save(machine, second)
    loaded = store.load(machine)
    assert loaded.n_samples(fp, "axpy_cpu") == 3
    assert loaded.predict(fp, "axpy_cpu", 1e4) == pytest.approx(2.0)


def test_provenance_recorded_and_preserved(tmp_path):
    machine = platform_c2050()
    store = PerfModelStore(tmp_path)
    store.save(machine, _model(), provenance={"axpy": {"driver": "test"}})
    assert store.provenance(machine)["axpy"] == {"driver": "test"}
    # a later save without provenance keeps the recorded one
    store.save(machine, _model())
    assert store.provenance(machine)["axpy"] == {"driver": "test"}


def test_atomic_save_leaves_no_temp_files(tmp_path):
    store = PerfModelStore(tmp_path)
    machine = platform_c2050()
    store.save(machine, _model())
    store.save(machine, _model())
    assert len(list(tmp_path.iterdir())) == 1
    assert not list(tmp_path.glob("*.tmp"))


def test_interrupted_save_keeps_old_file(tmp_path, monkeypatch):
    import repro.tuning.store as store_mod

    store = PerfModelStore(tmp_path)
    machine = platform_c2050()
    path = store.save(machine, _model(base=1e-9))
    before = path.read_text()

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(store_mod.os, "replace", broken_replace)
    with pytest.raises(OSError):
        store.save(machine, _model(base=5e-9))
    # the old entry survives untouched and no temp file is left behind
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_invalidate_and_machines(tmp_path):
    store = PerfModelStore(tmp_path)
    gpu, cpu = platform_c2050(), cpu_only(4)
    store.save(gpu, _model())
    store.save(cpu, _model())
    assert sorted(store.machines()) == sorted([gpu.name, cpu.name])
    assert store.invalidate(gpu)
    assert not store.invalidate(gpu)  # already gone
    assert store.machines() == [cpu.name]
    # unreadable or non-object entries are skipped, not raised
    (tmp_path / "broken.json").write_text('{"machine": ')
    (tmp_path / "listed.json").write_text('["not", "an", "entry"]')
    assert store.machines() == [cpu.name]


def test_dispatch_table_roundtrip(tmp_path):
    from repro.components.context import ContextInstance
    from repro.composer.static_comp import DispatchEntry, DispatchTable

    machine = platform_c2050()
    store = PerfModelStore(tmp_path)
    table = DispatchTable(interface_name="axpy")
    table.entries.append(
        DispatchEntry(
            scenario=ContextInstance({"n": 1024}),
            variant="axpy_cuda",
            predicted_time=1e-4,
            all_predictions=(("axpy_cuda", 1e-4), ("axpy_cpu", 3e-4)),
        )
    )
    store.save_dispatch_table(machine, table)
    loaded = store.load_dispatch_table(platform_c2050(), "axpy")
    assert loaded.winners() == {"axpy_cuda"}
    assert loaded.lookup({"n": 900}) == "axpy_cuda"
    assert loaded.entries[0].all_predictions == table.entries[0].all_predictions
    assert store.load_dispatch_table(machine, "unknown") is None
    # saving a model afterwards must not drop the stored table
    store.save(machine, _model())
    assert store.load_dispatch_table(machine, "axpy") is not None
