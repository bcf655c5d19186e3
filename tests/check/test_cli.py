"""``python -m repro.check`` CLI: exit codes and reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.check.__main__ import main
from repro.errors import RuntimeSystemError
from repro.hw.presets import platform_c2050
from repro.runtime import Runtime
from repro.runtime.trace_export import load_trace_json, save_trace_json

from tests.conftest import make_axpy_codelet


@pytest.fixture()
def trace_file(tmp_path):
    """A saved, legal trace from a small real run."""
    rt = Runtime(platform_c2050(), scheduler="dmda", seed=0)
    cl = make_axpy_codelet()
    n = 200_000
    hy = rt.register(np.zeros(n, dtype=np.float32), "y")
    hx = rt.register(np.ones(n, dtype=np.float32), "x")
    for _ in range(5):
        rt.submit(cl, [(hy, "rw"), (hx, "r")], ctx={"n": n}, scalar_args=(1.0,))
    rt.wait_for_all()
    path = save_trace_json(rt.trace, rt.machine, tmp_path / "run.json")
    rt.shutdown()
    return path


def test_legal_trace_exits_zero(trace_file, capsys):
    assert main([str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "no invariant violations" in out


def test_corrupted_trace_exits_one_and_names_the_rule(trace_file, capsys):
    doc = json.loads(trace_file.read_text())
    # swap one task's interval: end before start
    task = doc["tasks"][0]
    task["start_time"], task["end_time"] = task["end_time"], task["start_time"]
    bad = trace_file.with_name("bad.json")
    bad.write_text(json.dumps(doc))
    assert main([str(bad)]) == 1
    err = capsys.readouterr().err
    assert "timeline.task-order" in err
    assert f"task#{task['task_id']}" in err


def test_violation_listing_is_capped(trace_file, capsys):
    doc = json.loads(trace_file.read_text())
    for task in doc["tasks"]:
        task["start_time"], task["end_time"] = (
            task["end_time"],
            task["start_time"],
        )
    bad = trace_file.with_name("bad.json")
    bad.write_text(json.dumps(doc))
    assert main([str(bad), "--max-violations", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("timeline.task-order") == 2
    assert "more" in err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope.json")]) == 2
    assert "unreadable" in capsys.readouterr().err


def test_foreign_document_exits_two(tmp_path, capsys):
    chrome = tmp_path / "chrome.json"
    chrome.write_text(json.dumps({"traceEvents": []}))
    assert main([str(chrome)]) == 2
    assert "unreadable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", ['["a"]', '{"format": "repro-trace", "version"'],
    ids=["list-valued", "truncated"],
)
def test_malformed_json_exits_two(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    assert main([str(bad)]) == 2
    assert "unreadable" in capsys.readouterr().err


def test_loaders_raise_typed_errors_on_malformed_json(tmp_path):
    listed = tmp_path / "listed.json"
    listed.write_text('["a"]')
    with pytest.raises(RuntimeSystemError, match="not a repro trace"):
        load_trace_json(listed)
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"format": "repro-trace", "version"')
    with pytest.raises(RuntimeSystemError, match="truncated.json"):
        load_trace_json(truncated)


def test_cli_process_reports_malformed_input_without_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('["a"]')
    proc = subprocess.run(
        [sys.executable, "-m", "repro.check", str(bad)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unreadable trace" in proc.stderr


def test_multiple_traces_one_bad_exits_one(trace_file, capsys):
    doc = json.loads(trace_file.read_text())
    doc["n_submitted"] += 1
    bad = trace_file.with_name("bad.json")
    bad.write_text(json.dumps(doc))
    assert main([str(trace_file), str(bad)]) == 1
    captured = capsys.readouterr()
    assert "OK" in captured.out  # the good trace still reports success
    assert "conservation.tasks" in captured.err
