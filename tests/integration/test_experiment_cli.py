"""The shared experiment CLI runner and the nine study CLIs built on it."""

from __future__ import annotations

import importlib
import json
import re

import pytest

from repro.check import config
from repro.experiments import runner


@pytest.fixture(autouse=True)
def check_off(monkeypatch):
    """Start each test with trace checking off; restore the previous
    process default afterwards (``--check`` sets it process-wide)."""
    monkeypatch.setattr(config, "_default", None)
    monkeypatch.delenv("REPRO_CHECK", raising=False)


def fake_main(argv, ok=True, check=True):
    args = runner.parse(
        "fake",
        "a study that only reports",
        argv,
        check=check,
        extra={"--n": dict(type=int, default=3)},
    )
    doc = {"n": args.n, "checked": config.default_check()}
    return runner.report(args, "fake", doc, ok, {"fake_a": "A", "fake_b": "B"})


def test_report_writes_tables_and_bench_with_smoke_first(tmp_path, capsys):
    rc = fake_main(["--outdir", str(tmp_path), "--n", "5"])
    assert rc == 0
    assert (tmp_path / "fake_a.txt").read_text() == "A\n"
    assert (tmp_path / "fake_b.txt").read_text() == "B\n"
    text = (tmp_path / "BENCH_fake.json").read_text()
    assert list(json.loads(text)) == ["smoke", "n", "checked"]
    assert json.loads(text) == {"smoke": False, "n": 5, "checked": False}
    out = capsys.readouterr().out
    assert out.index("A") < out.index("B") < out.index("wrote")


def test_exit_status_follows_ok(tmp_path, capsys):
    assert fake_main(["--outdir", str(tmp_path)], ok=False) == 1
    # the evidence is written even when a gate fails
    assert (tmp_path / "BENCH_fake.json").exists()
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--check"], ["--smoke"]])
def test_check_and_smoke_turn_on_default_checking(tmp_path, argv):
    fake_main([*argv, "--outdir", str(tmp_path)])
    doc = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert doc["checked"] is True
    assert doc["smoke"] is (argv == ["--smoke"])


def test_smoke_without_check_flag_leaves_checking_off(tmp_path):
    fake_main(["--smoke", "--outdir", str(tmp_path)], check=False)
    doc = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert doc == {"smoke": True, "n": 3, "checked": False}
    with pytest.raises(SystemExit):
        fake_main(["--check"], check=False)


#: every study CLI's flags, as they were before the runner existed, plus
#: ``--outdir`` on ``faults``
CLI_FLAGS = {
    "backends": {"--smoke", "--outdir"},
    "cluster": {"--smoke", "--outdir"},
    "devices": {"--smoke", "--outdir"},
    "engine_bench": {"--smoke", "--outdir", "--profile"},
    "faults": {"--smoke", "--check", "--outdir", "--app", "--seed"},
    "overhead": {"--smoke", "--outdir"},
    "planner": {"--smoke", "--outdir"},
    "serving": {"--smoke", "--check", "--outdir"},
    "tuning": {"--smoke", "--check", "--outdir", "--store"},
}


@pytest.mark.parametrize("name", sorted(CLI_FLAGS))
def test_cli_help_lists_exactly_its_flags(name, capsys):
    module = importlib.import_module(f"repro.experiments.{name}")
    with pytest.raises(SystemExit) as exc:
        module.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    usage = out.split("\n\n")[0]
    assert usage.startswith(f"usage: python -m repro.experiments.{name}")
    assert set(re.findall(r"\[(--[\w-]+)", usage)) == CLI_FLAGS[name]
    assert config._default is None  # --help parses only, runs nothing
