"""The one command-line harness behind ``python -m repro.experiments.<name>``.

Every study CLI has the same shape: parse the flags (:func:`parse`), run
the study at its smoke or full size, then hand the result to
:func:`report`, which owns the outputs and the exit status:

- ``--smoke`` runs the CI-sized configuration under the same gates;
- ``--outdir`` (default ``benchmarks/results/``) receives one
  ``<stem>.txt`` per printed table and ``BENCH_<bench>.json``, written
  as ``{"smoke": ..., **doc}``;
- studies built with ``check=True`` also take ``--check`` (implied by
  ``--smoke``), which turns on shutdown-time trace validation for every
  runtime the study builds afterwards;
- the exit status is 0 when the study's gates held, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.check.config import set_default_check

#: where tables and ``BENCH_*.json`` land unless ``--outdir`` says otherwise
RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def parse(
    name: str,
    description: str,
    argv: Sequence[str] | None,
    *,
    check: bool = False,
    extra: Mapping[str, dict] | None = None,
) -> argparse.Namespace:
    """Parse the flags of study ``name``; ``extra`` maps each further
    flag to its ``add_argument`` keywords."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments.{name}", description=description
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run under the same gates",
    )
    if check:
        parser.add_argument(
            "--check",
            action="store_true",
            help="validate every run's trace at shutdown (implied by --smoke)",
        )
    parser.add_argument(
        "--outdir",
        type=Path,
        default=RESULTS_DIR,
        help=f"where tables and BENCH_*.json land (default {RESULTS_DIR})",
    )
    for flag, options in (extra or {}).items():
        parser.add_argument(flag, **options)
    args = parser.parse_args(argv)
    if check and (args.check or args.smoke):
        args.check = True
        set_default_check(True)
    return args


def report(
    args: argparse.Namespace,
    bench: str,
    doc: Mapping[str, object],
    ok: bool,
    tables: Mapping[str, str],
) -> int:
    """Print and write each table, write ``BENCH_<bench>.json``; return
    the exit status (0 iff ``ok``)."""
    args.outdir.mkdir(parents=True, exist_ok=True)
    for stem, text in tables.items():
        (args.outdir / f"{stem}.txt").write_text(text + "\n")
        print(text, end="\n\n")
    path = args.outdir / f"BENCH_{bench}.json"
    path.write_text(json.dumps({"smoke": args.smoke, **doc}, indent=1) + "\n")
    print(f"wrote {path}")
    if not ok:
        print(f"FAILED: a gate of {bench} did not hold; see {path}")
    return 0 if ok else 1
