"""Engine throughput benchmark: submit → schedule → complete tasks/sec.

The discrete-event core is the hot path under every experiment and the
serving layer, so its wall-clock throughput is a regression budget worth
gating.  Two synthetic workloads bracket the dependency spectrum:

- **fan-out** — independent tasks spread over a handful of handles;
  pure submit/schedule/complete cost, no dependency chains;
- **chain** — every task read-writes one handle, so each submission
  walks the sequential-consistency dependency inference and the ready
  propagation at completion;
- **lookahead** — the same engine under the ``lookahead`` planner: each
  task reads one handle and read-writes another, so every 16-task window
  mixes fan-out and chains that the beam search must plan jointly.  It
  has its own, lower floor (:data:`LOOKAHEAD_FLOOR`);
- **dmda** — the paper's default policy on a warm model: each task
  reads one handle whose size lies below or above the CPU/GPU
  crossover, so the model prices both variants on every choice.  Its
  floor is :data:`DMDA_FLOOR`.

Kernels are skipped (``run_kernels=False``) and noise is off: this
measures the *engine*, not NumPy.

Methodology: each workload runs once untimed to warm caches (imports,
code objects, the scheduler's candidate plan), then ``reps`` timed
repetitions with the garbage collector paused around the timed region;
the *best* repetition is the reported rate.  Best-of-N over a warmed
process is the standard defense against noisy shared hardware (CI
runners, laptops under load): interference only ever makes a rep
slower, so the minimum wall time is the most repeatable estimator of
what the engine can actually sustain.

``python -m repro.experiments.engine_bench`` writes
``benchmarks/results/BENCH_engine.json`` and exits non-zero when any
workload falls under its throughput floor (``--smoke`` uses smaller
task counts for CI).  ``--profile`` additionally cProfiles one untimed
repetition per workload, writes the top functions to
``BENCH_engine_profile.txt``, and fails if a known-cold function — the
zero-subscriber event emitters, which the want-gates must skip — shows
up among the hottest frames.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.experiments import runner
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

#: throughput floor (tasks/second, wall clock, best warmed rep).  The
#: slotted-trace / batched-dispatch engine sustains ~50-70k tasks/s on
#: both workloads on a single modern core; the floor sits >3x below
#: that so only a genuine algorithmic regression (accidental O(n^2) in
#: submit or completion, a de-optimized hot path) trips it on noisy
#: shared CI hardware, while the pre-refactor engine (~11-13k tasks/s)
#: would no longer pass.
THROUGHPUT_FLOOR = 15000.0

#: floor of the ``lookahead`` workload (same units).  Window planning
#: runs a beam search per task (beam 8 x 4 candidates on c2050); the
#: copy-on-write planner sustains ~4.8-6k tasks/s on a 2-vCPU Xeon host
#: (best warmed rep, smoke size).  The floor sits >3x below that, so
#: only an accidental blow-up of the per-beam-step cost (deep-copying
#: states, re-deriving task invariants per candidate) trips it.
LOOKAHEAD_FLOOR = 1500.0

#: handles of the ``lookahead`` workload; also its number of untimed
#: calibration tasks
LOOKAHEAD_HANDLES = 8

#: floor of the ``dmda`` workload (same units).  Pricing every candidate
#: from the task's resolved model entry sustains ~35-46k tasks/s on a
#: 2-vCPU Xeon host (best warmed rep, smoke size; ~24k when every
#: candidate made its own model queries).  The floor sits >3x below, so
#: only a per-task blow-up trips it: e.g. choices priced by regression
#: fits that are refit after every record (~7-10k tasks/s when the
#: warm-up left variants without history).
DMDA_FLOOR = 10000.0

#: operand element counts of the ``dmda`` workload, spanning the
#: crossover of its CPU (2 ns/element) and CUDA (20 us launch +
#: 10 ps/element) variants at ~10k elements
DMDA_SIZES = (512, 2048, 8192, 32768, 131072)

#: per-workload throughput floors
FLOORS = {
    "fanout": THROUGHPUT_FLOOR,
    "chain": THROUGHPUT_FLOOR,
    "lookahead": LOOKAHEAD_FLOOR,
    "dmda": DMDA_FLOOR,
}

#: timed repetitions per workload (best is reported); the smoke run
#: uses fewer to keep CI latency down
DEFAULT_REPS = 5
SMOKE_REPS = 3


@dataclass(frozen=True)
class WorkloadResult:
    workload: str
    n_tasks: int
    wall_s: float
    reps: int = 1
    rates: tuple[float, ...] = ()

    @property
    def tasks_per_s(self) -> float:
        return self.n_tasks / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def floor(self) -> float:
        return FLOORS[self.workload]

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "n_tasks": self.n_tasks,
            "wall_s": self.wall_s,
            "tasks_per_s": self.tasks_per_s,
            "floor_tasks_per_s": self.floor,
            "reps": self.reps,
            "rates": list(self.rates),
        }


def _bench_codelet() -> Codelet:
    return Codelet(
        "bench",
        [
            ImplVariant(
                "bench_cpu", Arch.CPU, lambda ctx, *a: None, lambda ctx, dev: 1e-7
            ),
            ImplVariant(
                "bench_cuda", Arch.CUDA, lambda ctx, *a: None, lambda ctx, dev: 1e-8
            ),
        ],
    )


def _runtime(seed: int, scheduler: str = "eager") -> Runtime:
    return Runtime(
        platform_c2050(),
        scheduler=scheduler,
        seed=seed,
        noise_sigma=0.0,
        run_kernels=False,
    )


def _timed(rt: Runtime, name: str, n_tasks: int, submit) -> WorkloadResult:
    """Time ``submit(i)`` for ``i < n_tasks`` plus the final drain, then
    shut the runtime down (untimed)."""
    t0 = time.perf_counter()
    for i in range(n_tasks):
        submit(i)
    rt.wait_for_all()
    wall = time.perf_counter() - t0
    rt.shutdown()
    return WorkloadResult(name, n_tasks, wall)


def run_fanout(n_tasks: int = 5000, n_handles: int = 8, seed: int = 0) -> WorkloadResult:
    """Independent tasks over a rotating set of read-only handles."""
    rt = _runtime(seed)
    codelet = _bench_codelet()
    handles = [
        rt.register(np.zeros(64, dtype=np.float32), f"f{i}")
        for i in range(n_handles)
    ]
    return _timed(
        rt,
        "fanout",
        n_tasks,
        lambda i: rt.submit(codelet, [(handles[i % n_handles], "r")], name=f"fan{i}"),
    )


def run_chain(n_tasks: int = 5000, seed: int = 0) -> WorkloadResult:
    """A single rw-dependency chain through one handle."""
    rt = _runtime(seed)
    codelet = _bench_codelet()
    h = rt.register(np.zeros(64, dtype=np.float32), "chain")
    return _timed(
        rt, "chain", n_tasks, lambda i: rt.submit(codelet, [(h, "rw")], name=f"chain{i}")
    )


def run_lookahead(n_tasks: int = 5000, seed: int = 0) -> WorkloadResult:
    """Planned windows: task ``i`` reads one handle and read-writes
    another, at a stride that changes every ``LOOKAHEAD_HANDLES`` tasks.
    The first ``LOOKAHEAD_HANDLES`` tasks, each synced (untimed),
    calibrate the model through the planner's dmda fallback, so every
    timed window is planned."""
    rt = _runtime(seed, "lookahead")
    codelet = _bench_codelet()
    handles = [
        rt.register(np.zeros(64, dtype=np.float32), f"l{i}")
        for i in range(LOOKAHEAD_HANDLES)
    ]

    def submit(i: int) -> None:
        n = LOOKAHEAD_HANDLES
        stride = 1 + (i // n) % (n - 1)
        src, dst = handles[i % n], handles[(i + stride) % n]
        rt.submit(codelet, [(src, "r"), (dst, "rw")], name=f"look{i}")

    for i in range(LOOKAHEAD_HANDLES):
        submit(i)
        rt.wait_for_all()
    sched = rt.scheduler
    calibration = sched.n_fallback_windows
    result = _timed(rt, "lookahead", n_tasks, submit)
    if sched.n_fallback_windows != calibration:
        raise RuntimeError("lookahead workload: a timed window fell back to dmda")
    return result


def _crossover_codelet() -> Codelet:
    return Codelet(
        "crossover",
        [
            ImplVariant(
                "crossover_cpu",
                Arch.CPU,
                lambda ctx, *a: None,
                lambda ctx, dev: 2e-9 * ctx["n"],
            ),
            ImplVariant(
                "crossover_cuda",
                Arch.CUDA,
                lambda ctx, *a: None,
                lambda ctx, dev: 2e-5 + 1e-11 * ctx["n"],
            ),
        ],
    )


def run_dmda(n_tasks: int = 5000, seed: int = 0) -> WorkloadResult:
    """Warm dmda: task ``i`` reads the handle of size class
    ``i % len(DMDA_SIZES)``.  Untimed synced tasks first run each
    variant twice on every size (through single-variant copies of the
    codelet, which share its history), so every timed choice is priced
    from history and none explores."""
    rt = _runtime(seed, "dmda")
    codelet = _crossover_codelet()
    handles = [
        (rt.register(np.zeros(n, dtype=np.float32), f"d{n}"), {"n": n})
        for n in DMDA_SIZES
    ]
    for variant in codelet.variants:
        only = codelet.restricted([variant.name])
        for h, ctx in handles:
            for _ in range(2):
                rt.submit(only, [(h, "r")], ctx=ctx, sync=True)
    trace = rt.engine.trace
    explored = trace.n_exploration_decisions

    def submit(i: int) -> None:
        h, ctx = handles[i % len(handles)]
        rt.submit(codelet, [(h, "r")], ctx=ctx, name=f"dmda{i}")

    result = _timed(rt, "dmda", n_tasks, submit)
    if trace.n_exploration_decisions != explored:
        raise RuntimeError("dmda workload: a timed task explored")
    return result


def _measure(fn, n_tasks: int, seed: int, reps: int) -> WorkloadResult:
    """Warm once, then take the best of ``reps`` GC-paused repetitions."""
    fn(n_tasks=min(n_tasks, 500), seed=seed)  # warm-up, untimed
    best: WorkloadResult | None = None
    rates = []
    for _ in range(reps):
        gc.collect()
        gc.disable()
        try:
            r = fn(n_tasks=n_tasks, seed=seed)
        finally:
            gc.enable()
        rates.append(r.tasks_per_s)
        if best is None or r.wall_s < best.wall_s:
            best = r
    assert best is not None
    return WorkloadResult(
        best.workload, best.n_tasks, best.wall_s, reps, tuple(rates)
    )


def run(smoke: bool = False, seed: int = 0) -> list[WorkloadResult]:
    n = 1000 if smoke else 5000
    reps = SMOKE_REPS if smoke else DEFAULT_REPS
    return [
        _measure(run_fanout, n, seed, reps),
        _measure(run_chain, n, seed, reps),
        _measure(run_lookahead, n, seed, reps),
        _measure(run_dmda, n, seed, reps),
    ]


def format_results(results: list[WorkloadResult]) -> str:
    lines = ["engine throughput"]
    for r in results:
        flag = "" if r.tasks_per_s >= r.floor else "  ** UNDER FLOOR **"
        lines.append(
            f"  {r.workload:<9s} {r.n_tasks:6d} tasks in {r.wall_s:7.3f}s "
            f"= {r.tasks_per_s:9.0f} tasks/s (best of {r.reps}, floor "
            f"{r.floor:.0f}){flag}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# --profile: where does the engine actually spend its time?
# ---------------------------------------------------------------------------

#: how many of the most cumulative-expensive functions the summary shows
PROFILE_TOP = 20

#: functions that must NOT appear among the hottest frames of a
#: metrics-off run: the engine's want-gates are supposed to skip the
#: zero-subscriber event emitters entirely, so any emit_* frame from the
#: events module in the top of the profile means a gate regressed
_COLD_PREFIX = "emit_"
_COLD_MODULE = "events"
_COLD_TOP = 10


def _cold_offenders(stats: pstats.Stats) -> list[str]:
    """Known-cold functions found in the top-N cumulative frames."""
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda kv: kv[1][3],  # cumulative time
        reverse=True,
    )[:_COLD_TOP]
    offenders = []
    for (filename, _line, func), _stat in entries:
        if func.startswith(_COLD_PREFIX) and _COLD_MODULE in Path(filename).stem:
            offenders.append(f"{Path(filename).name}:{func}")
    return offenders


def profile_workloads(n_tasks: int, seed: int = 0) -> tuple[str, list[str]]:
    """cProfile each workload once; return (summary text, offenders)."""
    sections = []
    offenders: list[str] = []
    for fn in (run_fanout, run_chain):
        prof = cProfile.Profile()
        prof.enable()
        r = fn(n_tasks=n_tasks, seed=seed)
        prof.disable()
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("cumulative").print_stats(PROFILE_TOP)
        offenders.extend(_cold_offenders(stats))
        sections.append(
            f"=== {r.workload} ({r.n_tasks} tasks, profiled) ===\n"
            + buf.getvalue()
        )
    text = "\n".join(sections)
    if offenders:
        text += (
            "\nKNOWN-COLD FUNCTIONS IN TOP "
            f"{_COLD_TOP}: {', '.join(offenders)}\n"
            "(zero-subscriber event emitters must be skipped by the "
            "want-gates; this is a hot-path regression)\n"
        )
    return text, offenders


def main(argv: list[str] | None = None) -> int:
    args = runner.parse(
        "engine_bench",
        "engine submit/schedule/complete throughput",
        argv,
        extra={
            "--profile": dict(
                action="store_true",
                help="cProfile each workload, write BENCH_engine_profile.txt, "
                "and fail if a zero-subscriber event emitter shows up in the "
                f"top {_COLD_TOP} cumulative frames",
            )
        },
    )
    results = run(smoke=args.smoke)
    ok = all(r.tasks_per_s >= r.floor for r in results)
    status = runner.report(
        args,
        "engine",
        {"within_budget": ok, "workloads": [r.to_dict() for r in results]},
        ok,
        {"engine_throughput": format_results(results)},
    )
    if args.profile:
        text, offenders = profile_workloads(
            n_tasks=1000 if args.smoke else 5000
        )
        summary = args.outdir / "BENCH_engine_profile.txt"
        summary.write_text(text)
        print(f"wrote {summary}")
        if offenders:
            print(
                "profile gate FAILED: known-cold functions in the top "
                f"{_COLD_TOP}: {', '.join(offenders)}"
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
