"""The composition stack's benchmark: one workload per run, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ode-tool --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload's program for ``--seconds`` seconds
with tracing off and reports every end-to-end metric listed in
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
repetitions and reports every per-layer metric, including the tracing
overhead.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the same numbers for a human, with the environment fingerprint and
the ratio to ``perfbench/baseline.json``.

Every repetition checks its outputs (ODE result against the NumPy
reference, trace invariants, cluster invariants) and all repetitions of
one seed must reach the same simulated makespan.  A failed check exits
with status 1, a workload that did not exercise the layer it names with
status 3.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# one process, one thread: keep NumPy's BLAS from starting a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy  # noqa: E402  (after the thread settings above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"

#: fewest repetitions a run makes, however short ``--seconds`` is
MIN_REPS = 3
#: setups timed per run: one per repetition, topped up with setups that
#: run no program
SETUP_SAMPLES = 15
#: reference snippets timed right before and right after each setup
#: (its host speed factor)
SETUP_PACE_SAMPLES = 16


def fingerprint() -> dict:
    """Python, NumPy, CPU model, ``nproc`` and git sha of this checkout."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD's commit id, read from ``.git`` (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    return float(numpy.percentile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def timed_setup(wl, tracer=None):
    """Run ``wl.setup``; returns the state, the setup's wall seconds and
    the host speed factor sampled right before and right after it."""
    from workloads import Pace

    pace = Pace(SETUP_PACE_SAMPLES)
    t0 = perf_counter()
    state = wl.setup(tracer)
    wall = perf_counter() - t0
    pace.sample_n(SETUP_PACE_SAMPLES)
    return state, wall, pace.factor


def repeat(wl, seconds: float, tracer=None) -> list:
    """Set up and run the program until ``seconds`` have passed; returns
    the repetitions' :class:`~workloads.Rep` records.

    With a ``tracer``, every second repetition runs under it.
    """
    out = []
    min_reps = MIN_REPS if tracer is None else 2 * MIN_REPS
    deadline = perf_counter() + seconds
    while len(out) < min_reps or perf_counter() < deadline:
        traced = tracer is not None and len(out) % 2 == 1
        gc.collect()
        with tracer if traced else nullcontext():
            state, setup_s, factor = timed_setup(wl, tracer if traced else None)
            t0 = perf_counter()
            rep = wl.run(state)
            rep.host_s = perf_counter() - t0
        rep.setup_s, rep.setup_factor, rep.traced = setup_s, factor, traced
        if not out:
            # the first setup + program in a fresh process: later
            # repetitions reuse freed memory, so their peak depends on
            # the allocator's history and the repetition count
            rep.peak_mb = peak_memory_mb()
        wl.finish(state, rep)
        if traced:
            rep.layers = per_layer(tracer, rep)
        out.append(rep)
    return out


def extra_setups(wl, n: int) -> list[tuple[float, float]]:
    """``(wall seconds, host speed factor)`` of ``n`` more setups, each
    closed without running the program."""
    samples = []
    for _ in range(n):
        gc.collect()
        state, wall, factor = timed_setup(wl)
        samples.append((wall, factor))
        wl.teardown(state)
    return samples


def peak_memory_mb() -> float:
    """Peak resident memory of this process so far (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def program_s(rep, scaled: bool = True) -> float:
    """Host seconds of a repetition's program, without the pacing
    snippets, in reference seconds (``scaled``) or wall-clock seconds."""
    return (rep.host_s - rep.pace.spent_s) * (rep.pace.factor if scaled else 1.0)


def end_to_end(reps, setups, scaled: bool = True) -> dict:
    """The end-to-end metrics; host times in reference seconds, or in
    wall-clock seconds with ``scaled=False``.  ``setups`` holds
    ``(wall seconds, host speed factor)`` per timed setup."""
    calls = [c * (r.pace.factor if scaled else 1.0) for r in reps for c in r.call_s]
    first = reps[0]
    return {
        "tasks_per_s": statistics.median(r.n_tasks / program_s(r, scaled) for r in reps),
        "makespan_s": first.makespan_s,
        "call_p50_us": percentile(calls, 50) * 1e6,
        "call_p99_us": percentile(calls, 99) * 1e6,
        "req_p50_ms": percentile(first.req_s, 50) * 1e3,
        "req_p99_ms": percentile(first.req_s, 99) * 1e3,
        "goodput_rps": first.n_good / first.makespan_s if first.makespan_s else 0.0,
        "setup_s": statistics.median(w * (f if scaled else 1.0) for w, f in setups),
        "peak_mem_mb": first.peak_mb,
    }


def per_layer(tracer, rep) -> dict:
    """Every per-layer metric of one traced repetition."""
    lt = tracer.layer_times()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name):
        return lt.get(name, zero)

    traces = rep.traces
    decisions = sum(sum(t.decisions_by_codelet.values()) for t in traces)
    windows = [s for s in rep.schedulers if getattr(s, "is_bulk", False)]
    n_windows = sum(s.n_windows for s in windows)
    gains = [
        (p.greedy_makespan - p.planned_makespan) / p.greedy_makespan
        for s in windows
        for p in s.plans
        if not p.fallback and p.greedy_makespan
    ]
    ct = rep.cluster_trace
    done = [r for r in ct.requests if r.completed] if ct is not None else []
    ran = [a for a in ct.attempts if a.ran] if ct is not None else []
    return {
        "composer.stub_calls": span("composer.stub")["calls"],
        "composer.stub_self_s": span("composer.stub")["self_s"],
        "containers.acquire_calls": span("containers.acquire")["calls"],
        "containers.acquire_s": span("containers.acquire")["s"],
        "engine.submit_calls": span("engine.submit")["calls"],
        "engine.submit_self_s": span("engine.submit")["self_s"],
        "engine.drain_s": span("engine.drain")["s"],
        "engine.transfers": sum(t.n_transfers for t in traces),
        "engine.transfer_mb": sum(t.bytes_transferred for t in traces) / 1e6,
        "engine.retries": sum(t.n_task_retries for t in traces),
        "engine.failed": sum(t.n_tasks_lost + t.n_tasks_aborted for t in traces),
        "sched.choose_calls": span("sched.choose")["calls"],
        "sched.choose_s": span("sched.choose")["s"],
        "sched.explore_frac": sum(t.n_exploration_decisions for t in traces) / max(decisions, 1),
        "lookahead.windows": span("lookahead.plan")["calls"],
        "lookahead.plan_s": span("lookahead.plan")["s"],
        "lookahead.fallback_frac": (
            sum(s.n_fallback_windows for s in windows) / n_windows if n_windows else 0.0
        ),
        "lookahead.fused_edges": sum(s.n_fused_edges for s in windows),
        "lookahead.plan_gain": statistics.fmean(gains) if gains else 0.0,
        "perfmodel.predict_calls": span("perfmodel.predict")["calls"],
        "perfmodel.predict_s": span("perfmodel.predict")["s"],
        "perfmodel.record_calls": span("perfmodel.record")["calls"],
        "perfmodel.record_s": span("perfmodel.record")["s"],
        "perfmodel.pred_err": tracer.prediction_error(),
        "hw.price_calls": span("hw.price")["calls"],
        "hw.price_s": span("hw.price")["s"],
        "kernel.calls": span("kernel")["calls"],
        "kernel.s": span("kernel")["s"],
        "serve.queue_wait_ms": (
            statistics.fmean(r.start_time - r.arrival_time for r in done) * 1e3 if done else 0.0
        ),
        "serve.batch_mean": statistics.fmean(a.batch_size for a in ran) if ran else 0.0,
        "serve.shed": ct.n_shed if ct is not None else 0,
        "cluster.route_s": span("cluster.run")["self_s"],
        "cluster.hedges": ct.n_hedges if ct is not None else 0,
        "cluster.failovers": ct.n_failovers if ct is not None else 0,
        "composer.compose_s": span("composer.compose")["s"],
        "tuning.load_s": span("tuning.load")["s"],
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def median_layers(reps) -> dict:
    """Per-layer metrics: the median over the traced repetitions."""
    layers = [r.layers for r in reps]
    return {k: statistics.median(d[k] for d in layers) for k in layers[0]}


def record_baseline(workload: str, metrics: dict, env: dict) -> None:
    """Add the metrics ``baseline.json`` does not hold yet (first value wins)."""
    base = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    known = base.setdefault("workloads", {}).setdefault(workload, {})
    new = {name: m for name, m in metrics.items() if name not in known}
    if new:
        known.update(new)
        base.setdefault("fingerprint", env)
        BASELINE.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")


def report(
    workload: str, metrics: dict, wall: dict, attempted: int, failed: int, env: dict
) -> None:
    base = {}
    if BASELINE.exists():
        base = json.loads(BASELINE.read_text()).get("workloads", {}).get(workload, {})
    print(f"# {workload}  env: {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        ref = base.get(name, {}).get("value")
        vs = f"  (x{m['value'] / ref:.3f} of baseline)" if ref else ""
        print(f"{workload:14s} {name:26s} {m['value']:>14.6g} {m['unit']}{vs}")
    for name, value in wall.items():
        print(f"{workload:14s} {name + ' (wall)':26s} {value:>14.6g} {metrics[name]['unit']}")
    print(f"{workload:14s} {'failed_frac':26s} {failed / max(attempted, 1):>14.6g} frac"
          f"  ({failed} of {attempted} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        wl.prepare(args.seed, workdir)
        reps = repeat(wl, args.seconds, tracer)
        plain = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced]
        if args.trace:
            values = median_layers(traced)
            values["trace.overhead_frac"] = (
                statistics.median(program_s(r) for r in traced)
                / statistics.median(program_s(r) for r in plain) - 1.0
            )
            spans = tracer.write(OUT / f"spans-{args.workload}.json")
            wall = {}
        else:
            setups = [(r.setup_s, r.setup_factor) for r in plain]
            setups += extra_setups(wl, SETUP_SAMPLES - len(setups))
            values = end_to_end(plain, setups)
            wall = {
                k: v for k, v in end_to_end(plain, setups, scaled=False).items()
                if v != values[k]
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = sorted({p for rep in reps for p in rep.problems})
    misconfig = sorted({p for rep in reps for p in rep.misconfig})
    makespans = {rep.makespan_s for rep in reps}
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if len(makespans) > 1:
        problems.append(f"makespan differs across repetitions of one seed: {sorted(makespans)}")
        failed += 1
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(values) ^ set(units))} do not "
            "match BENCHMARK.json"
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    env = fingerprint()

    report(args.workload, metrics, wall, attempted, failed, env)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for p in misconfig:
        print(f"MISCONFIGURED: {p}")
    if args.trace:
        print(f"spans: {spans.relative_to(ROOT)}")
    correct = not problems and not misconfig and failed == 0
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "reps": len(reps), "correct": correct, "metrics": metrics, "wall": wall,
            "env": env,
        }, sort_keys=True) + "\n")
    if correct:
        record_baseline(args.workload, metrics, env)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    if misconfig:
        return 3
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
