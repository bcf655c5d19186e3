"""Section V-E: runtime task overhead micro-benchmark.

The paper cites micro-benchmarking of the runtime system showing a
per-task overhead below ~2 microseconds, negligible against the gains of
performance-aware scheduling.  We measure both views of our runtime:

- **modeled (virtual) overhead**: the virtual host time charged per
  submitted task (submission + wrapper packing), which is what the
  simulated timelines in every figure include;
- **implementation (wall-clock) overhead**: the real Python time one
  empty-task submit/schedule/complete cycle costs, reported for
  transparency (a Python simulator is orders of magnitude slower than
  StarPU's C fast path; the *modeled* number is the one calibrated to
  the paper).

The module also benchmarks the :mod:`repro.obs` layer: engine
throughput with the default metrics suite (registry + samplers at the
default period) attached versus a bare engine.  The obs budget is 5%
overhead, measured in process CPU time over symmetric off/on run
sequences with a best-run-ratio estimator (each choice exists to
survive noisy shared CI machines; see :func:`run_obs_overhead`).  ``python -m repro.experiments.overhead``
writes ``benchmarks/results/BENCH_obs.json`` and exits non-zero on a
budget violation — which is what the CI ``bench`` job runs with
``--smoke``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.experiments import runner
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

#: wall-clock overhead budget for the obs layer (fraction)
OBS_BUDGET = 0.05


@dataclass(frozen=True)
class OverheadResult:
    n_tasks: int
    virtual_us_per_task: float
    wall_us_per_task: float


def empty_codelet() -> Codelet:
    """A no-op codelet with negligible modeled cost."""
    return Codelet(
        "noop",
        [
            ImplVariant("noop_cpu", Arch.CPU, lambda ctx, *a: None, lambda ctx, dev: 1e-9),
            ImplVariant("noop_cuda", Arch.CUDA, lambda ctx, *a: None, lambda ctx, dev: 1e-9),
        ],
    )


def run(n_tasks: int = 2000, seed: int = 0) -> OverheadResult:
    """Submit ``n_tasks`` empty independent tasks and amortise the cost."""
    rt = Runtime(platform_c2050(), scheduler="eager", seed=seed, noise_sigma=0.0)
    codelet = empty_codelet()
    data = np.zeros(16, dtype=np.float32)
    handles = [rt.register(data.copy(), f"d{i}") for i in range(8)]
    t0 = time.perf_counter()
    for i in range(n_tasks):
        rt.submit(codelet, [(handles[i % 8], "r")], name=f"noop{i}")
    virtual = rt.wait_for_all()
    wall = time.perf_counter() - t0
    rt.shutdown()
    return OverheadResult(
        n_tasks=n_tasks,
        virtual_us_per_task=virtual / n_tasks * 1e6,
        wall_us_per_task=wall / n_tasks * 1e6,
    )


def format_result(result: OverheadResult) -> str:
    return (
        "Section V-E: per-task runtime overhead "
        f"({result.n_tasks} empty tasks)\n"
        f"  modeled (virtual) overhead : {result.virtual_us_per_task:.3f} us/task"
        "   [paper: < 2 us]\n"
        f"  simulator wall-clock cost  : {result.wall_us_per_task:.1f} us/task"
        "   (Python implementation cost, not modeled time)"
    )


# ---------------------------------------------------------------------------
# observability-layer overhead (metrics on vs off)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObsOverheadResult:
    """Engine throughput with and without the obs layer attached."""

    n_tasks: int
    reps: int
    base_us_per_task: float
    obs_us_per_task: float
    #: per-pair fractional overheads (one adjacent off/on pair per rep)
    pair_overheads: tuple[float, ...] = ()
    budget: float = OBS_BUDGET

    @property
    def overhead(self) -> float:
        """Fractional CPU-time overhead of metrics-on vs metrics-off.

        The ratio of the global minima (fastest obs run over fastest
        base run across all reps): CI noise — preemption, frequency
        scaling — only ever makes a run *look slower*, so the minimum
        over many runs is the consistent estimator of the undisturbed
        cost for both configurations, and their ratio converges to the
        true overhead.  Per-pair medians (kept in
        :attr:`pair_overheads` for transparency) proved too wide-tailed
        to gate CI on when the true cost sits near the budget.
        """
        if self.base_us_per_task <= 0:
            return 0.0
        return self.obs_us_per_task / self.base_us_per_task - 1.0

    @property
    def median_pair_overhead(self) -> float:
        """Median of the per-pair ratios (diagnostic, not the gate)."""
        if not self.pair_overheads:
            return self.overhead
        ratios = sorted(self.pair_overheads)
        mid = len(ratios) // 2
        if len(ratios) % 2:
            return ratios[mid]
        return (ratios[mid - 1] + ratios[mid]) / 2.0

    @property
    def within_budget(self) -> bool:
        return self.overhead <= self.budget

    def to_dict(self) -> dict:
        return {
            "n_tasks": self.n_tasks,
            "reps": self.reps,
            "base_us_per_task": self.base_us_per_task,
            "obs_us_per_task": self.obs_us_per_task,
            "pair_overheads_pct": [o * 100.0 for o in self.pair_overheads],
            "median_pair_overhead_pct": self.median_pair_overhead * 100.0,
            "overhead_pct": self.overhead * 100.0,
            "budget_pct": self.budget * 100.0,
            "within_budget": self.within_budget,
        }


def _timed_run(n_tasks: int, seed: int, metrics: bool) -> float:
    """CPU seconds for one submit/drain cycle, obs on or off.

    CPU time (``time.process_time``) rather than wall time: on shared CI
    machines wall time includes involuntary preemption, which swamps a
    few-percent effect; CPU time measures the work the obs layer
    actually adds.
    """
    rt = Runtime(platform_c2050(), scheduler="eager", seed=seed, noise_sigma=0.0)
    if metrics:
        from repro.obs import MetricsSuite

        MetricsSuite().attach(rt.engine)
    codelet = empty_codelet()
    data = np.zeros(16, dtype=np.float32)
    handles = [rt.register(data.copy(), f"d{i}") for i in range(8)]
    t0 = time.process_time()
    for i in range(n_tasks):
        rt.submit(codelet, [(handles[i % 8], "r")], name=f"noop{i}")
    rt.wait_for_all()
    cpu = time.process_time() - t0
    rt.shutdown()
    return cpu


def run_obs_overhead(
    n_tasks: int = 6000, reps: int = 9, seed: int = 0
) -> ObsOverheadResult:
    """Measure the obs layer's CPU cost on the empty-task cycle.

    Every rep runs the symmetric sequence off-on-on-off and takes the
    *minimum* per configuration: CPU-time noise on a shared machine only
    slows runs down (preemption, frequency throttling), so the min is
    the best estimate of the undisturbed cost, and the symmetric order
    cancels load drift across the rep.  The headline overhead is the
    ratio of the global minima across all reps (see
    :attr:`ObsOverheadResult.overhead` for why that estimator).
    """
    base_walls: list[float] = []
    obs_walls: list[float] = []
    pair_overheads: list[float] = []
    # one throwaway warm-up pair so import/JIT/allocator effects land
    # outside the measurement
    _timed_run(min(n_tasks, 200), seed, metrics=False)
    _timed_run(min(n_tasks, 200), seed, metrics=True)
    for rep in range(reps):
        base_a = _timed_run(n_tasks, seed + rep, metrics=False)
        obs_a = _timed_run(n_tasks, seed + rep, metrics=True)
        obs_b = _timed_run(n_tasks, seed + rep, metrics=True)
        base_b = _timed_run(n_tasks, seed + rep, metrics=False)
        base, obs = min(base_a, base_b), min(obs_a, obs_b)
        base_walls.append(base)
        obs_walls.append(obs)
        pair_overheads.append(obs / base - 1.0)
    return ObsOverheadResult(
        n_tasks=n_tasks,
        reps=reps,
        base_us_per_task=min(base_walls) / n_tasks * 1e6,
        obs_us_per_task=min(obs_walls) / n_tasks * 1e6,
        pair_overheads=tuple(pair_overheads),
    )


def format_obs_result(result: ObsOverheadResult) -> str:
    verdict = "within" if result.within_budget else "OVER"
    return (
        "Observability overhead "
        f"({result.n_tasks} empty tasks, {result.reps} alternating pairs)\n"
        f"  metrics off : {result.base_us_per_task:.1f} us/task CPU (best run)\n"
        f"  metrics on  : {result.obs_us_per_task:.1f} us/task CPU "
        "(registry + samplers at default period)\n"
        f"  overhead    : {result.overhead * 100.0:+.2f}% "
        "(ratio of best runs; median pair "
        f"{result.median_pair_overhead * 100.0:+.2f}%)  "
        f"[{verdict} the {result.budget * 100.0:.0f}% budget]"
    )


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = runner.parse(
        "overhead", "runtime task overhead + observability overhead", argv
    )
    if args.smoke:
        # runs must be long enough (hundreds of ms) that machine-load
        # oscillation averages out within each rep
        base = run(n_tasks=500)
        obs = run_obs_overhead(n_tasks=3000, reps=5)
    else:
        base = run()
        obs = run_obs_overhead()
    doc = {
        "task_overhead": {
            "n_tasks": base.n_tasks,
            "virtual_us_per_task": base.virtual_us_per_task,
            "wall_us_per_task": base.wall_us_per_task,
        },
        "obs_overhead": obs.to_dict(),
    }
    return runner.report(
        args,
        "obs",
        doc,
        obs.within_budget,
        {
            "overhead_task": format_result(base),
            "overhead_obs": format_obs_result(obs),
        },
    )


if __name__ == "__main__":
    raise SystemExit(main())
