"""Experiment harnesses reproducing every table and figure of the paper.

Each module owns one artefact (see DESIGN.md's per-experiment index) and
exposes ``run(...) -> result`` plus a ``format_*`` printer producing the
same rows/series the paper reports.  The pytest benchmarks under
``benchmarks/`` are thin wrappers over these harnesses.

========================  =====================================
module                    paper artefact
========================  =====================================
``table1``                Table I (programmer LOC, tool vs direct)
``fig3``                  Figure 3 (smart-container copy elision)
``fig5``                  Figure 5 (hybrid SpMV speedups)
``fig6``                  Figure 6 (OpenMP/CUDA/TGPA, two platforms)
``fig7``                  Figure 7 (ODE solver runtime overhead)
``overhead``              section V-E (per-task runtime overhead)
``ablations``             scheduler / container / narrowing studies
``faults``                fault-injection / recovery resilience study
``backends``              analytical-vs-measured exec differential
``engine_bench``          engine submit/schedule/complete throughput
``planner``               lookahead planner vs greedy dmda
``devices``               coarse vs detailed device-model tiers
``serving``               multi-tenant serving on one machine
``cluster``               cluster serving under chaos
``tuning``                cold vs store-warmed composition
========================  =====================================

The nine study CLIs (``python -m repro.experiments.<module>`` for
``backends`` through ``tuning``) share one flag set, output layout and
exit status through :mod:`~repro.experiments.runner`.
"""

__all__ = [
    "ablations",
    "backends",
    "cluster",
    "devices",
    "engine_bench",
    "faults",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "overhead",
    "planner",
    "runner",
    "serving",
    "table1",
    "tuning",
]
