"""The benchmark's four workloads: one fixed program each.

Every workload has the same life cycle, driven by ``run.py``:

- ``prepare(seed, workdir)`` makes the inputs from the seed (untimed);
- ``setup(tracer)`` builds what the program needs: composing the app,
  the machine and session, warm-loading or pre-training the perf model
  (timed, reported as ``setup_s``);
- ``run(state)`` is the program itself (timed host seconds);
- ``finish(state, rep)`` closes the session and runs the output checks
  (untimed); ``teardown(state)`` closes a setup that ran no program.

A :class:`Rep` carries what one repetition measured.  Host times are
wall clock (``perf_counter``), with the host's speed sampled alongside
(:class:`Pace`); ``makespan_s`` and request latencies are the
simulation's virtual clock.
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import dag as dagmod
from repro import Session
from repro.apps import mains
from repro.apps import odesolver as ode
from repro.check.cluster import check_cluster
from repro.check.invariants import assert_trace_legal
from repro.cluster import Cluster, ClusterTenant, HedgePolicy
from repro.containers import Vector
from repro.errors import InvariantViolation
from repro.hw.presets import machine
from repro.serve import AdmissionPolicy, BatchPolicy


def _reference_snippet() -> None:
    """Fixed pure-Python work: its duration tracks the host's speed."""
    d: dict[int, int] = {}
    for i in range(400):
        d[i & 63] = d.get(i & 63, 0) + i


class Pace:
    """The host's speed while a program runs, sampled by timing the
    reference snippet after every ``EVERY``-th program-level call.

    The host this benchmark was written on (2 shared vCPUs) ran the same
    code up to 1.8x slower for minutes at a time; scaling host times by
    the snippet's speed in the same repetition removes most of that
    drift from the reported numbers.
    """

    EVERY = 128
    #: the snippet's duration at reference speed (its typical time on an
    #: uncontended core of the host the benchmark was written on)
    NOMINAL_S = 4e-5

    def __init__(self, n_samples: int = 0) -> None:
        self.n_calls = 0
        self.samples: list[float] = []
        self.sample_n(n_samples)

    def tick(self) -> None:
        self.n_calls += 1
        if self.n_calls % self.EVERY == 0:
            self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        _reference_snippet()
        self.samples.append(perf_counter() - t0)

    def sample_n(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    @property
    def spent_s(self) -> float:
        """Host seconds the snippets themselves took."""
        return sum(self.samples)

    @property
    def factor(self) -> float:
        """Multiplier from wall-clock seconds to reference seconds."""
        return self.NOMINAL_S / statistics.fmean(self.samples)


@dataclass
class Rep:
    """What one repetition of a workload's program measured."""

    #: runtime tasks completed
    n_tasks: int = 0
    #: virtual seconds to finish the program
    makespan_s: float = 0.0
    #: host seconds of each program-level call
    call_s: list[float] = field(default_factory=list)
    #: virtual seconds from each request's arrival to its completion
    req_s: list[float] = field(default_factory=list)
    #: requests completed within their SLO
    n_good: int = 0
    #: operations attempted / failed (tasks lost, requests shed or failed,
    #: failed output checks)
    attempted: int = 0
    failed: int = 0
    #: failed output checks, one line each
    problems: list[str] = field(default_factory=list)
    #: workload misconfigurations (the layer named was not exercised)
    misconfig: list[str] = field(default_factory=list)
    #: engine traces and schedulers of the run (per-layer metrics)
    traces: list = field(default_factory=list)
    schedulers: list = field(default_factory=list)
    cluster_trace: object = None
    #: host speed while the program ran (see :class:`Pace`)
    pace: Pace = field(default_factory=Pace)
    #: wall-clock seconds of the setup and of the program (snippets
    #: included), the host speed factor around the setup, traced or not
    setup_s: float = 0.0
    host_s: float = 0.0
    setup_factor: float = 1.0
    traced: bool = False
    #: peak resident MB after the run's first setup + program
    peak_mb: float = 0.0
    #: per-layer metrics of a traced repetition
    layers: dict = field(default_factory=dict)


def _timed(fn, rep: Rep):
    """``fn`` appending the host duration of every call to ``rep.call_s``
    and pacing ``rep.pace`` (outside the timed interval)."""
    sink = rep.call_s
    pace = rep.pace

    def call(*args):
        t0 = perf_counter()
        out = fn(*args)
        sink.append(perf_counter() - t0)
        pace.tick()
        return out

    return call


def _check_trace(rep: Rep, trace, mach) -> None:
    try:
        assert_trace_legal(trace, mach)
    except InvariantViolation as exc:
        rep.problems.append(f"trace invariant: {exc}")


def _task_latencies(trace) -> list[float]:
    submit = trace.columns("submit_time")
    end = trace.columns("end_time")
    return [e - s for s, e in zip(submit, end)]


def _engine_failures(trace) -> int:
    return trace.n_tasks_lost + trace.n_tasks_aborted


class Workload:
    name = ""

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._n_setups = 0

    def _fresh_dir(self, tag: str) -> Path:
        self._n_setups += 1
        return self.workdir / f"{self.name}-{tag}{self._n_setups}"


# ---------------------------------------------------------------------------
# ode-tool: the paper's Fig. 7 application through the composition tool
# ---------------------------------------------------------------------------

class OdeTool(Workload):
    """The Fig. 7 RK solver, composed by the tool, from a cold model."""

    name = "ode-tool"
    #: Fig. 7 problem size 250 (``fig7.system_dim(250)``) and step count
    N = 2 * 250 * 32
    STEPS = 588
    SAMPLE_EVERY = 10
    #: entry-wrapper calls ``ode.solve`` makes for ``STEPS`` steps
    EXPECTED_CALLS = 2 + STEPS * 18 + STEPS // SAMPLE_EVERY

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self._reference = None

    def setup(self, tracer=None):
        app = mains.compose_app("odesolver", out_dir=self._fresh_dir("app"))
        pep = app.peppher
        # the main descriptor's defaults: dmda on the c2050 platform,
        # cold performance model, real NumPy kernels
        rt = pep.PEPPHER_INITIALIZE(seed=self.seed)
        n = self.N
        containers = {
            name: Vector.zeros(n, runtime=rt, name=name)
            for name in ("y", "k", "du", "err")
        }
        containers["norm"] = Vector.zeros(1, runtime=rt, name="norm")
        containers["sample"] = Vector.zeros(16, runtime=rt, name="sample")
        invoke = {name: getattr(pep, name) for name in ode.COMPONENT_NAMES}
        if tracer is not None:
            invoke = {k: tracer.wrap("composer.stub", fn) for k, fn in invoke.items()}
        return {"pep": pep, "rt": rt, "containers": containers, "invoke": invoke}

    def run(self, state) -> Rep:
        rep = Rep()
        invoke = {k: _timed(fn, rep) for k, fn in state["invoke"].items()}
        norm = state["containers"]["norm"]
        calls = ode.solve(
            invoke,
            state["containers"],
            self.N,
            steps=self.STEPS,
            sample_every=self.SAMPLE_EVERY,
            read_norm=lambda: norm[0],  # host inspects the step error
        )
        state["y"] = state["containers"]["y"].to_numpy()
        rep.makespan_s = state["pep"].PEPPHER_SHUTDOWN()
        rep.attempted = calls
        return rep

    def teardown(self, state) -> None:
        state["pep"].PEPPHER_SHUTDOWN()

    def finish(self, state, rep: Rep) -> None:
        rt = state["rt"]
        trace = rt.trace
        rep.n_tasks = trace.n_tasks
        rep.req_s = _task_latencies(trace)
        rep.n_good = rep.attempted  # no SLO: every completed call counts
        rep.traces.append(trace)
        rep.schedulers.append(rt.scheduler)
        if rep.attempted != self.EXPECTED_CALLS:
            rep.misconfig.append(
                f"made {rep.attempted} entry-wrapper calls, expected "
                f"{self.EXPECTED_CALLS}"
            )
        if self._reference is None:
            self._reference = ode.reference_solution(self.N, self.STEPS)
        if not np.allclose(state["y"], self._reference, rtol=1e-3, atol=1e-4):
            rep.problems.append("ODE result differs from the NumPy reference")
        _check_trace(rep, trace, rt.machine)
        rep.failed = _engine_failures(trace) + len(rep.problems)


# ---------------------------------------------------------------------------
# dag-dmda / dag-lookahead: generated DAGs under a warm performance model
# ---------------------------------------------------------------------------

class DagWorkload(Workload):
    """A generated DAG (:mod:`dag`) on a session that warm-loads a
    pre-trained model; kernels off."""

    machine_name = "c2050"
    fidelity = "coarse"
    scheduler = "dmda"
    scheduler_options: dict = {}
    spec: dagmod.DagSpec

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.dag = dagmod.generate(self.spec, seed)
        self.codelets = {k: dagmod.make_codelet(kind) for k, kind in dagmod.KINDS.items()}
        self._pristine = workdir / f"{self.name}-store"

    def _session(self, store: Path, scheduler: str, options: dict) -> Session:
        return Session(
            lambda: machine(self.machine_name, fidelity=self.fidelity),
            scheduler=scheduler,
            scheduler_options=options,
            store=store,
            seed=self.seed,
            run_kernels=False,
            check=False,
        )

    def _register(self, session: Session) -> list:
        return [
            session.register(np.zeros(n, dtype=np.float32), f"h{i}")
            for i, n in enumerate(self.dag.handle_sizes)
        ]

    def _submit_all(self, session: Session, handles: list, rep: Rep | None) -> None:
        codelets = self.codelets
        submit = session.submit if rep is None else _timed(session.submit, rep)
        for kind, ops, n in self.dag.tasks:
            submit(codelets[kind], [(handles[h], m) for h, m in ops], {"n": n})

    def _pretrain(self) -> None:
        """Calibrate the model StarPU-style: every variant runs twice on
        every operand-size footprint the program uses (each through a
        codelet narrowed to that one variant), and shutdown saves the
        model into the pristine store."""
        s = self._session(self._pristine, "dmda", {})
        handles = self._register(s)
        single = {
            k: [c.restricted([v.name]) for v in c.variants]
            for k, c in self.codelets.items()
        }
        seen: dict[tuple, int] = {}
        for kind, ops, n in self.dag.tasks:
            operands = [(handles[h], m) for h, m in ops]
            sig = (kind, tuple(h.nbytes.bit_length() for h, _ in operands))
            if seen.setdefault(sig, 0) >= 2:
                continue
            seen[sig] += 1
            for codelet in single[kind]:
                s.submit(codelet, operands, {"n": n})
        s.shutdown()

    def setup(self, tracer=None):
        if not self._pristine.exists():
            self._pretrain()
        # every repetition warm-loads the same model: shutdown merges the
        # run's observations into the store, so each gets its own copy
        store = self._fresh_dir("store")
        shutil.copytree(self._pristine, store)
        s = self._session(store, self.scheduler, dict(self.scheduler_options))
        return {"session": s, "handles": self._register(s)}

    def run(self, state) -> Rep:
        rep = Rep()
        s = state["session"]
        self._submit_all(s, state["handles"], rep)
        rep.makespan_s = s.wait_for_all()
        rep.attempted = len(self.dag.tasks)
        return rep

    def teardown(self, state) -> None:
        state["session"].shutdown()

    def finish(self, state, rep: Rep) -> None:
        self.teardown(state)
        s = state["session"]
        trace = s.trace
        rep.n_tasks = trace.n_tasks
        rep.req_s = _task_latencies(trace)
        rep.n_good = rep.n_tasks
        rep.traces.append(trace)
        rep.schedulers.append(s.runtime.scheduler)
        _check_trace(rep, trace, s.machine)
        rep.failed = _engine_failures(trace) + len(rep.problems)
        self.check_layers(s, rep)

    def check_layers(self, session: Session, rep: Rep) -> None:
        """Misconfiguration checks: the layer the workload names ran."""


class DagDmda(DagWorkload):
    """A random DAG across the CPU/GPU crossover under warm dmda."""

    name = "dag-dmda"
    spec = dagmod.DagSpec(
        n_tasks=24000,
        size_classes=(10, 12, 14, 16, 18, 20),
        handles_per_class=6,
    )
    #: a warm model explores (almost) never
    MAX_EXPLORE_FRAC = 0.01

    def check_layers(self, session: Session, rep: Rep) -> None:
        trace = session.trace
        decisions = sum(trace.decisions_by_codelet.values())
        frac = trace.n_exploration_decisions / max(decisions, 1)
        if frac > self.MAX_EXPLORE_FRAC:
            rep.misconfig.append(
                f"explore_frac {frac:.3f} > {self.MAX_EXPLORE_FRAC}: the "
                "model is not warm"
            )


class DagLookahead(DagWorkload):
    """A transfer-bound DAG under the lookahead planner, detailed tier."""

    name = "dag-lookahead"
    machine_name = "fermi"
    fidelity = "detailed"
    scheduler = "lookahead"
    scheduler_options = {"window_size": 16, "beam_width": 8}
    spec = dagmod.DagSpec(
        n_tasks=8000,
        size_classes=(18, 20),
        handles_per_class=8,
        chain_share=0.55,
        fanout_share=0.35,
        chain_len=8,
        fanout_width=6,
        large_classes=(21,),
        fanout_out_class=16,
    )

    def check_layers(self, session: Session, rep: Rep) -> None:
        sched = session.runtime.scheduler
        if sched.n_planned_windows < 1:
            rep.misconfig.append("lookahead planned no window")
        if sched.n_windows and sched.n_fallback_windows >= sched.n_windows:
            rep.misconfig.append("every lookahead window fell back to dmda")


# ---------------------------------------------------------------------------
# serve-cluster: open-loop multi-tenant traffic through repro.cluster
# ---------------------------------------------------------------------------

class ServeCluster(Workload):
    """Open-loop multi-tenant traffic through a 3-node cluster."""

    name = "serve-cluster"
    N_NODES = 3
    #: (name, workload, size, offered rate Hz, priority, SLO ms); the
    #: total rate sits at about 40% of the measured knee.  sgemm makes
    #: 70% of the traffic, so the median call lies well inside one shape
    TENANTS = (
        ("gold", "sgemm", 64, 14000.0, 2, 0.25),
        ("silver", "sgemm", 64, 10000.0, 1, 0.5),
        ("graph", "bfs", 1000, 4000.0, 1, 0.5),
        ("grid", "pathfinder", 512, 6000.0, 0, 0.5),
    )
    #: seconds of offered traffic per tenant
    SPAN_S = 0.25

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.tenants = [
            ClusterTenant(
                name,
                workload=wl,
                size=size,
                rate_hz=rate,
                n_requests=int(rate * self.SPAN_S),
                priority=prio,
                slo_ms=slo,
                seed=seed * 16 + i,
            )
            for i, (name, wl, size, rate, prio, slo) in enumerate(self.TENANTS)
        ]

    def setup(self, tracer=None):
        cluster = Cluster(
            self.N_NODES,
            self.tenants,
            seed=self.seed,
            noise_sigma=0.03,
            run_kernels=True,
            admission=AdmissionPolicy(max_queue_per_tenant=256),
            batching=BatchPolicy(max_batch=4),
            hedge=HedgePolicy(after_s=1e-3),
            check=False,
        )
        rep = Rep()
        for node in cluster.nodes.values():
            node.submit_batch = _timed(node.submit_batch, rep)
        return {"cluster": cluster, "rep": rep}

    def run(self, state) -> Rep:
        rep = state["rep"]
        cluster = state["cluster"]
        trace = cluster.run()
        slo = {t.name: t.slo_ms * 1e-3 for t in self.tenants}
        done = [r for r in trace.requests if r.completed]
        rep.req_s = [r.latency for r in done]
        rep.n_good = sum(1 for r in done if r.latency <= slo[r.tenant])
        rep.makespan_s = max(r.end_time for r in done) if done else 0.0
        rep.attempted = len(trace.requests)
        rep.cluster_trace = trace
        return rep

    def teardown(self, state) -> None:
        state["cluster"].shutdown()

    def finish(self, state, rep: Rep) -> None:
        cluster = state["cluster"]
        trace = rep.cluster_trace
        for v in check_cluster(cluster):
            rep.problems.append(f"cluster invariant: {v}")
        self.teardown(state)
        for node in cluster.nodes.values():
            rep.traces.append(node.engine.trace)
            rep.schedulers.append(node.runtime.scheduler)
        rep.n_tasks = sum(t.n_tasks for t in rep.traces)
        rep.failed = trace.n_shed + trace.n_failed + len(rep.problems)
        for t in self.tenants:
            if not any(r.completed for r in trace.requests_for(t.name)):
                rep.misconfig.append(f"tenant {t.name} completed no request")


WORKLOADS = {w.name: w for w in (OdeTool, DagDmda, DagLookahead, ServeCluster)}
