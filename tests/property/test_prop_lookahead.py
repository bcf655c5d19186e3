"""Property-based invariants of the lookahead window planner.

Random DAG windows — chain, fanout and diamond segments over a shared
handle pool, with randomized device residency and window sizes — must
always yield runs where:

- every task starts only after all of its dependencies finished (the
  plan respects the DAG, whatever joint placement the DP picked);
- a variant whose selectability guard rejects the call context never
  executes (the planner only ever picks from the candidate set);
- every *planned* window's modeled makespan is at most its greedy
  baseline's (the min(DP, greedy) construction, observed end to end);
- the full trace passes the invariant checker at shutdown
  (``check=True``), coherence invariants included.

The runtime self-calibrates: the warmup phase runs under lookahead too,
whose uncalibrated windows fall back to the inner dmda — exploration and
model-building are dmda's job, planning only starts once the model can
price every candidate.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.composer.lookahead import LookaheadScheduler
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

N = 64
N_HANDLES = 6

_SEGMENTS = st.lists(
    st.tuples(
        st.sampled_from(["chain", "fanout", "diamond"]),
        st.integers(min_value=0, max_value=N_HANDLES - 1),  # base handle
        st.integers(min_value=2, max_value=4),  # segment width/length
    ),
    min_size=1,
    max_size=4,
)
_PRIMES = st.lists(st.booleans(), min_size=N_HANDLES, max_size=N_HANDLES)
_WINDOW = st.integers(min_value=3, max_value=10)


def _codelets():
    """Two dual-variant codelets, a GPU-only primer, and one codelet
    carrying a guard-dead variant that must never run."""

    def bump(ctx, *arrays):
        first = arrays[0]
        first += 1.0

    cheap_cpu = lambda ctx, dev: 1e-4
    cheap_gpu = lambda ctx, dev: 3e-5
    alpha = Codelet(
        "prop_alpha",
        [
            ImplVariant("alpha_cpu", Arch.CPU, bump, cheap_cpu),
            ImplVariant("alpha_cuda", Arch.CUDA, bump, cheap_gpu),
        ],
    )
    beta = Codelet(
        "prop_beta",
        [
            ImplVariant("beta_cpu", Arch.CPU, bump, lambda ctx, dev: 5e-5),
            ImplVariant("beta_cuda", Arch.CUDA, bump, lambda ctx, dev: 8e-5),
        ],
    )
    guarded = Codelet(
        "prop_guarded",
        [
            ImplVariant("guarded_cpu", Arch.CPU, bump, cheap_cpu),
            ImplVariant(
                "dead_cuda",
                Arch.CUDA,
                bump,
                cheap_gpu,
                guard=lambda ctx: False,  # never selectable
            ),
        ],
    )
    primer = Codelet(
        "prop_primer",
        [ImplVariant("primer_cuda", Arch.CUDA, bump, cheap_gpu)],
    )
    return alpha, beta, guarded, primer


def _submit(rt, codelet, operands):
    return rt.submit(codelet, operands, ctx={"n": N})


def _build_segment(rt, codelets, kind, base, width, handles, tasks):
    """One DAG segment; dependencies arise from sequential consistency."""
    alpha, beta, guarded, _ = codelets
    pick = (alpha, beta, guarded)
    if kind == "chain":
        for i in range(width):
            tasks.append(
                _submit(rt, pick[i % 3], [(handles[base], "rw")])
            )
    elif kind == "fanout":
        for i in range(width):
            out = handles[(base + 1 + i) % N_HANDLES]
            ops = [(handles[base], "r")]
            if out is not handles[base]:
                ops.append((out, "w"))
            tasks.append(_submit(rt, pick[i % 3], ops))
    else:  # diamond
        left = handles[(base + 1) % N_HANDLES]
        right = handles[(base + 2) % N_HANDLES]
        tasks.append(_submit(rt, alpha, [(handles[base], "rw")]))
        tasks.append(
            _submit(rt, beta, [(handles[base], "r"), (left, "w")])
        )
        tasks.append(
            _submit(rt, guarded, [(handles[base], "r"), (right, "w")])
        )
        tasks.append(
            _submit(
                rt,
                alpha,
                [(left, "r"), (right, "r"), (handles[base], "rw")],
            )
        )


def _run_dag(segments, primes, window, fusion=True):
    """Calibrate, prime residency, then submit and drain the random DAG
    under lookahead; returns the runtime and the DAG's tasks."""
    rt = Runtime(
        platform_c2050(),
        scheduler="lookahead",
        scheduler_options={
            "window_size": window,
            "beam_width": 4,
            "fusion": fusion,
        },
        seed=3,
        noise_sigma=0.0,
        check=True,
    )
    codelets = _codelets()
    alpha, beta, guarded, primer = codelets
    handles = [
        rt.register(np.zeros(N, dtype=np.float32), f"h{i}")
        for i in range(N_HANDLES)
    ]
    warm = [
        rt.register(np.zeros(N, dtype=np.float32), f"w{i}") for i in range(5)
    ]

    # self-calibration: these windows fall back to dmda, which explores
    # every candidate variant until the model can price it.  Sync after
    # each submission so every observation lands before the next choose
    # — batched independent tasks would let exploration's least-sampled
    # tie-break repeat a variant and leave another under-sampled.
    for cl in (alpha, beta, guarded, primer):
        for h in warm:
            _submit(rt, cl, [(h, "rw")])
            rt.wait_for_all()

    # randomized residency: prime some handles into device memory
    for h, prime in zip(handles, primes):
        if prime:
            _submit(rt, primer, [(h, "rw")])
    rt.wait_for_all()

    tasks: list = []
    for kind, base, width in segments:
        _build_segment(rt, codelets, kind, base, width, handles, tasks)
    rt.wait_for_all()
    return rt, tasks


@given(segments=_SEGMENTS, primes=_PRIMES, window=_WINDOW)
@settings(max_examples=25, deadline=None)
def test_random_dag_windows_plan_legally(segments, primes, window):
    rt, tasks = _run_dag(segments, primes, window)
    sched = rt.scheduler

    # the calibrated DAG phase must actually have produced planned
    # windows, and each one's modeled cost never exceeds its greedy
    # baseline's (the min(DP, greedy) construction)
    planned = [p for p in sched.plans if not p.fallback]
    assert planned, "no window was planned after calibration"
    for plan in planned:
        assert plan.planned_makespan <= plan.greedy_makespan + 1e-9

    # the committed schedule respects every DAG edge
    by_id = {t.task_id: t for t in tasks}
    for t in tasks:
        assert t.end_time >= t.start_time
        for dep_id in t.dep_ids:
            dep = by_id.get(dep_id)
            if dep is not None:
                assert t.start_time >= dep.end_time - 1e-12, (
                    f"task {t.name} started before its dependency "
                    f"{dep.name} finished"
                )

    # a guard-dead variant must never execute, planned or fallback
    assert all(rec.variant != "dead_cuda" for rec in rt.trace.tasks)

    # shutdown runs the full TraceChecker (check=True)
    rt.shutdown()


def _coherence(tasks):
    """(valid nodes, their ready times) of every handle the tasks touch."""
    return {
        op.handle.handle_id: tuple(
            (n, op.handle.ready_at(n)) for n in op.handle.valid_nodes()
        )
        for t in tasks
        for op in t.operands
    }


@given(
    segments=_SEGMENTS,
    primes=_PRIMES,
    window=_WINDOW,
    fusion=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_beam_states_replay_from_fresh_state(segments, primes, window, fusion):
    """Aliasing oracle for the copy-on-write planner states.

    Beam states share every map they did not change with their parent
    and siblings.  Replaying each final-beam state's choice vector —
    and the greedy baseline's, which ``plan_window`` commits whenever
    the beam does not beat it — from a fresh initial state (one
    lineage, nothing shared with any other timeline) must reproduce its
    makespan, task ends and fused edges exactly; and planning must
    leave the live handles' coherence state untouched.
    """
    plan_window = LookaheadScheduler.plan_window
    beam = LookaheadScheduler._beam
    commit = LookaheadScheduler._commit
    committed: list = []
    final: list = []
    replayed: list = []

    def spy_commit(state, i, step, view):
        committed.append(state)
        commit(state, i, step, view)

    def capture_beam(self, initial, steps, view):
        # every commit so far belongs to the greedy pass: its last one
        # is the final greedy state
        greedy = committed[-1]
        states = beam(self, initial, steps, view)
        final.append((steps, greedy, states))
        return states

    def replay(self, tasks, view, steps, state):
        fresh = self._initial_state(tasks, view)
        for i, j in enumerate(state.choice):
            fresh = self._expand(fresh, i, steps[i], view)[j]
            commit(fresh, i, steps[i], view)
        assert (fresh.makespan, fresh.ends, fresh.fused) == (
            state.makespan,
            state.ends,
            state.fused,
        )
        replayed.append(state)

    def checked_plan_window(self, tasks, view):
        before = _coherence(tasks)
        committed.clear()
        final.clear()
        plan_window(self, tasks, view)
        assert _coherence(tasks) == before, "planning mutated live handles"
        for steps, greedy, states in final:
            plan = self.plans[-1]
            assert plan.greedy_makespan == greedy.makespan
            assert plan.planned_makespan in {
                s.makespan for s in (greedy, *states)
            }
            replay(self, tasks, view, steps, greedy)
            for state in states:
                replay(self, tasks, view, steps, state)

    with mock.patch.object(
        LookaheadScheduler, "plan_window", checked_plan_window
    ), mock.patch.object(
        LookaheadScheduler, "_beam", capture_beam
    ), mock.patch.object(
        LookaheadScheduler, "_commit", staticmethod(spy_commit)
    ):
        rt, _ = _run_dag(segments, primes, window, fusion=fusion)
    assert replayed, "no planned window reached the oracle"
    rt.shutdown()
