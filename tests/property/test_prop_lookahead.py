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
  (``check=True``), coherence invariants included;
- every window's :class:`WindowPlan` equals, bit for bit, the one a
  plain reference planner (the exhaustive beam DP: expand every child,
  sort, keep the best ``beam_width``; a separate greedy pass) commits.

The runtime self-calibrates: the warmup phase runs under lookahead too,
whose uncalibrated windows fall back to the inner dmda — exploration and
model-building are dmda's job, planning only starts once the model can
price every candidate.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.composer.lookahead import LookaheadScheduler, WindowPlan
from repro.hw.description import HOST_NODE
from repro.hw.presets import machine
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.schedulers.base import enumerate_candidates

N = 64
N_HANDLES = 6

_SEGMENT = st.tuples(
    st.sampled_from(["chain", "fanout", "diamond"]),
    st.integers(min_value=0, max_value=N_HANDLES - 1),  # base handle
    st.integers(min_value=2, max_value=4),  # segment width/length
)
_SEGMENTS = st.lists(_SEGMENT, min_size=1, max_size=4)
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


def _run_dag(
    segments, primes, window, fusion=True, beam_width=4, preset="c2050",
    n=N,
):
    """Calibrate, prime residency, then submit and drain the random DAG
    (over ``n``-element handles) under lookahead; returns the runtime and
    the DAG's tasks."""
    rt = Runtime(
        machine(preset),
        scheduler="lookahead",
        scheduler_options={
            "window_size": window,
            "beam_width": beam_width,
            "fusion": fusion,
        },
        seed=3,
        noise_sigma=0.0,
        check=True,
    )
    codelets = _codelets()
    alpha, beta, guarded, primer = codelets
    handles = [
        rt.register(np.zeros(n, dtype=np.float32), f"h{i}")
        for i in range(N_HANDLES)
    ]
    warm = [
        rt.register(np.zeros(n, dtype=np.float32), f"w{i}") for i in range(5)
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


#: a DAG on which one window's beam beats its greedy baseline, so the
#: DAG-edge, guard and plan <= greedy checks run on a real DP plan on
#: every run (with 64-element handles transfers are too cheap for the
#: beam to ever beat greedy)
BEATS_GREEDY = dict(
    segments=[("chain", 1, 2)], primes=[False] * N_HANDLES, window=3,
    n=1 << 16,
)


@given(
    segments=_SEGMENTS, primes=_PRIMES, window=_WINDOW,
    n=st.sampled_from([N, 1 << 16]),
)
@example(**BEATS_GREEDY)
@settings(max_examples=25, deadline=None)
def test_random_dag_windows_plan_legally(segments, primes, window, n):
    rt, tasks = _run_dag(segments, primes, window, n=n)
    sched = rt.scheduler

    # the calibrated DAG phase must actually have produced planned
    # windows, and each one's modeled cost never exceeds its greedy
    # baseline's (the min(DP, greedy) construction)
    planned = [p for p in sched.plans if not p.fallback]
    assert planned, "no window was planned after calibration"
    for plan in planned:
        assert plan.planned_makespan <= plan.greedy_makespan + 1e-9
    drawn = dict(segments=segments, primes=primes, window=window, n=n)
    if drawn == BEATS_GREEDY:
        assert any(p.planned_makespan < p.greedy_makespan for p in planned)

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


def _fields(state):
    """Everything a planner state carries, maps included."""
    return (
        state.avail, state.link, state.res, state.host_seen, state.ends,
        state.choice, state.fused, state.makespan,
    )


@given(
    segments=_SEGMENTS,
    primes=_PRIMES,
    window=_WINDOW,
    fusion=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_beam_states_replay_from_fresh_state(segments, primes, window, fusion):
    """Aliasing oracle for the copy-on-write planner states.

    Built states share every map they did not change with their parent
    and siblings.  Once a window is planned, replaying the choice vector
    of every state the search built — the best and greedy states it
    returns among them — from a fresh initial state (one lineage,
    nothing shared with any other timeline) must reproduce that state
    exactly, every map included; and planning must leave the live
    handles' coherence state untouched.
    """
    plan_window = LookaheadScheduler.plan_window
    search = LookaheadScheduler._search
    build = LookaheadScheduler._build
    built: list = []
    final: list = []
    replayed: list = []

    def spy_build(parent, i, step, j, child, view):
        state = build(parent, i, step, j, child, view)
        built.append(state)
        return state

    def capture_search(self, initial, steps, view):
        best, greedy = search(self, initial, steps, view)
        final.append((steps, best, greedy))
        return best, greedy

    def replay(self, tasks, view, steps, state):
        fresh = self._initial_state(tasks, view)
        for i, j in enumerate(state.choice):
            step = steps[i]
            ready = self._ready(fresh, step)
            child = self._score(fresh, ready, i, step, j, view)
            fresh = build(fresh, i, step, j, child, view)
        assert _fields(fresh) == _fields(state)
        replayed.append(state)

    def checked_plan_window(self, tasks, view):
        before = _coherence(tasks)
        built.clear()
        final.clear()
        plan_window(self, tasks, view)
        assert _coherence(tasks) == before, "planning mutated live handles"
        for steps, best, greedy in final:
            plan = self.plans[-1]
            assert plan.greedy_makespan == greedy.makespan
            assert plan.planned_makespan in {best.makespan, greedy.makespan}
            assert any(s is best for s in built)
            assert any(s is greedy for s in built)
            for state in built:
                replay(self, tasks, view, steps, state)

    with mock.patch.object(
        LookaheadScheduler, "plan_window", checked_plan_window
    ), mock.patch.object(
        LookaheadScheduler, "_search", capture_search
    ), mock.patch.object(
        LookaheadScheduler, "_build", staticmethod(spy_build)
    ):
        rt, _ = _run_dag(segments, primes, window, fusion=fusion)
    assert replayed, "no planned window reached the oracle"
    rt.shutdown()


# -- differential oracle: the exhaustive beam DP ------------------------------
#
# The planner as it stood before branch-and-bound selection: every child
# of every beam state is simulated and built, the children are sorted by
# (makespan, sum(avail), choice) and the best ``beam_width`` survive; the
# greedy baseline is a separate pass that shares nothing with the beam.
# The production planner must commit bit-identical plans.


class _RefState:
    __slots__ = (
        "avail", "link", "res", "host_seen", "ends", "choice", "fused",
        "makespan",
    )

    def __init__(self, avail, link, res, host_seen, ends=(), choice=(),
                 fused=(), makespan=0.0):
        self.avail = avail
        self.link = link
        self.res = res
        self.host_seen = host_seen
        self.ends = ends
        self.choice = choice
        self.fused = fused
        self.makespan = makespan


def _ref_compile(task, cands, estimates, index):
    ops = [
        (op.mode, op.handle.handle_id, op.handle.nbytes)
        for op in task.operands
    ]
    return (
        task.earliest_start,
        tuple(index[d] for d in task.dep_ids if d in index),
        tuple((hid, nb) for mode, hid, nb in ops if mode.reads),
        tuple((hid, nb) for mode, hid, nb in ops if mode.writes),
        [
            (d.anchor.memory_node, tuple(u.unit_id for u in d.workers), est)
            for d, est in zip(cands, estimates)
        ],
    )


def _ref_transfer(link, src, dst, nbytes, earliest, view):
    if src != HOST_NODE and dst != HOST_NODE:
        earliest = _ref_transfer(link, src, HOST_NODE, nbytes, earliest, view)
        src = HOST_NODE
    direction = "d2h" if dst == HOST_NODE else "h2d"
    link_node = src if dst == HOST_NODE else dst
    key = (link_node, direction)
    busy_until = link.get(key)
    if busy_until is None:
        busy_until = view.link_available(link_node, direction)
    if busy_until > earliest:
        earliest = busy_until
    end = earliest + view.transfer_time(src, dst, nbytes)
    link[key] = end
    return end


def _ref_expand(state, i, step, view, fusion):
    earliest, deps, reads, _, cands = step
    ready = earliest
    ends = state.ends
    for d in deps:
        if ends[d] > ready:
            ready = ends[d]
    s_res, s_seen, s_link = state.res, state.host_seen, state.link
    children = []
    for j, (node, wids, exec_s) in enumerate(cands):
        data_ready = ready
        res, seen_map, link, fused = s_res, s_seen, s_link, state.fused
        for hid, nbytes in reads:
            seen = seen_map.get(hid)
            if not fusion and seen is not None:
                t = seen[0]
                if node != HOST_NODE:
                    t = t + view.transfer_time(HOST_NODE, node, nbytes)
                if t > data_ready:
                    data_ready = t
                continue
            rmap = res[hid]
            t = rmap.get(node)
            if t is not None:
                if (
                    fusion
                    and node != HOST_NODE
                    and seen is not None
                    and seen[1] == node
                    and not seen[3]
                ):
                    fused = fused + ((seen[2], i),)
            else:
                src, src_ready = HOST_NODE, None
                for n, r in rmap.items():
                    if src_ready is None or r < src_ready:
                        src, src_ready = n, r
                if res is s_res:
                    res, link = res.copy(), link.copy()
                t = _ref_transfer(
                    link, src, node, nbytes, max(ready, src_ready or 0.0), view
                )
                res[hid] = {**rmap, node: t}
            if t > data_ready:
                data_ready = t
            if node == HOST_NODE and seen is not None and not seen[3]:
                if seen_map is s_seen:
                    seen_map = seen_map.copy()
                seen_map[hid] = seen[:3] + (True,)
        avail = state.avail[:]
        start = data_ready
        for w in wids:
            if avail[w] > start:
                start = avail[w]
        end = start + exec_s
        for w in wids:
            avail[w] = end
        children.append(_RefState(
            avail, link, res, seen_map, ends + (end,), state.choice + (j,),
            fused, end if end > state.makespan else state.makespan,
        ))
    return children


def _ref_commit(state, i, step, view):
    writes = step[3]
    if not writes:
        return
    node = step[4][state.choice[-1]][0]
    end = state.ends[-1]
    res = state.res = state.res.copy()
    seen_map = state.host_seen = state.host_seen.copy()
    for hid, nbytes in writes:
        res[hid] = {node: end}
        host_t = (
            end
            if node == HOST_NODE
            else end + view.transfer_time(node, HOST_NODE, nbytes)
        )
        seen_map[hid] = (host_t, node, i, False)


def _trail(state):
    """A planner state's timeline, floats spelled exactly."""
    return (
        state.choice,
        tuple(t.hex() for t in state.ends),
        state.fused,
        state.makespan.hex(),
    )


def _reference_plan(sched, tasks, view):
    """The WindowPlan the exhaustive planner commits for this window, and
    per step the timelines the production planner must build there: the
    surviving beam in rank order (only its best at the last step), then
    the greedy pick unless it is one of them."""
    index = {t.task_id: i for i, t in enumerate(tasks)}
    candidates, steps = [], []
    for task in tasks:
        cands = enumerate_candidates(task, view)
        candidates.append(cands)
        estimates = (
            view.calibrated_estimates(task, cands, sched.calibration_samples)
            if task.codelet.performance_aware
            else None
        )
        if estimates is None:
            return WindowPlan(len(tasks), None, None, 0, (), True), []
        steps.append(_ref_compile(task, cands, estimates, index))
    res = {}
    for task in tasks:
        for op in task.operands:
            h = op.handle
            if h.handle_id not in res:
                res[h.handle_id] = {n: h.ready_at(n) for n in h.valid_nodes()}
    initial = _RefState(list(view.worker_available_times()), {}, res, {})
    greedy = initial
    greedies = []
    for i, step in enumerate(steps):
        greedy = min(
            _ref_expand(greedy, i, step, view, sched.fusion),
            key=lambda s: (s.ends[-1], step[4][s.choice[-1]][1][0]),
        )
        _ref_commit(greedy, i, step, view)
        greedies.append(greedy)
    beam = [initial]
    builds = []
    for i, step in enumerate(steps):
        grown = [
            c for s in beam
            for c in _ref_expand(s, i, step, view, sched.fusion)
        ]
        grown.sort(key=lambda s: (s.makespan, sum(s.avail), s.choice))
        beam = grown[: sched.beam_width]
        for s in beam:
            _ref_commit(s, i, step, view)
        built = [_trail(s) for s in beam[: 1 if i == len(steps) - 1 else None]]
        if _trail(greedies[i]) not in built:
            built.append(_trail(greedies[i]))
        builds.append(built)
    best = beam[0]
    chosen = best if best.makespan < greedy.makespan - 1e-12 else greedy
    decisions = []
    for i, task in enumerate(tasks):
        d = candidates[i][chosen.choice[i]]
        decisions.append(
            (task.name, d.variant.name, tuple(u.unit_id for u in d.workers))
        )
    plan = WindowPlan(
        len(tasks), chosen.makespan, greedy.makespan, len(chosen.fused),
        tuple(decisions), False,
    )
    return plan, builds


def _exact(plan):
    """A WindowPlan with its floats spelled exactly."""
    return (
        plan.n_tasks,
        None if plan.planned_makespan is None else plan.planned_makespan.hex(),
        None if plan.greedy_makespan is None else plan.greedy_makespan.hex(),
        plan.n_fused_edges,
        plan.decisions,
        plan.fallback,
    )


@given(
    segments=st.lists(_SEGMENT, min_size=1, max_size=6),
    primes=_PRIMES,
    window=st.integers(min_value=1, max_value=16),
    beam_width=st.sampled_from([1, 2, 3, 8]),
    fusion=st.booleans(),
    preset=st.sampled_from(["c2050", "2xc2050"]),
    n=st.sampled_from([N, 1 << 14, 1 << 16]),
)
# pinned inputs on which a planner that prunes on a bound equal to the
# cut-off makespan, bounds over every worker instead of the placement's,
# ranks parents by beam position instead of choice, or ignores the
# greedy state's pruned children commits a different plan or beam
@example(
    segments=[("chain", 0, 2), ("chain", 1, 2)], primes=[False] * N_HANDLES,
    window=3, beam_width=1, fusion=False, preset="c2050", n=N,
)
@example(
    segments=[("diamond", 0, 2), ("chain", 3, 2)],
    primes=[False] * N_HANDLES, window=1, beam_width=1, fusion=False,
    preset="c2050", n=N,
)
@example(
    segments=[("fanout", 3, 3), ("chain", 0, 3)],
    primes=[False, False, False, True, False, False], window=3,
    beam_width=8, fusion=False, preset="c2050", n=N,
)
@example(
    segments=[("chain", 0, 2)], primes=[False] * N_HANDLES, window=2,
    beam_width=2, fusion=True, preset="c2050", n=1 << 16,
)
@settings(max_examples=60, deadline=None)
def test_plans_match_exhaustive_reference(
    segments, primes, window, beam_width, fusion, preset, n
):
    """Every committed WindowPlan equals the exhaustive planner's, field
    by field, floats compared by ``float.hex``; and at every step the
    planner builds exactly the reference's surviving beam, in rank
    order, and its greedy pick.  ``2xc2050`` adds device-to-device
    staging through the host; larger handles make transfers, and so
    the beam's choices, matter."""
    plan_window = LookaheadScheduler.plan_window
    build = LookaheadScheduler._build
    built: list = []
    compared = []

    def spy_build(parent, i, step, j, child, view):
        state = build(parent, i, step, j, child, view)
        built.append(state)
        return state

    def checked_plan_window(self, tasks, view):
        expected, builds = _reference_plan(self, tasks, view)
        built.clear()
        plan_window(self, tasks, view)
        assert _exact(self.plans[-1]) == _exact(expected)
        steps = [[] for _ in builds]
        for state in built:
            steps[len(state.choice) - 1].append(_trail(state))
        assert steps == builds
        compared.append(expected.fallback)

    with mock.patch.object(
        LookaheadScheduler, "plan_window", checked_plan_window
    ), mock.patch.object(
        LookaheadScheduler, "_build", staticmethod(spy_build)
    ):
        rt, _ = _run_dag(
            segments, primes, window, fusion=fusion,
            beam_width=beam_width, preset=preset, n=n,
        )
    assert not all(compared), "no planned window reached the oracle"
    rt.shutdown()
