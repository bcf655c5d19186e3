"""Lookahead planning: globally optimized composition over DAG windows.

The paper composes greedily — every invocation is placed the moment it
becomes ready, by dmda's per-task minimum-completion rule.  Its direct
follow-up ("Optimized Composition", Kessler & Dastgeer) shows that
*planning whole call sequences* over multi-variant components and smart
containers beats greedy selection, because a per-task optimum happily
ping-pongs an operand over PCIe when keeping it device-resident for the
next consumer would be globally cheaper.

:class:`LookaheadScheduler` (policy name ``"lookahead"``) is a
:class:`~repro.runtime.schedulers.bulk.BulkScheduler`: the engine
buffers up to ``window_size`` submitted tasks and hands the window's DAG
to :meth:`plan_window` before committing any placement.  The planner
runs a beam-pruned dynamic program over joint (variant, worker) choices
in submission order (a valid topological order under sequential data
consistency), scoring each prefix with

- kernel time from the learned performance model (never ground truth —
  the same
  :meth:`~repro.runtime.schedulers.base.EngineView.calibrated_estimates`
  dmda uses, so warm tuning-store models, ``measured``-provenance
  calibration and analytical history all flow in), and
- modeled PCIe transfer costs seeded from the *current* MSI coherence
  state of every operand, with per-(node, direction) link serialization
  mirroring the engine's own estimator.

**Container-aware fusion** (``fusion=True``, the default) threads the
projected residency of intermediates through the plan: when a
producer→consumer pair lands on the same device, the consumer pays no
transfer — the intermediate host round-trip is elided exactly as the
engine's lazy MSI coherence will realize it.  ``fusion=False`` scores
the conservative composition instead (every in-window intermediate is
assumed to materialize on the host before its consumers), which is the
ablation arm of ``experiments/planner.py``.

The planner always simulates a greedy dmda-style baseline under the same
cost model and commits whichever plan has the lower modeled makespan, so
by construction the committed plan's modeled cost never exceeds the
greedy modeled cost (a property the differential suite asserts per
window).  Windows containing any task the model cannot yet price — an
uncalibrated variant, or a ``performance_aware=False`` codelet — are not
planned at all: every task falls back to the inner dmda, which owns the
exploration/calibration semantics.  The same fallback catches tasks that
escape the window (fault-recovery retries on dead placements, stale
plans after a device loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.hw.description import HOST_NODE
from repro.runtime.schedulers.base import (
    Decision,
    EngineView,
    enumerate_candidates,
)
from repro.runtime.schedulers.bulk import BulkScheduler
from repro.runtime.schedulers.dmda import DmdaScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.task import Task

#: strict-improvement margin: the DP plan replaces the greedy baseline
#: only when its modeled makespan is better by more than this (ties keep
#: the dmda-shaped plan, so lookahead never diverges from dmda for free)
_EPS = 1e-12


@dataclass(frozen=True)
class WindowPlan:
    """Planning outcome for one committed window (introspection/tests)."""

    #: tasks in the window
    n_tasks: int
    #: modeled makespan of the committed plan (None for fallback windows)
    planned_makespan: float | None
    #: modeled makespan of the greedy dmda-style baseline
    greedy_makespan: float | None
    #: producer→consumer pairs whose host round-trip the plan elides
    n_fused_edges: int
    #: (task name, variant name, worker ids) per task, in plan order
    decisions: tuple[tuple[str, str, tuple[int, ...]], ...]
    #: True when the window was not plannable (uncalibrated model or
    #: history-less codelet) and every task fell back to the inner dmda
    fallback: bool


class _Step(NamedTuple):
    """One task's planning invariants, compiled once per window."""

    earliest: float
    #: plan indices of the task's in-window dependencies
    deps: tuple[int, ...]
    #: (handle_id, nbytes) per read operand, then per written operand
    reads: tuple[tuple[int, int], ...]
    writes: tuple[tuple[int, int], ...]
    #: (memory node, worker ids, predicted exec seconds) per candidate
    cands: list[tuple[int, tuple[int, ...], float]]


class _SimState:
    """One speculative timeline the planner extends task by task.

    Mirrors exactly the engine state a placement commit would mutate:
    per-worker availability, per-(node, direction) link occupancy, and
    the projected residency (node → ready time) of every handle the
    window touches.

    States are copy-on-write: a child shares every map it does not
    change with its parent, and every map, once shared, is never
    mutated again — a change replaces the map (and the residency or
    host-seen entry) instead.  Extending a state therefore shallow-copies
    only the maps it touches instead of deep-copying all of them.
    """

    __slots__ = (
        "avail",
        "link",
        "res",
        "host_seen",
        "ends",
        "choice",
        "fused",
        "makespan",
    )

    def __init__(
        self,
        avail: list[float],
        link: dict[tuple[int, str], float],
        res: dict[int, dict[int, float]],
        host_seen: dict[int, tuple],
        ends: tuple[float, ...] = (),
        choice: tuple[int, ...] = (),
        fused: tuple[tuple[int, int], ...] = (),
        makespan: float = 0.0,
    ) -> None:
        self.avail = avail
        self.link = link
        self.res = res
        #: handle_id -> (host-ready time, writer node, writer plan-index,
        #: host-read-since-write?)
        self.host_seen = host_seen
        self.ends = ends
        self.choice = choice
        #: (writer plan-index, consumer plan-index) fused edges
        self.fused = fused
        self.makespan = makespan


class LookaheadScheduler(BulkScheduler):
    """Window-planning bulk policy (the ``"lookahead"`` name).

    Parameters
    ----------
    window_size:
        Tasks buffered before the engine forces a flush; sync points
        (``wait_for_all``, smart-container accesses, ``unpartition``)
        flush earlier.
    beam_width:
        Speculative timelines kept per planning step.  1 degenerates to
        a greedy pass under the planner's cost model; larger widths
        explore more joint choices at linear cost.
    fusion:
        Thread projected residency of in-window intermediates through
        the plan (elide host round-trips).  ``False`` scores the
        conservative materialize-to-host composition instead.
    calibration_samples:
        Per-(size-bucket, variant) observations required before a task
        counts as plannable; below that the window falls back to the
        inner dmda, which owns exploration (same default as dmda).
    fallback_options:
        Extra keyword arguments for the inner
        :class:`~repro.runtime.schedulers.dmda.DmdaScheduler`.
    """

    name = "lookahead"

    def __init__(
        self,
        window_size: int = 16,
        beam_width: int = 8,
        fusion: bool = True,
        calibration_samples: int = 2,
        fallback_options: dict | None = None,
    ) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        self.window_size = int(window_size)
        self.beam_width = int(beam_width)
        self.fusion = bool(fusion)
        self.calibration_samples = int(calibration_samples)
        self._inner = DmdaScheduler(
            calibration_samples=calibration_samples,
            **dict(fallback_options or {}),
        )
        self._plan: dict[int, Decision] = {}
        #: one record per committed window, in flush order
        self.plans: list[WindowPlan] = []
        # counters (experiments and tests read these)
        self.n_windows = 0
        self.n_planned_windows = 0
        self.n_fallback_windows = 0
        self.n_planned_tasks = 0
        self.n_fallback_tasks = 0
        self.n_fused_edges = 0

    # ------------------------------------------------------------------
    # per-task commit (the engine's choose hot path)
    # ------------------------------------------------------------------

    def choose(self, task: "Task", view: EngineView) -> Decision:
        decision = self._plan.pop(task.task_id, None)
        if decision is not None:
            failed = task.failed_on
            usable = all(
                view.worker_usable(u.unit_id) for u in decision.workers
            )
            if usable and (
                not failed
                or (decision.variant.name, decision.anchor.unit_id)
                not in failed
            ):
                self.n_planned_tasks += 1
                return decision
        # stale plan entry, faulted placement, or a task that escaped
        # the window: dmda decides (and owns exploration accounting)
        self.n_fallback_tasks += 1
        return self._inner.choose(task, view)

    # ------------------------------------------------------------------
    # window planning
    # ------------------------------------------------------------------

    def plan_window(self, tasks: Sequence["Task"], view: EngineView) -> None:
        self.n_windows += 1
        index = {t.task_id: i for i, t in enumerate(tasks)}
        candidates: list[list[Decision]] = []
        steps: list[_Step] = []
        plannable = True
        for task in tasks:
            cands = enumerate_candidates(task, view)
            candidates.append(cands)
            if not plannable:
                continue
            estimates = (
                view.calibrated_estimates(task, cands, self.calibration_samples)
                if task.codelet.performance_aware
                else None
            )
            if estimates is None:
                plannable = False
            else:
                steps.append(self._compile(task, cands, estimates, index))
        if not plannable:
            # calibration phase (or history-less codelets): the inner
            # dmda places every task — identical semantics to running
            # dmda outright, exploration counters included
            self.n_fallback_windows += 1
            self.plans.append(
                WindowPlan(
                    n_tasks=len(tasks),
                    planned_makespan=None,
                    greedy_makespan=None,
                    n_fused_edges=0,
                    decisions=(),
                    fallback=True,
                )
            )
            return

        initial = self._initial_state(tasks, view)

        # greedy dmda-style baseline under the identical cost model: each
        # task keeps its minimum-(end, anchor unit) child
        greedy = initial
        for i, step in enumerate(steps):
            greedy = min(
                self._expand(greedy, i, step, view),
                key=lambda s: (s.ends[-1], step.cands[s.choice[-1]][1][0]),
            )
            self._commit(greedy, i, step, view)

        beam = self._beam(initial, steps, view)
        best = beam[0]
        chosen = best if best.makespan < greedy.makespan - _EPS else greedy
        self.n_planned_windows += 1
        self.n_fused_edges += len(chosen.fused)
        committed: list[tuple[str, str, tuple[int, ...]]] = []
        for i, task in enumerate(tasks):
            d = candidates[i][chosen.choice[i]]
            self._plan[task.task_id] = d
            committed.append(
                (task.name, d.variant.name, tuple(u.unit_id for u in d.workers))
            )
        self.plans.append(
            WindowPlan(
                n_tasks=len(tasks),
                planned_makespan=chosen.makespan,
                greedy_makespan=greedy.makespan,
                n_fused_edges=len(chosen.fused),
                decisions=tuple(committed),
                fallback=False,
            )
        )

    # ------------------------------------------------------------------
    # cost model internals
    # ------------------------------------------------------------------

    @staticmethod
    def _compile(
        task: "Task",
        cands: list[Decision],
        estimates: list[float],
        index: dict[int, int],
    ) -> _Step:
        """Compile one task of the window (``estimates``: predicted exec
        seconds per candidate; ``index``: task id → plan index) into its
        planning step."""
        ops = [
            (op.mode, op.handle.handle_id, op.handle.nbytes)
            for op in task.operands
        ]
        return _Step(
            task.earliest_start,
            tuple(index[d] for d in task.dep_ids if d in index),
            tuple((hid, nb) for mode, hid, nb in ops if mode.reads),
            tuple((hid, nb) for mode, hid, nb in ops if mode.writes),
            [
                (d.anchor.memory_node, tuple(u.unit_id for u in d.workers), est)
                for d, est in zip(cands, estimates)
            ],
        )

    @staticmethod
    def _initial_state(
        tasks: Sequence["Task"], view: EngineView
    ) -> _SimState:
        """Seed the simulation from live engine state: worker clocks and
        the committed MSI residency of every window operand."""
        res: dict[int, dict[int, float]] = {}
        for task in tasks:
            for op in task.operands:
                h = op.handle
                if h.handle_id not in res:
                    res[h.handle_id] = {
                        n: h.ready_at(n) for n in h.valid_nodes()
                    }
        return _SimState(list(view.worker_available_times()), {}, res, {})

    def _beam(
        self, initial: _SimState, steps: list[_Step], view: EngineView
    ) -> list[_SimState]:
        """Beam-pruned DP over joint (variant, worker) choices; returns
        the final beam, best first.  Only survivors get their writes
        committed — a pruned child never pays for them."""
        beam = [initial]
        for i, step in enumerate(steps):
            grown = [
                c for s in beam for c in self._expand(s, i, step, view)
            ]
            grown.sort(key=lambda s: (s.makespan, sum(s.avail), s.choice))
            beam = grown[: self.beam_width]
            for s in beam:
                self._commit(s, i, step, view)
        return beam

    @staticmethod
    def _transfer(
        link: dict[tuple[int, str], float],
        src: int,
        dst: int,
        nbytes: int,
        earliest: float,
        view: EngineView,
    ) -> float:
        """Model one copy src→dst with link serialization (recorded in
        ``link``); returns the arrival time.  Device-to-device stages
        through the host, like the engine's committed transfers."""
        if src != HOST_NODE and dst != HOST_NODE:
            earliest = LookaheadScheduler._transfer(
                link, src, HOST_NODE, nbytes, earliest, view
            )
            src = HOST_NODE
        direction = "d2h" if dst == HOST_NODE else "h2d"
        link_node = src if dst == HOST_NODE else dst
        key = (link_node, direction)
        busy_until = link.get(key)
        if busy_until is None:
            # seed from the live DMA queue: transfers committed by
            # earlier windows may still occupy the link
            busy_until = view.link_available(link_node, direction)
        if busy_until > earliest:
            earliest = busy_until
        end = earliest + view.transfer_time(src, dst, nbytes)
        link[key] = end
        return end

    def _expand(
        self, state: _SimState, i: int, step: _Step, view: EngineView
    ) -> list[_SimState]:
        """Every child of ``state`` at step ``i``, one per candidate, in
        candidate order.  ``state`` is left untouched; the step's writes
        are applied later by :meth:`_commit`."""
        earliest, deps, reads, _, cands = step
        fusion = self.fusion
        ready = earliest
        ends = state.ends
        for d in deps:
            if ends[d] > ready:
                ready = ends[d]
        s_res, s_seen, s_link = state.res, state.host_seen, state.link
        s_avail, s_choice, s_make = state.avail, state.choice, state.makespan
        s_fused = state.fused
        children = []
        for j, (node, wids, exec_s) in enumerate(cands):
            data_ready = ready
            res = s_res
            seen_map = s_seen
            link = s_link
            fused = s_fused
            for hid, nbytes in reads:
                seen = seen_map.get(hid)
                if not fusion and seen is not None:
                    # conservative composition: the in-window intermediate
                    # materializes on the host before any consumer
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
                    # cheapest-ready valid source, host preferred (the
                    # engine's pick_source tie-break)
                    src, src_ready = HOST_NODE, None
                    for n, r in rmap.items():
                        if src_ready is None or r < src_ready:
                            src, src_ready = n, r
                    if res is s_res:  # first change: copy, never mutate
                        res, link = res.copy(), link.copy()
                    t = self._transfer(
                        link, src, node, nbytes,
                        max(ready, src_ready or 0.0), view,
                    )
                    # the staged copy becomes SHARED there
                    res[hid] = {**rmap, node: t}
                if t > data_ready:
                    data_ready = t
                if node == HOST_NODE and seen is not None and not seen[3]:
                    if seen_map is s_seen:
                        seen_map = seen_map.copy()
                    seen_map[hid] = seen[:3] + (True,)  # a host reader
            avail = s_avail[:]
            start = data_ready  # and every worker of the placement free
            for w in wids:
                if avail[w] > start:
                    start = avail[w]
            end = start + exec_s
            for w in wids:
                avail[w] = end
            children.append(_SimState(
                avail, link, res, seen_map,
                ends + (end,),
                s_choice + (j,),
                fused,
                end if end > s_make else s_make,
            ))
        return children

    @staticmethod
    def _commit(
        state: _SimState, i: int, step: _Step, view: EngineView
    ) -> None:
        """Apply the writes of ``state``'s last placement (step ``i``)."""
        writes = step.writes
        if not writes:
            return
        node = step.cands[state.choice[-1]][0]
        end = state.ends[-1]
        res = state.res = state.res.copy()
        seen_map = state.host_seen = state.host_seen.copy()
        for hid, nbytes in writes:
            # MSI write: the target node becomes the sole owner
            res[hid] = {node: end}
            host_t = (
                end
                if node == HOST_NODE
                else end + view.transfer_time(node, HOST_NODE, nbytes)
            )
            seen_map[hid] = (host_t, node, i, False)
