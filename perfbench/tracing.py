"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces the public entry point of each layer (a class
attribute, restored on exit) with a wrapper that records one span per
call: name, start, end and the span that was open when the call began.
Spans stay in memory; :meth:`Tracer.write` saves them once, at the end
of the run.  A layer's self time is its spans' duration minus the time
covered by their direct child spans.

A call into a layer from inside a span of the same layer (the lookahead
scheduler falling back to its inner dmda ``choose``) is folded into the
outer span, so every call of a layer is counted once.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter_ns

from repro.cluster.node import ClusterNode
from repro.cluster.router import Cluster
from repro.composer.builder import Composer
from repro.composer.lookahead import LookaheadScheduler
from repro.containers.base import SmartContainer
from repro.runtime.codelet import ImplVariant
from repro.runtime.engine import Engine
from repro.runtime.perfmodel import PerfModel
from repro.runtime.schedulers.dmda import DmdaScheduler
from repro.runtime.task import Task, TaskState
from repro.serve.admission import AdmissionController
from repro.serve.batching import Coalescer
from repro.tuning.store import PerfModelStore

#: (span name, owner class, attribute): the public entry point of each
#: layer.  ``composer.stub`` is not here: the ode-tool workload wraps
#: the generated entry-wrappers it calls (see ``Tracer.wrap``).
LAYER_ENTRY_POINTS = (
    ("composer.compose", Composer, "compose"),
    ("tuning.load", PerfModelStore, "load"),
    ("containers.acquire", SmartContainer, "acquire"),
    ("engine.submit", Engine, "submit"),
    ("engine.drain", Engine, "wait_for_all"),
    ("sched.choose", DmdaScheduler, "choose"),
    ("sched.choose", LookaheadScheduler, "choose"),
    ("lookahead.plan", LookaheadScheduler, "plan_window"),
    ("perfmodel.predict", PerfModel, "predict"),
    ("perfmodel.record", PerfModel, "record"),
    ("hw.price", ImplVariant, "predict"),
    ("kernel", Task, "run_kernel"),
    ("serve.admit", AdmissionController, "decide"),
    ("serve.coalesce", Coalescer, "take_greedy"),
    ("cluster.run", Cluster, "run"),
    ("cluster.dispatch", ClusterNode, "submit_batch"),
)


class Tracer:
    """In-memory span recorder installed around the layer entry points."""

    def __init__(self) -> None:
        #: one ``[name, start_ns, end_ns, parent index, own index]`` per call
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._paused = False
        self._saved: list[tuple[type, str, object]] = []
        #: scheduling decisions: id(task) -> (task, model prediction of
        #: the chosen candidate, captured at ``choose``)
        self.predictions: dict[int, tuple[Task, float]] = {}
        #: all spans of every traced repetition, for :meth:`write`
        self.history: list[list[list]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if self._paused or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            rec = [name, perf_counter_ns(), 0, stack[-1][4] if stack else -1, len(spans)]
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return traced

    def _wrap_choose(self, fn):
        traced = self.wrap("sched.choose", fn)

        def choose(sched, task, view):
            decision = traced(sched, task, view)
            if not self._paused and task.codelet.performance_aware:
                self._paused = True
                try:
                    pred = view.predict_exec(task, decision.variant, decision.anchor)
                finally:
                    self._paused = False
                if pred is not None:
                    self.predictions[id(task)] = (task, pred)
            return decision

        return choose

    def __enter__(self) -> "Tracer":
        self.spans.clear()
        self.predictions.clear()
        for name, owner, attr in LAYER_ENTRY_POINTS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            wrapped = self._wrap_choose(fn) if name == "sched.choose" else self.wrap(name, fn)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        self._stack.clear()
        self.history.append([list(s[:4]) for s in self.spans])

    # -- folding -----------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, idx) in self.spans:
            d = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            d["calls"] += 1
            d["s"] += (end - start) * 1e-9
            d["self_s"] += (end - start - child[idx]) * 1e-9
        return out

    def prediction_error(self) -> float:
        """Median relative error of the captured predictions against the
        tasks' simulated durations (0.0 when nothing was predicted)."""
        errs = []
        for task, pred in self.predictions.values():
            if task.state is TaskState.DONE and task.chosen_variant is not None:
                actual = task.end_time - task.start_time
                if actual > 0:
                    errs.append(abs(pred - actual) / actual)
        return statistics.median(errs) if errs else 0.0

    def write(self, path: Path) -> Path:
        """Save every traced repetition's spans as JSON (one call, at the end).

        Each span is ``[name index, start ns, end ns, parent, count]``,
        times relative to the repetition's first span.  Consecutive
        childless sibling spans of one name merge into a single entry
        whose ``count`` says how many calls it covers.
        """
        names: dict[str, int] = {}
        reps = []
        for spans in self.history:
            has_child = [False] * len(spans)
            for s in spans:
                if s[3] >= 0:
                    has_child[s[3]] = True
            t0 = spans[0][1] if spans else 0
            out: list[list] = []
            where = [-1] * len(spans)
            last_leaf: dict[int, list] = {}
            for i, (name, start, end, parent) in enumerate(spans):
                nid = names.setdefault(name, len(names))
                p = where[parent] if parent >= 0 else -1
                prev = last_leaf.get(p)
                if not has_child[i] and prev is not None and prev[0] == nid:
                    prev[2] = end - t0
                    prev[4] += 1
                    continue
                rec = [nid, start - t0, end - t0, p, 1]
                where[i] = len(out)
                out.append(rec)
                last_leaf[p] = rec if not has_child[i] else None
            reps.append(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "count"],
                    "names": sorted(names, key=names.get),
                    "reps": reps,
                },
                separators=(",", ":"),
            )
        )
        return path
