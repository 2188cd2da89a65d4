"""Outside-in per-layer tracing for the benchmark.

The program under test has no spans of its own at the layer
boundaries the benchmark reports, so this module wraps each layer's
entry points from the outside: every module namespace under ``repro``
that binds a target function gets a timing wrapper in its place, and
methods are wrapped on their class.  A span is the interval of one
wrapped call; a layer's self time is the sum of its spans' durations
minus the time covered by their child spans.  Spans are aggregated in
memory per layer key and reported when the run ends.

A target that does not exist raises at install time, and a target that
was expected to run on a workload but never did fails the run's
self-check, so a renamed entry point never reports a zero layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

EVAL = "eval-best"
COMPILE_SUITE = "compile-suite"
COMPILE_GEN = "compile-generated"
BASE = "simulate-base"
COMPILING = (EVAL, COMPILE_SUITE, COMPILE_GEN)
ALL = (EVAL, COMPILE_SUITE, COMPILE_GEN, BASE)

RUN_BENCHMARK = "repro.benchsuite.runner.run_benchmark"

#: Layer keys of the spans that execute a program, mapped to the prefix
#: their interpreted-instruction and hot-trace counts are recorded under.
RUN_PREFIX = {
    "machine.base_run_s": "machine.base",
    "machine.spt_run_s": "machine.spt",
    "profiling.train_s": "profiling.train",
    "profiling.svp_s": "profiling.svp",
}


class _Frame:
    __slots__ = ("key", "label", "child_s", "timed_runs")

    def __init__(self, key: str, label: str):
        self.key = key
        self.label = label
        self.child_s = 0.0
        self.timed_runs = 0


class Target:
    """One wrapped entry point.

    ``key`` is the layer its self time is charged to: a string, a
    callable ``(recorder, args, kwargs) -> key``, or None for the
    enclosing span's layer.  ``before(recorder, args)`` may return a
    state that ``after(recorder, result, args, state)`` receives to
    record counts.  ``expected`` names the workloads on which the
    target must be called at least once.
    """

    def __init__(self, module: str, attr: str, key, expected,
                 after=None, before=None):
        self.module = module
        self.attr = attr
        self.key = key
        self.expected = frozenset(expected)
        self.after = after
        self.before = before

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


class SpanRecorder:
    """Aggregates span self times and counts while ``active``."""

    def __init__(self):
        self.active = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self._stack: List[_Frame] = []

    def enclosing(self, label: str) -> Optional[_Frame]:
        for frame in reversed(self._stack):
            if frame.label == label:
                return frame
        return None

    def current_key(self) -> Optional[str]:
        return self._stack[-1].key if self._stack else None

    def wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self
        label = target.label

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            recorder.calls[label] += 1
            key = target.key
            if callable(key):
                key = key(recorder, args, kwargs)
            if key is None:
                key = recorder.current_key() or "trace.unwrapped_s"
            frame = _Frame(key, label)
            stack = recorder._stack
            state = target.before(recorder, args) if target.before else None
            stack.append(frame)
            elapsed = 0.0
            try:
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    recorder.self_s[key] += elapsed - frame.child_s
                if target.after is not None:
                    target.after(recorder, result, args, state)
            finally:
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        return wrapper


class Installation:
    """Wrappers for a set of targets, installed until :meth:`remove`."""

    def __init__(self, recorder: SpanRecorder, targets: List[Target]):
        self._saved: List[Tuple[object, str, object]] = []
        try:
            for target in targets:
                self._install(recorder, target)
        except LookupError:
            self.remove()
            raise

    def _install(self, recorder: SpanRecorder, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                raise LookupError(f"trace target {target.label} does not exist")
            self._patch(owner, attr, recorder.wrap(vars(owner)[attr], target))
            return
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise LookupError(f"trace target {target.label} does not exist")
        wrapper = recorder.wrap(fn, target)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and vars(mod).get(attr) is fn:
                self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_check(recorder: SpanRecorder, workload: str) -> List[str]:
    """Problems with the traced run: expected targets never called, or
    run_benchmark calls without exactly one base and one SPT run."""
    problems = [
        f"trace target {t.label} was never called on {workload}"
        for t in TARGETS
        if workload in t.expected and not recorder.calls[t.label]
    ]
    programs = recorder.calls[RUN_BENCHMARK]
    if programs and recorder.counts["machine.spt_runs"] != programs:
        problems.append(
            f"{recorder.counts['machine.spt_runs']} SPT runs for "
            f"{programs} run_benchmark calls"
        )
    return problems


# -- the targets ------------------------------------------------------------


def _timed_run_key(recorder: SpanRecorder, args, kwargs) -> str:
    # Base vs SPT by call order inside run_benchmark: the SPT run of a
    # program with no selected loop has no extra tracers either.
    program = recorder.enclosing(RUN_BENCHMARK)
    if program is None:
        return "machine.base_run_s"
    program.timed_runs += 1
    return "machine.base_run_s" if program.timed_runs == 1 else "machine.spt_run_s"


def _timed_run_after(recorder: SpanRecorder, result, args, state) -> None:
    engine, _value = result
    if recorder.current_key() == "machine.base_run_s":
        recorder.counts["machine.base_cycles"] += engine.cycles
        recorder.counts["machine.base_instr"] += engine.instructions
    else:
        recorder.counts["machine.spt_runs"] += 1


def _profile_key(recorder: SpanRecorder, args, kwargs) -> str:
    from repro.profiling.value_profile import ValueProfile

    tracers = kwargs.get("tracers", args[2] if len(args) > 2 else ())
    if any(isinstance(t, ValueProfile) for t in tracers):
        return "profiling.svp_s"
    return "profiling.train_s"


def _machine_state(machine) -> Tuple[int, Dict[str, int]]:
    counters = getattr(machine, "_trace_counters", None)
    return machine.executed, (counters() if counters else {})


def _run_before(recorder: SpanRecorder, args):
    return _machine_state(args[0])


def _run_after(recorder: SpanRecorder, result, args, state) -> None:
    prefix = RUN_PREFIX.get(recorder.current_key())
    if prefix is None:
        return
    executed, traces = _machine_state(args[0])
    counts = recorder.counts
    counts[f"{prefix}_executed"] += executed - state[0]
    for name in ("ops_on_trace", "entries", "side_exits"):
        counts[f"{prefix}_{name}"] += traces.get(name, 0) - state[1].get(name, 0)


def _count(name: str, value: Callable) -> Callable:
    def after(recorder: SpanRecorder, result, args, state) -> None:
        recorder.counts[name] += value(result)

    return after


def _partition_after(recorder: SpanRecorder, result, args, state) -> None:
    counts = recorder.counts
    counts["core.search_nodes"] += result.search_nodes
    counts["core.cost_node_visits"] += result.cost_node_visits
    counts["core.cost_evaluations"] += result.evaluations
    counts["core.cost_cache_hits"] += result.cache_hits


def _compile_after(recorder: SpanRecorder, result, args, state) -> None:
    recorder.counts["core.loops_analyzed"] += len(result.candidates)
    recorder.counts["core.loops_selected"] += len(result.selected)


def _replay_after(recorder: SpanRecorder, result, args, state) -> None:
    recorder.counts["machine.spt_op_records"] += result.total_ops
    recorder.counts["machine.reexec_ops"] += result.reexec_ops


TARGETS: List[Target] = [
    Target("repro.benchsuite.runner", "run_benchmark",
           "benchsuite.runner_other_s", [EVAL],
           _count("machine.spt_cycles", lambda run: run.program_spt_cycles)),
    Target("repro.benchsuite.runner", "_build_clean_module",
           "benchsuite.clean_module_s", [EVAL, BASE]),
    Target("repro.benchsuite.runner", "_timed_run", _timed_run_key,
           [EVAL, BASE], _timed_run_after),
    Target("repro.machine.spt_sim", "simulate_spt_loop", "machine.replay_s",
           [EVAL], _replay_after),
    Target("repro.machine.timing", "TimingModel.__init__", None, [EVAL, BASE],
           _count("machine.timing_models", lambda _none: 1)),
    Target("repro.profiling.interp", "Machine.run", None, ALL,
           _run_after, _run_before),
    Target("repro.frontend.lower", "compile_minic",
           "frontend.compile_minic_s", ALL),
    Target("repro.core.unroll", "unroll_function", "core.unroll_s", ALL),
    Target("repro.ssa.construct", "build_ssa", "ssa.construct_s", ALL),
    Target("repro.ssa.optimize", "optimize", "ssa.optimize_s", ALL),
    Target("repro.core.pipeline", "compile_spt", "core.pipeline_other_s",
           COMPILING, _compile_after),
    Target("repro.core.pipeline", "_profile", _profile_key, COMPILING),
    Target("repro.core.pipeline", "make_machine", None, COMPILING),
    Target("repro.analysis.depgraph", "build_dep_graph",
           "analysis.depgraph_s", COMPILING),
    Target("repro.core.costgraph", "build_cost_graph", "core.costgraph_s",
           COMPILING),
    Target("repro.core.partition", "find_optimal_partition", "core.search_s",
           COMPILING, _partition_after),
    Target("repro.core.svp", "apply_svp", "core.svp_apply_s",
           [EVAL, COMPILE_SUITE]),
    Target("repro.core.selection", "select_spt_loops", "core.select_s",
           COMPILING),
    Target("repro.core.transform", "transform_loop", "core.transform_s",
           COMPILING),
]
