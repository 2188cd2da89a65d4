"""Compile-and-simulate driver for the workload suite.

For one benchmark and one compiler configuration this module produces
everything the paper's evaluation section reports:

* base-machine cycles / retired instructions / IPC (Table 1),
* the SPT compilation's candidate statistics (Figure 15),
* runtime coverage of the selected SPT loops and their count (Fig 16),
* per-loop dynamic body size and pre-fork fraction (Figure 17),
* per-loop misspeculation ratio and loop speedup (Figure 18),
* compiler-estimated cost vs. measured re-execution ratio (Figure 19),
* the program-level speedup (Figure 14).

The *base reference* is the same module compiled without any SPT work
(SSA + cleanup only, our -O3 stand-in) and timed on a single core.  The
SPT run replays the transformed module; program SPT time substitutes
each selected loop's simulated two-core time for its measured
sequential time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.loops import LoopNest
from repro.benchsuite.programs import Benchmark
from repro.core.config import SptConfig
from repro.core.pipeline import CompilationResult, Workload, compile_spt
from repro.core.selection import CATEGORY_VALID
from repro.frontend import compile_minic
from repro.machine.spt_sim import SptLoopStats, SptTraceCollector, simulate_spt_loop
from repro.machine.timing import TimingModel, TimingTracer
from repro.machine.vector_timing import VectorTimingEngine
from repro.profiling.compiled import CompiledMachine
from repro.profiling.interp import Machine
from repro.ssa import build_ssa, optimize


class LoopReport:
    """Per-SPT-loop evaluation record."""

    def __init__(
        self,
        func_name: str,
        header: str,
        stats: SptLoopStats,
        estimated_cost_ratio: float,
        prefork_size: float,
        body_size: float,
    ):
        self.func_name = func_name
        self.header = header
        self.stats = stats
        #: Compiler-estimated misspeculation cost / body size (Fig 19 x).
        self.estimated_cost_ratio = estimated_cost_ratio
        self.prefork_size = prefork_size
        self.body_size = body_size

    @property
    def key(self) -> Tuple[str, str]:
        return (self.func_name, self.header)


class BenchmarkRun:
    """All measurements for one (benchmark, configuration) pair."""

    def __init__(self, name: str, config_name: str):
        self.name = name
        self.config_name = config_name
        # Base reference (single core, no SPT).
        self.base_cycles = 0.0
        self.base_instructions = 0
        # SPT run.
        self.spt_run_cycles = 0.0
        self.program_spt_cycles = 0.0
        self.loops: List[LoopReport] = []
        self.compilation: Optional[CompilationResult] = None
        self.result_value = None
        self.base_result_value = None

    # -- derived metrics ---------------------------------------------------

    @property
    def base_ipc(self) -> float:
        return self.base_instructions / self.base_cycles if self.base_cycles else 0.0

    @property
    def program_speedup(self) -> float:
        if not self.program_spt_cycles:
            return 1.0
        return self.base_cycles / self.program_spt_cycles

    @property
    def spt_loop_count(self) -> int:
        return len(self.loops)

    @property
    def coverage(self) -> float:
        """Fraction of run cycles spent in the selected SPT loops."""
        if not self.spt_run_cycles:
            return 0.0
        covered = sum(report.stats.seq_cycles for report in self.loops)
        return min(1.0, covered / self.spt_run_cycles)

    def max_loop_coverage(self, tracer_loop_cycles: Dict, config: SptConfig) -> float:
        """Coverage of *all* loop candidates within the size limit --
        the upper bound the paper compares against in Figure 16."""
        if not self.spt_run_cycles or self.compilation is None:
            return 0.0
        eligible = []
        for candidate in self.compilation.candidates:
            if candidate.dynamic_body_size > config.max_body_size:
                continue
            cycles = tracer_loop_cycles.get(
                (candidate.func_name, candidate.loop.header), 0.0
            )
            eligible.append((candidate, cycles))
        # Resolve nesting: greedy by cycles, skip loops nested in a pick.
        eligible.sort(key=lambda pair: -pair[1])
        chosen: List = []
        total = 0.0
        for candidate, cycles in eligible:
            conflict = False
            for other in chosen:
                if other.func_name != candidate.func_name:
                    continue
                if (
                    candidate.loop.header in other.loop.body
                    or other.loop.header in candidate.loop.body
                ):
                    conflict = True
                    break
            if not conflict:
                chosen.append(candidate)
                total += cycles
        return min(1.0, total / self.spt_run_cycles)


def _build_clean_module(bench: Benchmark):
    """The non-SPT base reference: frontend + unrolling + SSA + cleanup.

    The paper's base reference is full -O3 output, which includes ORC's
    own DO-loop unrolling -- so the baseline unrolls counted loops
    exactly like the basic SPT compilation does (while-loops excluded,
    as in ORC).
    """
    from repro.core.config import basic_config
    from repro.core.unroll import unroll_function

    module = compile_minic(bench.source, name=bench.name)
    base_unroll = basic_config()
    for func in module.functions.values():
        unroll_function(func, base_unroll)
    for func in module.functions.values():
        build_ssa(func)
        optimize(func)
    return module


def _timed_run(module, entry: str, args, extra_tracers=(), config=None):
    """Simulate one run and return (timing accounting, result).

    The default path runs the trace-compiled interpreter with the
    vectorized timing engine (bitwise-identical cycles to a
    ``Machine`` + ``TimingTracer`` run; see
    ``tests/machine/test_vector_timing.py``).  ``config`` flags select
    slower paths: ``vector_timing=False`` falls back to a
    :class:`TimingTracer`, ``fast_interp=False`` to the reference
    interpreter.  With the engine, SPT trace collectors among
    ``extra_tracers`` are loop-scoped (:mod:`repro.profiling.capture`):
    their loops' ops are captured inline with load ticks from the
    engine's cache hierarchy, and everything else keeps hot traces.
    Without it, and for tracers hooking per-op events, hooks are
    dispatched per op and hot traces stay off.
    """
    fast = config.fast_interp if config is not None else True
    trace = config.trace_interp if config is not None else True
    vector = config.vector_timing if config is not None else True
    if fast and vector:
        engine = VectorTimingEngine(TimingModel())
        machine = CompiledMachine(module, trace=trace, timing_engine=engine)
        for extra in extra_tracers:
            machine.add_tracer(extra)
        result = machine.run(entry, list(args))
        engine.flush()
        return engine, result
    tracer = TimingTracer(TimingModel())
    machine = CompiledMachine(module, trace=trace) if fast else Machine(module)
    machine.add_tracer(tracer)
    for extra in extra_tracers:
        machine.add_tracer(extra)
    result = machine.run(entry, list(args))
    return tracer, result


def run_benchmark(
    bench: Benchmark, config: SptConfig, config_name: str = "spt"
) -> BenchmarkRun:
    """Compile ``bench`` under ``config`` and simulate base + SPT runs."""
    run = BenchmarkRun(bench.name, config_name)

    # -- base reference (Table 1) ----------------------------------------
    base_module = _build_clean_module(bench)
    base_tracer, base_result = _timed_run(
        base_module, "main", [bench.eval_n], config=config
    )
    run.base_cycles = base_tracer.cycles
    run.base_instructions = base_tracer.instructions
    run.base_result_value = base_result

    # -- SPT compilation ------------------------------------------------------
    spt_module = compile_minic(bench.source, name=bench.name)
    workload = Workload(entry="main", args=(bench.train_n,))
    compilation = compile_spt(spt_module, config, workload)
    run.compilation = compilation

    # -- SPT evaluation run -----------------------------------------------------
    collectors: List[SptTraceCollector] = []
    collector_meta: List[Tuple[str, str, float, float, float]] = []
    for candidate, info in zip(compilation.selected, compilation.spt_loops):
        func = spt_module.function(candidate.func_name)
        nest = LoopNest.build(func)
        loop = next(
            (l for l in nest.loops if l.header == candidate.loop.header), None
        )
        if loop is None:
            continue
        collectors.append(
            SptTraceCollector(
                candidate.func_name, loop.header, loop.body, info.loop_id
            )
        )
        collector_meta.append(
            (
                candidate.func_name,
                loop.header,
                candidate.partition.cost_ratio,
                candidate.partition.prefork_size,
                candidate.dynamic_body_size,
            )
        )

    spt_tracer, spt_result = _timed_run(
        spt_module, "main", [bench.eval_n], extra_tracers=collectors, config=config
    )
    run.spt_run_cycles = spt_tracer.cycles
    run.result_value = spt_result
    run._spt_loop_cycles = dict(spt_tracer.loop_cycles)

    substituted = spt_tracer.cycles
    for collector, meta in zip(collectors, collector_meta):
        stats = simulate_spt_loop(collector)
        func_name, header, cost_ratio, prefork_size, body_size = meta
        run.loops.append(
            LoopReport(func_name, header, stats, cost_ratio, prefork_size, body_size)
        )
        substituted += stats.spt_cycles - stats.seq_cycles
    run.program_spt_cycles = substituted
    return run
