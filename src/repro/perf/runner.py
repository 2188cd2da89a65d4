"""Run one program under observation and turn it into a ledger record.

``record_program`` is the engine behind ``repro perf record``: it
compiles (and for ``kind="simulate"`` also runs the SPT machine model
on) one source file with a throwaway observing telemetry, then distills
the run into one :func:`repro.obs.ledger.make_record` record -- phase
self-times from the span tree, the deterministic search/selection/
transform/spt counters, degradation records, and simulated cycles.

``simulate_program`` is the shared "compile result -> machine model"
step; ``repro simulate`` renders its outcome for humans, ``perf
record`` feeds it into the ledger.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.ledger import make_record
from repro.obs.telemetry import Telemetry

__all__ = ["LoopSim", "SimOutcome", "record_program", "simulate_program"]


@dataclass
class LoopSim:
    """Per-loop outcome of the SPT machine model."""

    func_name: str
    header: str
    speedup: float
    misspeculation_ratio: float
    iterations: int
    seq_cycles: float
    spt_cycles: float


@dataclass
class SimOutcome:
    """One program's trip through the SPT machine model."""

    result: int
    seq_cycles: float
    ipc: float
    spt_cycles: float
    loops: List[LoopSim] = field(default_factory=list)

    @property
    def program_speedup(self) -> float:
        return self.seq_cycles / self.spt_cycles if self.spt_cycles else 1.0


def build_simulation(module, compile_result, *, fuel: int, telemetry=None):
    """Assemble the (machine, timing tracer, SPT collectors) triple one
    simulation runs on.

    Deterministic: the same ``(module, compile_result)`` always builds
    the same collector sequence, which is what lets a checkpoint
    restored in a fresh process (:mod:`repro.checkpoint`) line up its
    per-collector state positionally."""
    from repro.analysis.loops import LoopNest
    from repro.machine.spt_sim import SptTraceCollector
    from repro.machine.timing import TimingModel, TimingTracer
    from repro.profiling import Machine

    collectors = []
    for candidate, info in zip(compile_result.selected, compile_result.spt_loops):
        func = module.function(candidate.func_name)
        nest = LoopNest.build(func)
        loop = next(
            (l for l in nest.loops if l.header == candidate.loop.header), None
        )
        if loop is None:
            continue
        collectors.append(
            SptTraceCollector(
                candidate.func_name, loop.header, loop.body,
                info.loop_id,
            )
        )

    machine = Machine(module, fuel=fuel, telemetry=telemetry)
    tracer = TimingTracer(TimingModel())
    machine.add_tracer(tracer)
    for collector in collectors:
        machine.add_tracer(collector)
    return machine, tracer, collectors


def finalize_simulation(
    result_value, tracer, collectors, telemetry=None
) -> SimOutcome:
    """Recombine the collected traces into the program-level outcome."""
    from repro.machine.spt_sim import simulate_spt_loop

    loops: List[LoopSim] = []
    total_delta = 0.0
    for collector in collectors:
        stats = simulate_spt_loop(collector, telemetry=telemetry)
        total_delta += stats.spt_cycles - stats.seq_cycles
        loops.append(
            LoopSim(
                func_name=stats.func_name,
                header=stats.header,
                speedup=stats.loop_speedup,
                misspeculation_ratio=stats.misspeculation_ratio,
                iterations=stats.iterations,
                seq_cycles=stats.seq_cycles,
                spt_cycles=stats.spt_cycles,
            )
        )
    return SimOutcome(
        result=result_value,
        seq_cycles=tracer.cycles,
        ipc=tracer.ipc,
        spt_cycles=tracer.cycles + total_delta,
        loops=loops,
    )


def simulate_program(
    module,
    compile_result,
    *,
    entry: str = "main",
    args: Sequence[int] = (),
    fuel: int = 50_000_000,
    telemetry=None,
) -> SimOutcome:
    """Run the SPT machine model over ``compile_result``'s selected
    loops and aggregate program-level cycles.

    ``module`` must be the (already transformed) module that
    ``compile_spt`` returned ``compile_result`` for.
    """
    machine, tracer, collectors = build_simulation(
        module, compile_result, fuel=fuel, telemetry=telemetry
    )
    result_value = machine.run(entry, list(args))
    return finalize_simulation(
        result_value, tracer, collectors, telemetry=telemetry
    )


def _workload_dict(
    source_path: str, source: str, entry: str, args: Sequence[int]
) -> Dict:
    return {
        "name": os.path.basename(source_path),
        "sha256": hashlib.sha256(source.encode()).hexdigest(),
        "entry": entry,
        "args": list(args),
    }


def record_program(
    source_path: str,
    *,
    kind: str = "compile",
    config=None,
    entry: str = "main",
    args: Sequence[int] = (),
    fuel: int = 50_000_000,
    extra: Optional[Dict] = None,
) -> Tuple[Dict, object]:
    """Compile (``kind="compile"``) or compile+simulate
    (``kind="simulate"``) ``source_path`` under an observing telemetry
    and return ``(ledger_record, compile_result)``.

    The record is *not* appended anywhere; the caller owns the
    :class:`~repro.obs.ledger.Ledger`.
    """
    from repro.cli import load_module
    from repro.core.config import best_config
    from repro.core.pipeline import Workload, compile_spt

    if kind not in ("compile", "simulate"):
        raise ValueError(f"unknown perf record kind {kind!r}")
    if config is None:
        config = best_config()
    with open(source_path) as handle:
        source = handle.read()

    telemetry = Telemetry()
    start = time.perf_counter()
    module = load_module(source_path)
    workload = Workload(entry=entry, args=tuple(args))
    result = compile_spt(module, config, workload, telemetry=telemetry)

    cycles = None
    extra_out: Dict = dict(extra or {})
    extra_out["selected_loops"] = [info.header for info in result.spt_loops]
    if kind == "simulate" and result.spt_loops:
        outcome = simulate_program(
            module, result, entry=entry, args=args, fuel=fuel,
            telemetry=telemetry,
        )
        cycles = outcome.spt_cycles
        extra_out["seq_cycles"] = outcome.seq_cycles
        extra_out["program_speedup"] = outcome.program_speedup
    wall_s = time.perf_counter() - start
    telemetry.close()

    record = make_record(
        kind,
        _workload_dict(source_path, source, entry, args),
        config.fingerprint(),
        wall_s=wall_s,
        telemetry=telemetry,
        cycles=cycles,
        degradations=[r.to_dict() for r in result.degradations],
        extra=extra_out,
    )
    return record, result
