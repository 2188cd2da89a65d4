"""The differential oracle battery.

Each oracle takes one generated program plus a private RNG (used only
for workload arguments and edit sequences, so a re-run with the same
RNG state replays exactly) and returns ``None`` on success or a short
failure-detail string.  The five oracles cross-check every pair of
implementations the framework keeps:

``interp``
    Reference interpreter vs block-compiled fast path: identical
    results, final memory, fuel accounting (``executed``) and
    block/edge trace streams.
``cost``
    Full (:class:`~repro.core.costmodel.CostEvaluator`) vs incremental
    (:class:`~repro.core.costmodel.IncrementalCostEvaluator`) cost
    propagation over a random partition-edit walk -- **bitwise** equal
    costs and probability vectors, the documented contract.
``partition``
    Branch-and-bound (:func:`~repro.core.partition.find_optimal_partition`)
    vs exhaustive enumeration on loops with few violation candidates:
    equal optimal cost, and a legal (downward-closed, size-bounded)
    reported partition whose cost recomputes from scratch.
``spt``
    Sequential vs SPT-transformed execution (the transformed module must
    be semantically identical under the reference interpreter), the
    misspeculation replay of :mod:`repro.machine.spt_sim` against an
    independent reimplementation of the rollback rule, and the
    evaluation fast path (loop-scoped capture under hot traces and the
    vectorized timing engine) against the hook-driven collectors: equal
    record streams and loop statistics.
``checkpoint``
    Uninterrupted vs snapshot-and-resumed simulation: the full SPT
    machine model (interpreter + timing tracer + trace collectors) is
    snapshotted at every Nth entry-frame boundary, each snapshot is
    restored into freshly built components, and every resumed run must
    reproduce the uninterrupted outcome **bitwise** -- result, memory,
    fuel, cycles, and per-loop statistics.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.benchsuite.runner import _timed_run
from repro.checkpoint.state import (
    InstrIndex,
    restore_simulation,
    snapshot_simulation,
)
from repro.core.config import SptConfig
from repro.core.costgraph import build_cost_graph
from repro.core.costmodel import (
    CostEvaluator,
    IncrementalCostEvaluator,
    reexecution_probabilities,
)
from repro.core.partition import (
    PartitionResult,
    brute_force_partition,
    find_optimal_partition,
)
from repro.core.pipeline import Workload, compile_spt
from repro.core.transform import (
    TransformError,
    check_transformable,
    transform_loop,
)
from repro.core.vcdep import VCDepGraph
from repro.core.violation import find_violation_candidates
from repro.frontend import compile_minic
from repro.machine.spt_sim import (
    SptTraceCollector,
    _post_fork_writes,
    _replay_speculative,
    simulate_spt_loop,
)
from repro.obs.telemetry import NULL_TELEMETRY
from repro.perf.runner import build_simulation, finalize_simulation
from repro.profiling.compiled import CompiledMachine
from repro.profiling.interp import Machine, Tracer
from repro.ssa.construct import build_ssa
from repro.ssa.optimize import optimize

from .generator import ProgramSpec

__all__ = ["ORACLE_NAMES", "ORACLES", "run_oracle"]


def _source_of(spec) -> str:
    """Oracles accept a ProgramSpec or raw MiniC source (corpus replay)."""
    return spec if isinstance(spec, str) else spec.source()

#: Fuel for differential runs; generated programs are bounded far below.
FUEL = 4_000_000


class _TraceRecorder(Tracer):
    """Flat record of the block/edge/function event stream."""

    def __init__(self):
        self.events: List[Tuple] = []

    def on_enter_function(self, func, args) -> None:
        self.events.append(("enter", func.name, tuple(args)))

    def on_exit_function(self, func, result) -> None:
        self.events.append(("exit", func.name, result))

    def on_block(self, func, block, prev_label) -> None:
        self.events.append(("block", func.name, block.label, prev_label))

    def on_edge(self, func, src_label, dst_label) -> None:
        self.events.append(("edge", func.name, src_label, dst_label))


def _run(module, n: int, fast: bool):
    machine = (
        CompiledMachine(module, fuel=FUEL) if fast else Machine(module, fuel=FUEL)
    )
    recorder = _TraceRecorder()
    machine.add_tracer(recorder)
    result = machine.run("main", [n])
    return result, machine, recorder


def _workload_args(rng: random.Random) -> List[int]:
    return [rng.randint(0, 40), rng.randint(41, 400)]


# -- oracle 1: reference vs compiled interpreter ----------------------------


def oracle_interp(spec, rng: random.Random) -> Optional[str]:
    source = _source_of(spec)
    for n in _workload_args(rng):
        ref_module = compile_minic(source)
        fast_module = compile_minic(source)
        ref_result, ref_machine, ref_trace = _run(ref_module, n, fast=False)
        fast_result, fast_machine, fast_trace = _run(fast_module, n, fast=True)
        if ref_result != fast_result:
            return (
                f"n={n}: result mismatch "
                f"(reference {ref_result!r}, compiled {fast_result!r})"
            )
        if ref_machine.executed != fast_machine.executed:
            return (
                f"n={n}: fuel accounting mismatch "
                f"(reference executed {ref_machine.executed}, "
                f"compiled {fast_machine.executed})"
            )
        if ref_machine.memory != fast_machine.memory:
            return f"n={n}: final memory image differs"
        if ref_machine.symbols != fast_machine.symbols:
            return f"n={n}: global symbol layout differs"
        if ref_trace.events != fast_trace.events:
            for index, (a, b) in enumerate(
                zip(ref_trace.events, fast_trace.events)
            ):
                if a != b:
                    return (
                        f"n={n}: trace diverges at event {index}: "
                        f"reference {a!r} vs compiled {b!r}"
                    )
            return (
                f"n={n}: trace length differs "
                f"({len(ref_trace.events)} vs {len(fast_trace.events)})"
            )
    return None


# -- static analysis shared by the cost and partition oracles ---------------


def _analyzable_loops(source: str):
    """(module, func, loop, depgraph) for every transformable loop."""
    module = compile_minic(source)
    for name in sorted(module.functions):
        func = module.functions[name]
        build_ssa(func)
        optimize(func)
    for name in sorted(module.functions):
        func = module.functions[name]
        cfg = CFG.build(func)
        nest = LoopNest.build(func)
        for loop in nest.loops:
            try:
                check_transformable(func, loop, cfg)
            except TransformError:
                continue
            graph = build_dep_graph(module, func, loop)
            yield module, func, loop, graph


# -- oracle 2: full vs incremental cost propagation -------------------------


def oracle_cost(spec, rng: random.Random) -> Optional[str]:
    for _module, func, loop, graph in _analyzable_loops(_source_of(spec)):
        candidates = find_violation_candidates(graph)
        if not candidates:
            continue
        cg = build_cost_graph(graph, candidates)
        full = CostEvaluator(cg)
        incremental = IncrementalCostEvaluator(cg)
        keys = [vc.instr for vc in candidates]
        prefork: Set = set()
        for step in range(40):
            toggled = rng.choice(keys)
            if toggled in prefork:
                prefork.discard(toggled)
            else:
                prefork.add(toggled)
            reference = full.cost(prefork)
            fast = incremental.cost(prefork)
            if reference != fast:
                return (
                    f"{func.name}:{loop.header} step {step}: cost "
                    f"{reference!r} (full) != {fast!r} (incremental), "
                    f"|prefork|={len(prefork)}"
                )
            if step % 8 == 0:
                expected = reexecution_probabilities(cg, prefork)
                actual = incremental.probabilities(prefork)
                if expected != actual:
                    return (
                        f"{func.name}:{loop.header} step {step}: "
                        f"re-execution probability vectors differ"
                    )
    return None


# -- oracle 3: branch-and-bound vs brute force ------------------------------

#: Loops with more searchable VCs than this are left to the b&b-only
#: path (2^n brute force would dominate the campaign).
MAX_BRUTE_FORCE_VCS = 8


def oracle_partition(spec, rng: random.Random) -> Optional[str]:
    config = SptConfig()
    for _module, func, loop, graph in _analyzable_loops(_source_of(spec)):
        candidates = find_violation_candidates(graph)
        if not candidates:
            continue
        forced = {
            vc.instr
            for vc in candidates
            if graph.info[vc.instr].block == loop.header
        }
        searchable = [vc for vc in candidates if vc.instr not in forced]
        if len(searchable) > MAX_BRUTE_FORCE_VCS:
            continue
        where = f"{func.name}:{loop.header}"
        result = find_optimal_partition(graph, config)
        if result.skipped_too_many_vcs:
            continue
        exhaustive = brute_force_partition(graph, config)
        if exhaustive is None:
            continue
        if not (abs(result.cost - exhaustive.cost) <= 1e-9):
            return (
                f"{where}: branch-and-bound cost {result.cost!r} != "
                f"brute-force optimum {exhaustive.cost!r}"
            )
        # Legality of the reported partition.
        vcdep = VCDepGraph(graph, searchable)
        index_of = {id(vc.instr): i for i, vc in enumerate(vcdep.candidates)}
        selected = set()
        for vc in result.prefork_vcs:
            index = index_of.get(id(vc.instr))
            if index is None:
                return f"{where}: pre-fork VC not among searchable candidates"
            selected.add(index)
        if not vcdep.downward_closed(selected):
            return f"{where}: reported partition is not downward-closed"
        threshold = config.prefork_size_threshold(result.body_size)
        if selected and result.prefork_size > threshold + 1e-9:
            return (
                f"{where}: pre-fork size {result.prefork_size} exceeds "
                f"threshold {threshold}"
            )
        # The reported cost must recompute from scratch.
        cg = build_cost_graph(graph, candidates)
        keys = {vc.instr for vc in result.prefork_vcs} | forced
        recomputed = CostEvaluator(cg).cost(keys)
        if not (abs(recomputed - result.cost) <= 1e-12):
            return (
                f"{where}: reported cost {result.cost!r} does not match "
                f"recomputation {recomputed!r}"
            )
    return None


# -- oracle 4: sequential vs SPT-simulated execution ------------------------


def _independent_replay(main_trace, spec_trace) -> Tuple[float, int]:
    """Clean-room reimplementation of the misspeculation replay rule.

    A speculative op re-executes iff it observes a value the main thread
    changes after the fork (register or memory, and only if the final
    value actually differs from the at-fork value -- silent re-stores do
    not violate), or any of its inputs was produced by an op that itself
    re-executed.  Structured as a value-state map rather than
    taint/clean sets so a bug in one formulation cannot hide in both.
    """
    # What the main thread's post-fork region leaves behind:
    # location -> (value at fork time, final value).
    changed_regs: Dict[str, Tuple] = {}
    changed_addrs: Dict[int, Tuple] = {}
    for op in main_trace.ops:
        if op.pre_fork:
            continue
        if op.def_name is not None:
            first = changed_regs.get(op.def_name)
            if first is None:
                changed_regs[op.def_name] = (op.def_old, op.def_new)
            else:
                changed_regs[op.def_name] = (first[0], op.def_new)
        writes = dict(op.mem_writes or {})
        if op.store_addr is not None:
            writes[op.store_addr] = (op.store_old, op.store_new)
        for addr, (old, new) in writes.items():
            first = changed_addrs.get(addr)
            if first is None:
                changed_addrs[addr] = (old, new)
            else:
                changed_addrs[addr] = (first[0], new)

    stale_regs = {
        name for name, (old, new) in changed_regs.items() if old != new
    }
    stale_addrs = {
        addr for addr, (old, new) in changed_addrs.items() if old != new
    }

    # Replay: per-location state, "ok" once locally (re)defined cleanly.
    reg_state: Dict[str, str] = {}
    addr_state: Dict[int, str] = {}
    ticks = 0
    count = 0
    for op in spec_trace.ops:
        reads_regs = list(op.uses)
        reads_addrs = list(op.mem_reads or ())
        if op.load_addr is not None:
            reads_addrs.append(op.load_addr)
        bad = False
        for name in reads_regs:
            state = reg_state.get(name)
            if state == "bad" or (state is None and name in stale_regs):
                bad = True
        for addr in reads_addrs:
            state = addr_state.get(addr)
            if state == "bad" or (state is None and addr in stale_addrs):
                bad = True
        if bad:
            ticks += op.ticks
            count += 1
        verdict = "bad" if bad else "ok"
        if op.def_name is not None:
            reg_state[op.def_name] = verdict
        if op.store_addr is not None:
            addr_state[op.store_addr] = verdict
        for addr in op.mem_writes or ():
            addr_state[addr] = verdict
    return ticks, count


def _eager_config() -> SptConfig:
    """Loose selection thresholds, with dependence profiling on so the
    profile-driven selections the best configs make are checked too."""
    return SptConfig(
        prefork_fraction=0.95,
        cost_fraction=0.9,
        min_body_size=2,
        selection_margin=2.0,
        enable_dep_profiling=True,
    )


def _stress_transform(module) -> List[Tuple[str, str, int]]:
    """Apply the SPT transform with a deliberately *empty* pre-fork
    region to every transformable loop that has violation candidates.

    The optimal partition usually hoists every violation source
    pre-fork, so speculation on well-partitioned loops rarely misses;
    this worst-case partition forces real misspeculation and rollback
    into the traces the oracle checks.  Returns (func_name, header,
    loop_id) for every transformed loop.
    """
    for name in sorted(module.functions):
        func = module.functions[name]
        build_ssa(func)
        optimize(func)
    transformed: List[Tuple[str, str, int]] = []
    for name in sorted(module.functions):
        func = module.functions[name]
        nest = LoopNest.build(func)
        taken: Set[str] = set()
        for loop in nest.loops:
            if loop.body & taken:
                continue  # no nested SPT loops, like the real pipeline
            cfg = CFG.build(func)
            try:
                check_transformable(func, loop, cfg)
            except TransformError:
                continue
            graph = build_dep_graph(module, func, loop)
            candidates = find_violation_candidates(graph)
            if not candidates:
                continue
            partition = PartitionResult(
                loop,
                candidates,
                prefork_vcs=[],
                prefork_stmts=set(),
                cost=0.0,
                prefork_size=0.0,
                body_size=loop.body_size(func),
                search_nodes=0,
            )
            try:
                info = transform_loop(module, func, loop, partition, graph)
            except TransformError:
                continue
            taken |= loop.body
            transformed.append((name, loop.header, info.loop_id))
    return transformed


def _record_stream(collector: SptTraceCollector) -> List:
    """Every record field of every iteration, comparable with ``==``."""
    return [
        [
            [
                (id(op.instr), op.ticks, op.uses, op.def_name, op.def_old,
                 op.def_new, op.load_addr, op.load_value, op.store_addr,
                 op.store_old, op.store_new, op.mem_reads, op.mem_writes,
                 op.pre_fork, op.header_op)
                for op in trace.ops
            ]
            for trace in iterations
        ]
        for iterations in collector.invocations
    ]


def _collectors_for(module, loops) -> List[SptTraceCollector]:
    collectors = []
    for func_name, header, loop_id in loops:
        func = module.function(func_name)
        nest = LoopNest.build(func)
        loop = next((l for l in nest.loops if l.header == header), None)
        if loop is None:
            continue
        collectors.append(
            SptTraceCollector(func_name, header, loop.body, loop_id)
        )
    return collectors


def oracle_spt(spec, rng: random.Random) -> Optional[str]:
    source = _source_of(spec)
    train, n = _workload_args(rng)

    seq_module = compile_minic(source)
    seq_machine = Machine(seq_module, fuel=FUEL)
    seq_result = seq_machine.run("main", [n])

    # Arm 1: the real pipeline with an eager selection config -- checks
    # the end-to-end transform plus traces of well-partitioned loops.
    spt_module = compile_minic(source)
    compiled = compile_spt(
        spt_module, _eager_config(), Workload(args=(train,))
    )
    selected = [
        (candidate.func_name, candidate.loop.header, info.loop_id)
        for candidate, info in zip(compiled.selected, compiled.spt_loops)
    ]
    detail = _check_spt_equivalence(
        seq_machine, seq_result, spt_module, selected, n, arm="pipeline"
    )
    if detail is not None:
        return detail

    # Arm 2: worst-case empty-prefork partitions, so misspeculation and
    # rollback actually happen in the traces being cross-checked.
    stress_module = compile_minic(source)
    stress_loops = _stress_transform(stress_module)
    return _check_spt_equivalence(
        seq_machine, seq_result, stress_module, stress_loops, n, arm="stress"
    )


def _check_spt_equivalence(
    seq_machine, seq_result, spt_module, loops, n: int, arm: str
) -> Optional[str]:
    collectors = _collectors_for(spt_module, loops)
    spt_machine = Machine(spt_module, fuel=FUEL)
    for collector in collectors:
        spt_machine.add_tracer(collector)
    spt_result = spt_machine.run("main", [n])

    if spt_result != seq_result:
        return (
            f"[{arm}] n={n}: transformed module result {spt_result!r} != "
            f"sequential result {seq_result!r}"
        )
    if spt_machine.memory != seq_machine.memory:
        return (
            f"[{arm}] n={n}: transformed module leaves a different "
            f"memory image"
        )

    # Fast-path arm: the evaluation run's loop-scoped capture.
    fast = _collectors_for(spt_module, loops)
    _, fast_result = _timed_run(spt_module, "main", [n], extra_tracers=fast)
    if fast_result != spt_result:
        return (
            f"[{arm}] n={n}: fast-path result {fast_result!r} != "
            f"reference {spt_result!r}"
        )
    for ref, got in zip(collectors, fast):
        where = f"[{arm}] {ref.func_name}:{ref.header}"
        if _record_stream(got) != _record_stream(ref):
            return f"{where}: fast-path collector records differ from hooks"
        if vars(simulate_spt_loop(got)) != vars(simulate_spt_loop(ref)):
            return f"{where}: fast-path loop statistics differ from hooks"

    for collector in collectors:
        where = f"[{arm}] {collector.func_name}:{collector.header}"
        # Differential: library replay vs independent reimplementation,
        # pairwise over the exact iteration pairing simulate_spt_loop uses.
        for iterations in collector.invocations:
            for index in range(0, len(iterations) - 1, 2):
                main_trace = iterations[index]
                spec_trace = iterations[index + 1]
                post_reg, post_mem = _post_fork_writes(main_trace)
                lib = _replay_speculative(spec_trace, post_reg, post_mem)
                ours = _independent_replay(main_trace, spec_trace)
                if lib != ours:
                    return (
                        f"{where}: misspeculation replay disagrees at "
                        f"round {index // 2}: library {lib!r} vs "
                        f"independent {ours!r}"
                    )
        stats = simulate_spt_loop(collector, telemetry=NULL_TELEMETRY)
        if stats.reexec_ops > stats.spec_ops:
            return (
                f"{where}: re-executed more ops ({stats.reexec_ops}) than "
                f"were speculated ({stats.spec_ops})"
            )
        if stats.reexec_cycles > stats.spec_cycles + 1e-9:
            return (
                f"{where}: re-executed more cycles than were speculated"
            )
        if stats.iterations and stats.spt_cycles <= 0:
            return f"{where}: {stats.iterations} iterations but no SPT cycles"
    return None


# -- oracle 5: uninterrupted vs snapshot-and-resumed simulation -------------

#: Upper bound on resume points checked per workload; snapshots beyond
#: it are thinned deterministically (every k-th) so pathological long
#: runs cannot stall the campaign.
MAX_RESUME_POINTS = 12


def _outcome_fields(outcome) -> Tuple:
    """A :class:`~repro.perf.runner.SimOutcome` as a comparable tuple
    (bitwise: no tolerance, floats must match exactly)."""
    return (
        outcome.result,
        outcome.seq_cycles,
        outcome.ipc,
        outcome.spt_cycles,
        tuple(
            (
                loop.func_name,
                loop.header,
                loop.speedup,
                loop.misspeculation_ratio,
                loop.iterations,
                loop.seq_cycles,
                loop.spt_cycles,
            )
            for loop in outcome.loops
        ),
    )


def oracle_checkpoint(spec, rng: random.Random) -> Optional[str]:
    """Snapshot/resume exactness over the full SPT machine model.

    Runs the compiled pipeline's simulation once with the checkpoint
    hook armed (cadence drawn from the oracle RNG), then resumes from
    every captured snapshot in freshly built components.  Each resumed
    run -- and every snapshot, which is JSON round-tripped exactly as
    the on-disk store would -- must reproduce the uninterrupted
    outcome bitwise."""
    source = _source_of(spec)
    train, n = _workload_args(rng)
    every = rng.randint(32, 256)

    module = compile_minic(source)
    compiled = compile_spt(module, _eager_config(), Workload(args=(train,)))
    index = InstrIndex(module)

    machine, tracer, collectors = build_simulation(module, compiled, fuel=FUEL)
    snapshots: List[Tuple[int, Dict]] = []
    hook_errors: List[str] = []
    last_saved = [-every]

    def hook(m, frame):
        if m.executed - last_saved[0] < every:
            return
        last_saved[0] = m.executed
        try:
            state = snapshot_simulation(m, frame, tracer, collectors, index)
            snapshots.append((m.executed, json.loads(json.dumps(state))))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 - a snapshot contract break IS the failure
            hook_errors.append(f"at {m.executed}: {exc}")

    machine.checkpoint_hook = hook
    result = machine.run("main", [n])
    machine.checkpoint_hook = None
    if hook_errors:
        return (
            f"n={n}: snapshot failed at an entry-frame boundary "
            f"({hook_errors[0]})"
        )
    reference = (
        _outcome_fields(finalize_simulation(result, tracer, collectors)),
        machine.memory,
        machine.executed,
    )

    if len(snapshots) > MAX_RESUME_POINTS:
        step = -(-len(snapshots) // MAX_RESUME_POINTS)
        snapshots = snapshots[::step]
    for executed, state in snapshots:
        re_machine, re_tracer, re_collectors = build_simulation(
            module, compiled, fuel=FUEL
        )
        try:
            frame = restore_simulation(
                re_machine, state, re_tracer, re_collectors, index
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 - own snapshot must restore
            return (
                f"n={n}: snapshot taken at {executed} failed to "
                f"restore: {exc}"
            )
        resumed_result = re_machine.resume_frame(frame)
        resumed = (
            _outcome_fields(
                finalize_simulation(resumed_result, re_tracer, re_collectors)
            ),
            re_machine.memory,
            re_machine.executed,
        )
        if resumed != reference:
            what = "outcome"
            if resumed[2] != reference[2]:
                what = (
                    f"executed {resumed[2]} != {reference[2]} instructions"
                )
            elif resumed[1] != reference[1]:
                what = "final memory image"
            elif resumed[0] != reference[0]:
                what = (
                    f"simulated outcome {resumed[0]!r} != {reference[0]!r}"
                )
            return (
                f"n={n}: resume from snapshot at {executed} diverges "
                f"from the uninterrupted run ({what})"
            )
    return None


ORACLES = {
    "interp": oracle_interp,
    "cost": oracle_cost,
    "partition": oracle_partition,
    "spt": oracle_spt,
    "checkpoint": oracle_checkpoint,
}

ORACLE_NAMES = tuple(sorted(ORACLES))


def run_oracle(name: str, spec, rng: random.Random) -> Optional[str]:
    """Run one oracle; returns None on pass, a detail string on failure."""
    return ORACLES[name](spec, rng)
