"""The benchmark's four workloads.

Each workload turns a seed into a list of cases (one program each) at
set-up, runs one case per operation through the public Python API, and
checks the operation's outputs against a reference computed by the
reference interpreter (``repro.profiling.interp.Machine``) on the
un-optimised ``compile_minic`` module -- no unrolling, SSA or SPT.
The fixed suite's reference outputs are committed in
``expected_outputs.json`` (``make_expected.py`` regenerates them);
generated programs get theirs at set-up.

Layer entry points are always reached through their module attribute,
so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Callable, Dict, List, NamedTuple, Optional

from repro import frontend
from repro.benchsuite import runner
from repro.benchsuite.programs import SUITE, Benchmark
from repro.core import pipeline
from repro.core.config import anticipated_config, best_config
from repro.profiling.compiled import CompiledMachine
from repro.profiling.interp import Machine
from repro.testkit.generator import GenConfig, generate_program

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected_outputs.json")

#: compile-generated: programs per seed.  At least 100, so the p90
#: compile latency has ten programs beyond it; 200, because which
#: programs a seed draws moves the p90 by ~10% (ten-seed quartile
#: spread) at 120 programs, and that spread falls as 1/sqrt(programs).
#: Programs are drawn in order, so a seed's leading programs do not
#: depend on the count.
GENERATED_PROGRAMS = 200
#: Loop-heavy shapes: several statements per loop, aliased arrays,
#: helper calls, while loops and irregular exits all allowed.
GENERATED_SHAPE = GenConfig(
    max_depth=2,
    max_stmts=5,
    max_expr_depth=3,
    n_scalars=5,
    n_arrays=3,
    array_size=64,
    p_aliased=0.5,
)
#: The short training input of a generated program is drawn from here.
GENERATED_TRAIN_N = (16, 40)


class Case(NamedTuple):
    """One program of a workload and its reference output."""

    bench: Benchmark
    #: The argument the checked run is made with.
    arg: int
    expected: int


class Outcome:
    """What one operation produced.

    ``stats`` holds the exact simulated statistics and compiler
    decisions that go into the run's digest; ``failures`` the reasons
    the operation failed; ``module`` a transformed module whose output
    the untimed check still has to compare."""

    def __init__(self, stats: Dict, failures: List[str],
                 speedup: Optional[float] = None, module=None):
        self.stats = stats
        self.failures = failures
        self.speedup = speedup
        self.module = module


def reference_output(source: str, name: str, arg: int) -> int:
    """The reference interpreter's result on the un-optimised module."""
    module = frontend.compile_minic(source, name=name)
    return Machine(module).run("main", [arg])


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def _suite_cases(seed: int, which: str) -> List[Case]:
    """The ten suite programs in a seed-shuffled order, each with its
    committed reference output at its ``train_n`` or ``eval_n``
    (``which`` is ``"train"`` or ``"eval"``)."""
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)["programs"]
    cases = []
    for bench in SUITE:
        entry = expected.get(bench.name)
        if entry is None or entry["sha256"] != source_digest(bench.source) or (
            entry["train_n"], entry["eval_n"]) != (bench.train_n, bench.eval_n):
            raise RuntimeError(
                f"committed reference output for {bench.name} is stale; "
                "regenerate it with: python3 perfbench/make_expected.py"
            )
        cases.append(Case(bench, getattr(bench, f"{which}_n"), entry[which]))
    random.Random(seed).shuffle(cases)
    return cases


def _generated_cases(seed: int) -> List[Case]:
    rng = random.Random(seed)
    cases = []
    for index in range(GENERATED_PROGRAMS):
        spec = generate_program(random.Random(rng.getrandbits(64)), GENERATED_SHAPE)
        train_n = rng.randint(*GENERATED_TRAIN_N)
        name = f"gen{index:03d}"
        source = spec.source()
        bench = Benchmark(name, "generated", source, train_n, train_n)
        cases.append(Case(bench, train_n, reference_output(source, name, train_n)))
    return cases


def _degradations(compilation) -> List[str]:
    return [
        "degraded: " + json.dumps(record.to_dict(), sort_keys=True)
        for record in compilation.degradations
    ]


def _compile_stats(compilation) -> Dict:
    return {
        "selected": [list(key) for key in compilation.spt_loop_keys()],
        "categories": compilation.category_histogram(),
        "search_nodes": sum(
            c.partition.search_nodes for c in compilation.candidates
            if c.partition is not None
        ),
    }


def _mismatch(label: str, value, expected) -> List[str]:
    if value == expected:
        return []
    return [f"mismatch: {label} output {value!r} != reference {expected!r}"]


# -- operations -------------------------------------------------------------


def _eval_best(case: Case) -> Outcome:
    run = runner.run_benchmark(case.bench, best_config(), "best")
    stats = _compile_stats(run.compilation)
    stats.update(
        base_cycles=run.base_cycles,
        base_instr=run.base_instructions,
        spt_run_cycles=run.spt_run_cycles,
        spt_cycles=run.program_spt_cycles,
        loops=[
            [r.func_name, r.header, r.stats.seq_ticks, r.stats.spt_ticks,
             r.stats.reexec_ops, r.stats.total_ops]
            for r in run.loops
        ],
    )
    failures = _degradations(run.compilation)
    failures += _mismatch("base", run.base_result_value, case.expected)
    failures += _mismatch("SPT", run.result_value, case.expected)
    return Outcome(stats, failures, speedup=run.program_speedup)


def _compile(case: Case) -> Outcome:
    module = frontend.compile_minic(case.bench.source, name=case.bench.name)
    compilation = pipeline.compile_spt(
        module, anticipated_config(),
        pipeline.Workload(args=(case.bench.train_n,)),
    )
    return Outcome(
        _compile_stats(compilation), _degradations(compilation), module=module
    )


def _simulate_base(case: Case) -> Outcome:
    module = runner._build_clean_module(case.bench)
    engine, value = runner._timed_run(module, "main", [case.bench.eval_n])
    stats = {"base_cycles": engine.cycles, "base_instr": engine.instructions}
    return Outcome(stats, _mismatch("base", value, case.expected))


def check(case: Case, outcome: Outcome) -> List[str]:
    """The untimed part of an operation's check: run a transformed
    module once on the fast machine and compare with the reference."""
    if outcome.module is None:
        return []
    value = CompiledMachine(outcome.module).run("main", [case.arg])
    return _mismatch("transformed", value, case.expected)


class Workload(NamedTuple):
    setup: Callable[[int], List[Case]]
    run: Callable[[Case], Outcome]
    #: Whether ``run`` reports a simulated SPT speedup.
    simulates_spt: bool


WORKLOADS: Dict[str, Workload] = {
    "eval-best": Workload(
        lambda seed: _suite_cases(seed, "eval"), _eval_best, True),
    "compile-suite": Workload(
        lambda seed: _suite_cases(seed, "train"), _compile, False),
    "compile-generated": Workload(_generated_cases, _compile, False),
    "simulate-base": Workload(
        lambda seed: _suite_cases(seed, "eval"), _simulate_base, False),
}
