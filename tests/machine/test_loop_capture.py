"""Loop-scoped SPT trace capture must equal the hook-based collector.

The fast path (:mod:`repro.profiling.capture`: the compiled machine with
hot traces and the vectorized timing engine, emitting each collector's
records inline inside its loop) is checked against the reference
:class:`~repro.profiling.interp.Machine` driving the same collectors
through tracer hooks.  Every :class:`OpRecord` field of every iteration
of every invocation must match (``ticks`` included), and so must the
replayed :class:`SptLoopStats` -- over the whole suite, the golden
corpus (pipeline-selected and worst-case stress transforms), a
callee-heavy loop, and again with forced trace side exits
(``REPRO_TRACE_BAILOUT``).
"""

import os

import pytest

from repro.benchsuite import SUITE
from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.ir import parse_module
from repro.machine.spt_sim import SptTraceCollector, simulate_spt_loop
from repro.machine.timing import TimingModel, TimingTracer
from repro.machine.vector_timing import VectorTimingEngine
from repro.profiling import CompiledMachine, Machine
from repro.profiling.capture import contract_of
from repro.testkit.oracles import (
    _collectors_for,
    _record_stream,
    _stress_transform,
)

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "corpus"
)

#: Small evaluation input: every selected suite loop still iterates.
SUITE_N = 150


@pytest.fixture(params=[None, 2], ids=["env-bailout", "bailout-2"])
def bailout(request, monkeypatch):
    """Run each comparison as the environment says (CI repeats this file
    with ``REPRO_TRACE_BAILOUT=3``) and with every 2nd trace guard
    forced to side-exit (the machine reads the variable at
    construction)."""
    if request.param:
        monkeypatch.setenv("REPRO_TRACE_BAILOUT", str(request.param))
    return request.param


def _reference(module, loops, args):
    """Result, cycles, records and replayed stats of the hook-driven
    reference run."""
    collectors = _collectors_for(module, loops)
    machine = Machine(module)
    tracer = TimingTracer(TimingModel())
    machine.add_tracer(tracer)
    for collector in collectors:
        machine.add_tracer(collector)
    result = machine.run("main", list(args))
    return (
        result,
        tracer.cycles,
        [_record_stream(c) for c in collectors],
        [vars(simulate_spt_loop(c)) for c in collectors],
    )


def _assert_capture_matches(
    module, loops, args, reference=None, expect_capture=True
):
    """Reference hooks vs. loop-scoped capture; returns the fast
    collectors."""
    if reference is None:
        reference = _reference(module, loops, args)
    expected, cycles, records, stats = reference

    fast = _collectors_for(module, loops)
    engine = VectorTimingEngine(TimingModel())
    compiled = CompiledMachine(module, trace=True, timing_engine=engine)
    for collector in fast:
        compiled.add_tracer(collector)
    assert compiled.run("main", list(args)) == expected
    engine.flush()
    assert bool(compiled._captures) == (expect_capture and bool(loops))

    assert engine.cycles == cycles
    assert [_record_stream(c) for c in fast] == records
    assert [vars(simulate_spt_loop(c)) for c in fast] == stats
    # Only the hook path replays the cache; capture reads the run's.
    assert all(c._hierarchy is None for c in fast)
    return fast


def _selected(module, n):
    compiled = compile_spt(module, best_config(), Workload(args=(n,)))
    return [
        (candidate.func_name, candidate.loop.header, info.loop_id)
        for candidate, info in zip(compiled.selected, compiled.spt_loops)
    ]


#: bench name -> (module, loops, reference), shared by both bailout
#: variants (mcf and vortex carry a fixed ~0.4-0.8M-instruction phase,
#: so their hook-driven reference runs dominate this file's time).
_SUITE_CASES = {}


def _suite_case(bench):
    case = _SUITE_CASES.get(bench.name)
    if case is None:
        module = compile_minic(bench.source, name=bench.name)
        loops = _selected(module, SUITE_N)
        case = (module, loops, _reference(module, loops, [SUITE_N]))
        _SUITE_CASES[bench.name] = case
    return case


@pytest.mark.parametrize("bench", SUITE, ids=lambda b: b.name)
def test_suite_capture_matches_hooks(bench, bailout):
    module, loops, reference = _suite_case(bench)
    fast = _assert_capture_matches(module, loops, [SUITE_N], reference)
    if bench.name == "mcf":
        # Two collectors on one function, both live.
        assert len({c.func_name for c in fast}) == 1 and len(fast) == 2
        assert all(c.invocations for c in fast)


def _corpus():
    return sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".c"))


@pytest.mark.parametrize("name", _corpus())
def test_golden_corpus_capture_matches_hooks(name, bailout):
    with open(os.path.join(CORPUS_DIR, name)) as handle:
        source = handle.read()
    module = compile_minic(source, name=name)
    _assert_capture_matches(module, _selected(module, 96), [96])
    # Worst-case empty-prefork transforms of every transformable loop.
    stress = compile_minic(source, name=name)
    _assert_capture_matches(stress, _stress_transform(stress), [96])


# A loop whose body calls a helper with its own loop, loads, stores,
# data-dependent branches and a nested call; the helper is also called
# outside the loop (plain mode), and the loop has an early second exit.
CALLEE_HEAVY = """\
module t
global shared[64]
global hist[16]
func leaf(v) {
entry:
  q = addr hist
  k = and v, 15
  h = load q, k !hist
  h2 = add h, 1
  store q, k, h2 !hist
  ret h2
}
func helper(v, m) {
entry:
  p = addr shared
  j = copy 0
  acc = copy 0
  jump hh
hh:
  cj = lt j, m
  br cj, hb, hx
hb:
  slot = and j, 63
  old = load p, slot !shared
  odd = and old, 1
  br odd, hodd, heven
hodd:
  t = call leaf(old)
  acc = add acc, t
  jump hl
heven:
  nv = add old, v
  store p, slot, nv !shared
  store p, slot, v !shared
  jump hl
hl:
  j = add j, 1
  jump hh
hx:
  r = add acc, v
  ret r
}
func main(n) {
entry:
  pre = call helper(3, 5)
  i = copy 0
  s = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  spt_fork 0
  x = mul i, 3
  r = call helper(x, 7)
  s = add s, r
  big = gt s, 100000
  br big, early, head
early:
  ret s
exit:
  spt_kill 0
  post = call helper(s, 4)
  out = add s, post
  ret out
}
"""


@pytest.mark.parametrize("n", [40, 400])
def test_callee_heavy_loop(n, bailout):
    module = parse_module(CALLEE_HEAVY)
    (collector,) = _assert_capture_matches(module, [("main", "head", 0)], [n])
    calls = [
        op
        for trace in collector.invocations[0]
        for op in trace.ops
        if op.instr.opcode == "call"
    ]
    assert calls and all(op.mem_reads and op.mem_writes for op in calls)


def test_repeated_invocations_of_the_target_function(bailout):
    """The target function runs its loop once per call; calls from
    outside the loop keep their traces between invocations."""
    from tests.machine.test_collector import MULTI_INVOCATION

    module = parse_module(MULTI_INVOCATION)
    (collector,) = _assert_capture_matches(module, [("work", "head", 0)], [40])
    assert [len(iterations) for iterations in collector.invocations] == [3, 40]


RECURSIVE = """\
module t
func main(n) {
entry:
  i = copy 0
  s = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  spt_fork 0
  small = lt n, 3
  br small, rec, skip
rec:
  r = call main(0)
  s = add s, r
  jump head
skip:
  s = add s, i
  jump head
exit:
  ret s
}
"""


def test_uncapturable_contract_falls_back_to_hooks():
    """A loop whose calls reach its own function cannot be captured:
    the whole run stays on hooks, with identical results."""
    module = parse_module(RECURSIVE)
    _assert_capture_matches(
        module, [("main", "head", 0)], [2], expect_capture=False
    )


def test_contract_is_opt_in_per_class():
    spt = SptTraceCollector("main", "head", {"head", "body"}, 0)
    assert contract_of(spt).sink is spt
    # Subclasses inherit the hook path unless they declare a contract
    # (RegionTraceCollector: tests/core/test_regions.py).
    class Tagging(SptTraceCollector):
        pass

    assert contract_of(Tagging("main", "head", {"head"}, 0)) is None
