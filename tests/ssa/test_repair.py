"""SSA repair and unreachable-block hygiene tests."""

from repro.ir import Module, parse_function, verify_function
from repro.profiling import run_module
from repro.ssa import build_ssa
from repro.ssa.optimize import optimize, remove_unreachable_blocks
from repro.ssa.repair import broken_variables, repair_ssa


def _module_with(func):
    module = Module("t")
    module.add_function(func)
    return module


def test_intact_function_reports_nothing_broken():
    func = parse_function(
        """\
func f(n) {
entry:
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  jump head
exit:
  ret i
}
"""
    )
    build_ssa(func)
    assert broken_variables(func) == []
    assert repair_ssa(func) == []


def test_moved_def_is_detected_and_repaired():
    """Simulate the transform's code motion: a def hoisted into one arm
    of a diamond no longer dominates the join's use."""
    func = parse_function(
        """\
func f(c, a) {
entry:
  br c, left, right
left:
  x = add a, 1
  jump join
right:
  jump join
join:
  y = mul x, 2
  ret y
}
"""
    )
    module = _module_with(func)
    broken = broken_variables(func)
    assert [v.base for v in broken] == ["x"]
    repair_ssa(func)
    verify_function(module, func, ssa=True)
    # Dynamically the use only happens when c is true in real programs;
    # the repair keeps that path exact.
    got, _ = run_module(module, func_name="f", args=[1, 10])
    assert got == 22


def test_repair_is_noop_on_healthy_loops():
    func = parse_function(
        """\
func f(n) {
entry:
  s = copy 0
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  s = add s, i
  i = add i, 1
  jump head
exit:
  ret s
}
"""
    )
    build_ssa(func)
    module = _module_with(func)
    before = {id(i) for i in func.instructions()}
    assert repair_ssa(func) == []
    after = {id(i) for i in func.instructions()}
    assert before == after


def test_unreachable_blocks_do_not_trigger_repair():
    """Regression for the fuzzer-found bug: defs/uses in unreachable
    blocks must not be flagged, and 'repairing' them must not corrupt
    reachable values."""
    func = parse_function(
        """\
func f(n) {
entry:
  s = copy 3
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  jump else_arm
dead_then:
  s2 = add s, 1
  jump join
else_arm:
  s3 = sub s, 1
  jump join
join:
  s4 = phi [dead_then: s2, else_arm: s3]
  i2 = add i, 1
  jump head
exit:
  ret s
}
"""
    )
    build_ssa(func)
    # dead_then is unreachable: nothing should be considered broken.
    assert broken_variables(func) == []


def _diamond():
    func = parse_function(
        """\
func f(x, c) {
entry:
  br c, dead_arm, live_arm
dead_arm:
  a = add x, 100
  jump join
live_arm:
  a = add x, 1
  jump join
join:
  r = mul a, 1
  ret r
}
"""
    )
    return func


def test_remove_unreachable_blocks_cleans_phis():
    from repro.ir.instr import Jump

    func = _diamond()
    build_ssa(func)
    # Kill the dead_arm path after SSA, as a pass would.
    func.block("entry").instrs[-1] = Jump("live_arm")
    removed = remove_unreachable_blocks(func)
    assert removed == 1
    assert not func.has_block("dead_arm")
    join_phi = next(func.block("join").phis())
    assert set(join_phi.incomings) == {"live_arm"}
    module = _module_with(func)
    got, _ = run_module(module, func_name="f", args=[5, 0])
    assert got == 6


def test_optimize_deletes_constant_dead_arms():
    from repro.ir.instr import Branch
    from repro.ir.values import Const

    func = _diamond()
    build_ssa(func)
    # Constant-fold the condition, as constant propagation would.
    term = func.block("entry").terminator
    assert isinstance(term, Branch)
    term.cond = Const(False)
    optimize(func)
    assert not func.has_block("dead_arm")
    module = _module_with(func)
    got, _ = run_module(module, func_name="f", args=[5, 0])
    assert got == 6


def test_folded_branch_drops_its_phi_incoming():
    """A constant branch folded to a jump leaves its block reachable but
    no longer a predecessor of the not-taken target; that target's phi
    must drop the incoming, or verification (and any pass trusting
    phis) sees a path that no longer exists."""
    func = parse_function(
        """\
func f(n) {
entry:
  s = copy 1
  jump head
head:
  c = copy 1
  br c, body, exit
body:
  s = add s, 2
  br n, exit, head
exit:
  ret s
}
"""
    )
    module = _module_with(func)
    build_ssa(func)
    optimize(func)
    verify_function(module, func, ssa=True)
    got, _ = run_module(module, func_name="f", args=[1])
    assert got == 3
