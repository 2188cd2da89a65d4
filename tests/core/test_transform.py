"""SPT loop transformation tests (paper §6.2, Figures 2/10/11/12).

The key property: a transformed loop run *sequentially* (SPT markers are
no-ops in the plain interpreter) computes exactly what the original did.
"""

import copy

import pytest

from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.core.config import SptConfig
from repro.core.partition import find_optimal_partition
from repro.core.transform import TransformError, check_transformable, transform_loop
from repro.ir import format_function, parse_module
from repro.profiling import run_module
from repro.ssa import build_ssa

CONFIG = SptConfig(prefork_fraction=0.9)


def _transform(source, func_name="main", loop_header=None, config=CONFIG):
    module = parse_module(source)
    baseline = copy.deepcopy(module)
    func = module.function(func_name)
    build_ssa(func)
    nest = LoopNest.build(func)
    if loop_header is None:
        loop = nest.loops[0]
    else:
        loop = next(l for l in nest.loops if l.header == loop_header)
    graph = build_dep_graph(module, func, loop)
    partition = find_optimal_partition(graph, config)
    info = transform_loop(module, func, loop, partition, graph)
    return module, baseline, func, info, partition


def _results_match(module, baseline, args, func_name="main", intrinsics=None):
    got, machine_new = run_module(
        module, func_name=func_name, args=args, intrinsics=intrinsics or {}
    )
    want, machine_old = run_module(
        baseline, func_name=func_name, args=args, intrinsics=intrinsics or {}
    )
    assert got == want, f"result mismatch: {got} != {want}"
    assert machine_new.memory == machine_old.memory, "memory state diverged"


FIGURE2 = """\
module t
func main(n) {
  local error[4096]
  local p[64]
entry:
  pe = addr error
  pp = addr p
  i = copy 0
  cost = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  cost0 = copy 0
  j = copy 0
  row = mul i, 64
  jump inner_head
inner_head:
  c1 = lt j, i
  br c1, inner_body, after
inner_body:
  idx = add row, j
  e = load pe, idx !error
  q = load pp, j !p
  d = sub e, q
  a = abs d
  cost0 = add cost0, a
  j = add j, 1
  jump inner_head
after:
  cost = add cost, cost0
  i = add i, 1
  jump head
exit:
  ret cost
}
"""


def test_figure2_loop_transforms_and_matches():
    """The paper's Figure 2 loop: the induction update of i moves into
    the pre-fork region."""
    module, baseline, func, info, partition = _transform(
        FIGURE2, loop_header="head"
    )
    assert info.moved_count >= 1
    moved_bases = {
        instr.dest.base
        for instr in partition.prefork_stmts
        if instr.dest is not None and instr.opcode == "binop"
    }
    assert "i" in moved_bases
    _results_match(module, baseline, [20])


def test_figure2_fork_and_kill_are_placed():
    module, _, func, info, _ = _transform(FIGURE2, loop_header="head")
    text = format_function(func)
    assert "spt_fork" in text
    assert "spt_kill" in text
    fork_block = func.block(info.fork_label)
    assert fork_block.instrs[0].opcode == "spt_fork"


SIMPLE = """\
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
  x = mul i, 3
  s = add s, x
  i = add i, 1
  jump head
exit:
  ret s
}
"""


def test_simple_loop_semantics_preserved():
    module, baseline, _, info, _ = _transform(SIMPLE)
    for n in (0, 1, 2, 7, 100):
        _results_match(module, baseline, [n])


def test_empty_partition_still_forms_spt_loop():
    """With a zero-size pre-fork threshold nothing can move, but the
    fork/kill skeleton is still produced."""
    module, baseline, func, info, partition = _transform(
        SIMPLE, config=SptConfig(prefork_fraction=0.0)
    )
    assert info.moved_count == 0
    assert partition.prefork_vcs == []
    _results_match(module, baseline, [10])


CONDITIONAL_MOVE = """\
module t
func main(n) {
entry:
  i = copy 0
  s = copy 0
  x = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  m = mod i, 3
  z = eq m, 0
  br z, then, latch
then:
  x = add x, 5
  jump latch
latch:
  y = add x, i
  s = add s, y
  i = add i, 1
  jump head
exit:
  ret s
}
"""


def test_partial_conditional_statement_moves_with_branch():
    """Figure 12: moving a statement guarded by ``if`` replicates the
    branch into the pre-fork region."""
    module, baseline, func, info, partition = _transform(
        CONDITIONAL_MOVE, config=SptConfig(prefork_fraction=0.95)
    )
    moved_bases = {
        instr.dest.base
        for instr in partition.prefork_stmts
        if instr.dest is not None
    }
    if "x" in moved_bases:
        assert info.replicated_branches >= 1
    for n in (0, 1, 5, 30):
        _results_match(module, baseline, [n])


def test_lifetime_overlap_is_repaired():
    """Figures 10/11: moving the carried update above a use of the old
    value requires SSA repair (the paper's temporary insertion)."""
    source = """\
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
  s = add s, i
  i = add i, 1
  jump head
exit:
  ret s
}
"""
    module, baseline, func, info, partition = _transform(source)
    # i's update moved above the use of the previous i (inside s += i):
    # the transformation must keep the old value flowing to s.
    for n in (0, 1, 4, 50):
        _results_match(module, baseline, [n])


MEMORY_LOOP = """\
module t
func main(n) {
  local hist[256]
entry:
  p = addr hist
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  m = mod i, 256
  old = load p, m !hist
  new = add old, 1
  store p, m, new !hist
  i = add i, 1
  jump head
exit:
  r = load p, 0 !hist
  ret r
}
"""


def test_memory_loop_semantics_preserved():
    module, baseline, _, _, _ = _transform(MEMORY_LOOP)
    _results_match(module, baseline, [1000])


MULTI_EXIT = """\
module t
func main(n) {
entry:
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  z = eq i, 5
  br z, break_out, latch
latch:
  i = add i, 1
  jump head
break_out:
  jump exit
exit:
  ret i
}
"""


def test_mid_body_exit_is_rejected():
    module = parse_module(MULTI_EXIT)
    func = module.function("main")
    build_ssa(func)
    nest = LoopNest.build(func)
    with pytest.raises(TransformError):
        check_transformable(func, nest.loops[0])


def test_unreconcilable_phi_raises_instead_of_guessing():
    """A new predecessor whose phi value cannot be inferred (the other
    incomings disagree) must fail the transform, not read as 0."""
    from repro.core.transform import _fix_phi_incomings
    from repro.ir import parse_function

    func = parse_function(
        """\
func f(c, d) {
entry:
  br c, left, mid
left:
  jump join
mid:
  br d, right, join
right:
  jump join
join:
  r = phi [left: 1, right: 2]
  ret r
}
"""
    )
    with pytest.raises(TransformError, match="cannot reconcile phi"):
        _fix_phi_incomings(func)


def test_transformed_function_verifies_as_ssa():
    from repro.ir import verify_function

    module, _, func, _, _ = _transform(FIGURE2, loop_header="head")
    verify_function(module, func, ssa=True)
