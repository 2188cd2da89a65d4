"""Intra-iteration region speculation tests (§9 future work)."""

import pytest

from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.core.config import SptConfig
from repro.core.regions import (
    choose_region_split,
    find_region_splits,
    spine_blocks,
)
from repro.ir import parse_module
from repro.machine.region_sim import RegionTraceCollector, simulate_region_loop
from repro.profiling import run_module
from repro.ssa import build_ssa

def _chain(prefix: str, length: int, seed_expr: str) -> str:
    """A straight dependence chain: ``<prefix>0 .. <prefix>{length-1}``."""
    lines = [f"  {prefix}0 = add {seed_expr}, 1"]
    for k in range(1, length):
        op = "mul" if k % 2 else "add"
        lines.append(f"  {prefix}{k} = {op} {prefix}{k - 1}, {k % 7 + 2}")
    return "\n".join(lines)


# Two independent heavy phases per iteration: the classic region-
# speculation shape (A fills `left`, B fills `right`; big bodies so the
# fork/commit overheads amortize -- exactly the body_too_large loops §9
# targets).
INDEPENDENT = f"""\
module t
func main(n) {{
  local left[256]
  local right[256]
entry:
  pl = addr left
  pr = addr right
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, phase_a, exit
phase_a:
  m = and i, 255
{_chain("a", 40, "i")}
  store pl, m, a39 !left
  jump phase_b
phase_b:
  mb = and i, 255
{_chain("b", 40, "i")}
  store pr, mb, b39 !right
  i = add i, 1
  jump head
exit:
  ret 0
}}
"""

# Region B consumes everything region A computes: splitting buys nothing.
DEPENDENT = f"""\
module t
func main(n) {{
  local out[256]
entry:
  p = addr out
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, phase_a, exit
phase_a:
  m = and i, 255
{_chain("a", 40, "i")}
  jump phase_b
phase_b:
{_chain("b", 40, "a39")}
  store p, m, b39 !out
  i = add i, 1
  jump head
exit:
  ret 0
}}
"""


def _prepared(source):
    module = parse_module(source)
    func = module.function("main")
    build_ssa(func)
    nest = LoopNest.build(func)
    loop = nest.loops[0]
    graph = build_dep_graph(module, func, loop)
    return module, func, loop, graph


def test_spine_blocks_found():
    module, func, loop, graph = _prepared(INDEPENDENT)
    spine = spine_blocks(func, loop)
    assert spine == ["phase_a", "phase_b"]


def test_independent_phases_split_well():
    module, func, loop, graph = _prepared(INDEPENDENT)
    config = SptConfig()
    split = choose_region_split(func, loop, graph, config)
    assert split is not None
    assert split.split_label == "phase_b"
    assert split.balance > 0.7
    # Only the cheap index recomputation misspeculates.
    assert split.cost < 0.35 * min(split.size_a, split.size_b)


def test_dependent_phases_not_worth_splitting():
    module, func, loop, graph = _prepared(DEPENDENT)
    config = SptConfig()
    splits = find_region_splits(func, loop, graph, config)
    # Splits exist, but the all-consuming dependence makes them bad.
    assert splits
    best = splits[0]
    assert best.cost > 0.5 * best.size_b or best.estimated_benefit(config) <= 0


def test_region_simulation_speeds_up_independent_phases():
    module, func, loop, graph = _prepared(INDEPENDENT)
    config = SptConfig()
    split = choose_region_split(func, loop, graph, config)
    collector = RegionTraceCollector(
        "main", loop.header, loop.body, split.b_labels
    )
    run_module(module, args=[300], tracers=[collector])
    stats = simulate_region_loop(collector, split.split_label)
    assert stats.iterations == 300
    assert stats.balance > 0.7
    assert stats.misspeculation_ratio < 0.35
    assert stats.loop_speedup > 1.15


def test_region_simulation_penalizes_dependent_phases():
    module, func, loop, graph = _prepared(DEPENDENT)
    config = SptConfig()
    splits = find_region_splits(func, loop, graph, config)
    split = splits[0]
    collector = RegionTraceCollector(
        "main", loop.header, loop.body, split.b_labels
    )
    run_module(module, args=[300], tracers=[collector])
    stats = simulate_region_loop(collector, split.split_label)
    # Everything B does is stale: heavy re-execution, no speedup.
    assert stats.misspeculation_ratio > 0.5
    assert stats.loop_speedup < 1.05


def test_estimates_track_simulation():
    """The compile-time cost estimate must rank the two programs the
    same way the simulation does."""
    config = SptConfig()
    results = {}
    for name, source in (("indep", INDEPENDENT), ("dep", DEPENDENT)):
        module, func, loop, graph = _prepared(source)
        splits = find_region_splits(func, loop, graph, config)
        best = splits[0]
        collector = RegionTraceCollector(
            "main", loop.header, loop.body, best.b_labels
        )
        run_module(module, args=[200], tracers=[collector])
        stats = simulate_region_loop(collector, best.split_label)
        results[name] = (best.cost / max(best.size_b, 1), stats.reexec_cycles
                         / max(stats.b_cycles, 1))
    est_indep, meas_indep = results["indep"]
    est_dep, meas_dep = results["dep"]
    assert est_indep < est_dep
    assert meas_indep < meas_dep


def test_pipeline_records_region_splits():
    """compile_spt with region speculation enabled records splits for
    body_too_large loops (and only then)."""
    from repro.core import Workload, compile_spt
    from repro.core.selection import CATEGORY_BODY_TOO_LARGE

    config = SptConfig(
        max_body_size=40,
        enable_region_speculation=True,
        enable_unrolling=False,
    )
    module = parse_module(INDEPENDENT)
    result = compile_spt(module, config, Workload(args=(50,)))
    assert result.category_histogram()[CATEGORY_BODY_TOO_LARGE] >= 1
    assert result.region_splits
    split = result.region_splits[0]
    assert split.split_label == "phase_b"

    # With the flag off, nothing is recorded.
    module2 = parse_module(INDEPENDENT)
    config_off = config.with_overrides(enable_region_speculation=False)
    result2 = compile_spt(module2, config_off, Workload(args=(50,)))
    assert result2.region_splits == []


def _extension_program(chain_len: int = 300) -> str:
    """The body_too_large loop of ``benchmarks/bench_extension_regions.py``."""
    return f"""\
module t
func main(n) {{
  local left[256]
  local right[256]
entry:
  pl = addr left
  pr = addr right
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, phase_a, exit
phase_a:
  m = and i, 255
{_chain("a", chain_len, "i")}
  store pl, m, a{chain_len - 1} !left
  jump phase_b
phase_b:
  mb = and i, 255
{_chain("b", chain_len, "i")}
  store pr, mb, b{chain_len - 1} !right
  i = add i, 1
  jump head
exit:
  ret 0
}}
"""


@pytest.mark.parametrize("path", ["reference", "evaluation"])
def test_extension_regions_figures_pinned(path):
    """Reproduces ``benchmarks/results/extension_regions.txt`` on the
    reference interpreter and on the evaluation fast path.  The region
    collector overrides ``on_block``/``on_instr`` (region tagging,
    ``header_op``), so it must never be given SptTraceCollector's
    loop-scoped capture: it declares no contract and stays on hooks."""
    from repro.benchsuite.runner import _timed_run
    from repro.core import Workload, compile_spt
    from repro.profiling.capture import contract_of

    config = SptConfig(
        max_body_size=400, enable_region_speculation=True, enable_unrolling=False
    )
    module = parse_module(_extension_program())
    result = compile_spt(module, config, Workload(args=(50,)))
    assert not result.selected
    split = result.region_splits[0]
    func = module.function("main")
    loop = next(
        l for l in LoopNest.build(func).loops if l.header == split.loop.header
    )
    collector = RegionTraceCollector(
        "main", loop.header, loop.body, split.b_labels
    )
    assert contract_of(collector) is None
    if path == "reference":
        run_module(module, args=[120], tracers=[collector])
    else:
        _timed_run(module, "main", [120], extra_tracers=[collector])
    stats = simulate_region_loop(collector, split.split_label)
    assert (
        split.split_label,
        f"{split.size_a:.0f}",
        f"{split.size_b:.0f}",
        f"{split.cost:.2f}",
        f"{stats.loop_speedup:.3f}",
        f"{stats.misspeculation_ratio:.3f}",
        f"{stats.balance:.3f}",
    ) == ("phase_b", "298", "297", "0.00", "1.909", "0.000", "0.999")
