"""End-to-end two-pass compilation tests: MiniC source -> unroll -> SSA
-> profile -> cost-driven partition -> selection -> SPT transformation,
with semantic equivalence checked by execution."""

import pytest

from repro.core import (
    SptConfig,
    Workload,
    anticipated_config,
    basic_config,
    best_config,
    compile_spt,
)
from repro.core.selection import CATEGORY_VALID
from repro.frontend import compile_minic
from repro.profiling import run_module
from repro.profiling.compiled import CompiledMachine
from repro.profiling.interp import Machine

SOURCE = """
global int data[4096];
global int out[4096];

int main(int n) {
    int seed = 12345;
    for (int i = 0; i < n; i++) {
        seed = (seed * 1103515245 + 12345) % 2147483648;
        data[i] = seed % 1000;
    }
    int total = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i];
        int a = x * 3 + 7;
        int b = a * a + x;
        int c = b * 5 + 11;
        int d = c * c + b;
        int e = d * 3 + c;
        int f = e * e + d;
        out[i] = f;
        total += f % 97;
    }
    return total;
}
"""


def _compile(config, n=300):
    module = compile_minic(SOURCE)
    workload = Workload(entry="main", args=(n,))
    result = compile_spt(module, config, workload)
    return module, result


def test_pipeline_selects_the_parallel_loop():
    module, result = _compile(SptConfig())
    assert len(result.candidates) >= 2
    assert result.selected, "expected at least one SPT loop"
    histogram = result.category_histogram()
    assert histogram[CATEGORY_VALID] >= 1


def test_transformed_module_is_semantically_equivalent():
    module, result = _compile(SptConfig())
    assert result.spt_loops
    baseline = compile_minic(SOURCE)
    for n in (0, 1, 7, 123, 300):
        got, machine_new = run_module(module, args=[n])
        want, machine_old = run_module(baseline, args=[n])
        assert got == want, n


def test_spt_markers_present_after_compilation():
    module, result = _compile(SptConfig())
    opcodes = {
        instr.opcode
        for func in module.functions.values()
        for instr in func.instructions()
    }
    assert "spt_fork" in opcodes
    assert "spt_kill" in opcodes


def test_unprofitable_serial_loop_not_selected():
    source = """
int main(int n) {
    int acc = 1;
    for (int i = 0; i < n; i++) {
        acc = (acc * 7 + i) % 1000003;
    }
    return acc;
}
"""
    module = compile_minic(source)
    result = compile_spt(module, SptConfig(), Workload(args=(300,)))
    # The whole body is one recurrence: cost ~ body size, so selection
    # must refuse it.
    for candidate in result.selected:
        assert candidate.partition.cost_ratio < 0.2


def test_basic_vs_best_config_coverage():
    """Dependence profiling + SVP can only widen the set of loops the
    compiler accepts."""
    _, result_basic = _compile(basic_config())
    _, result_best = _compile(best_config())
    assert len(result_best.selected) >= len(result_basic.selected)


def test_best_config_equivalence_with_svp():
    source = """
global int buf[2048];
extern int observe(int v);

int main(int n) {
    int cursor = 0;
    for (int i = 0; i < n; i++) {
        int x = buf[cursor];
        int a = x * 3 + i;
        int b = a * a;
        int c = b + x * 7;
        int d = c * c + a;
        buf[cursor] = d % 251;
        cursor = (cursor + 2) % 2048;
        observe(d);
    }
    return cursor;
}
"""
    sink = {"observe": lambda machine, v: 0}
    module = compile_minic(source)
    workload = Workload(args=(200,), intrinsics=sink)
    result = compile_spt(module, best_config(), workload)
    baseline = compile_minic(source)
    for n in (0, 5, 200):
        got, _ = run_module(module, args=[n], intrinsics=sink)
        want, _ = run_module(baseline, args=[n], intrinsics=sink)
        assert got == want, n


def test_while_loop_only_unrolled_in_anticipated():
    source = """
int main(int n) {
    int x = 0;
    int i = 0;
    while (i < n) {
        x += i % 7;
        i++;
    }
    return x;
}
"""
    from repro.core import anticipated_config

    module = compile_minic(source)
    result = compile_spt(module, basic_config(), Workload(args=(100,)))
    report = result.unroll_reports["main"]
    assert report.skipped_while

    module2 = compile_minic(source)
    result2 = compile_spt(module2, anticipated_config(), Workload(args=(100,)))
    report2 = result2.unroll_reports["main"]
    assert report2.unrolled
    got, _ = run_module(module2, args=[100])
    assert got == sum(i % 7 for i in range(100))


#: A generated loop-heavy program (compile-generated benchmark, seed 24,
#: program 89) that was miscompiled: SSA cleanup folded the inner
#: while's constant ``break`` branch but left the folded edge as a phi
#: incoming at the loop exit, and the SPT transform then filled the
#: phi's unmatched predecessor with 0.
GEN089 = """
global int A[64] aliased;
global int B[64];
global int C[64] aliased;

int helper0(int x) {
    return (((((((x) * (2))) + (19))) + (A[(x) & 63]))) & 65535;
}

int main(int n) {
    int s0 = 3;
    int s1 = 10;
    int s2 = 17;
    int s3 = 24;
    int s4 = 31;
    int w0 = 0;
    int w1 = 0;
    int w2 = 0;
    for (int i0 = 0; i0 < 64; i0++) {
        A[(i0) & 63] = (((i0) * (33))) & 65535;
    }
    for (int i1 = 0; i1 < 64; i1++) {
        B[(i1) & 63] = (((i1) * (28))) & 65535;
    }
    for (int i2 = 0; i2 < 64; i2++) {
        C[(i2) & 63] = (((i2) * (12))) & 65535;
    }
    C[(B[(242) & 63]) & 63] = (helper0(B[(80) & 63])) & 65535;
    B[(helper0(11)) & 63] = (helper0(A[(16) & 63])) & 65535;
    w0 = 4;
    while (w0 > 0) {
        w0 = w0 - 1;
        w1 = 7;
        while (w1 > 0) {
            w1 = w1 - 1;
            s3 = (((s3) - (B[(C[(246) & 63]) & 63]))) & 65535;
            if (((((108) + (51))) > (((s1) & (63))))) { break; }
        }
        s3 = (((s3) & (s3))) & 65535;
        B[(((s4) / (((s2) & 7) + 1))) & 63] = (((helper0(113)) / (((A[(s2) & 63]) & 7) + 1))) & 65535;
        if (((helper0(67)) < (((s4) & (s1))))) {
            s3 = (((s3) + (((((C[(167) & 63]) / (((C[(1) & 63]) & 7) + 1))) >> ((184) & 7))))) & 65535;
        }
    }
    for (int i3 = 0; i3 < 20; i3++) {
        w2 = 8;
        while (w2 > 0) {
            w2 = w2 - 1;
            s0 = (A[(254) & 63]) & 65535;
            s0 = (n) & 65535;
        }
        for (int i4 = 0; i4 < 2; i4++) {
            s3 = (((s3) - (s1))) & 65535;
            s3 = (((s3) + (B[(s4) & 63]))) & 65535;
            s4 = (((s4) + (helper0(138)))) & 65535;
        }
        s3 = (((s3) - (C[(s0) & 63]))) & 65535;
        s0 = (((s0) + (((s2) % (((189) & 7) + 1))))) & 65535;
    }
    return (s0 + s1 + s2 + s3 + s4 + A[13] + B[6]) & 1048575;
}
"""


def test_generated_program_keeps_its_value_under_anticipated():
    assert Machine(compile_minic(GEN089)).run("main", [23]) == 54990
    module = compile_minic(GEN089)
    result = compile_spt(module, anticipated_config(), Workload(args=(23,)))
    assert ("main", "while_head") in result.spt_loop_keys()
    assert CompiledMachine(module).run("main", [23]) == 54990
