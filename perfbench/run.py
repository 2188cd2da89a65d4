"""End-to-end benchmark of the SPT compile / evaluate / simulate paths.

Usage, from the repository root::

    python3 perfbench/run.py --workload eval-best --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop: one program at a time,
on one worker, in whole passes over the workload's programs for about
``--seconds`` (at least one pass; with ``--trace 1`` at least two,
alternately untraced and traced).  Every operation's output is checked
against the reference interpreter.  The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced passes with ``--trace 1``.  The lines before it
give the host, one row per program and the digest of the simulated
statistics, which a host-only change must leave unchanged.  See
README.md in this directory.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOAD_NAMES = ("eval-best", "compile-suite", "compile-generated", "simulate-base")

#: Fault-injection hooks that would change what is measured.
REFUSED_ENV = (
    "REPRO_FAULT",
    "REPRO_TRACE_BAILOUT",
    "REPRO_BATCH_CRASH_ON",
    "REPRO_SERVE_CRASH_ON",
)

#: Set-up is timed this many times per run; ``setup_s`` uses the median.
SETUP_REPEATS = 3

#: The host-speed probe: a fixed pure-Python spin loop of this many
#: iterations (about a quarter of a millisecond).
PROBE_ITERATIONS = 4_000
#: The probe's time on the reference host (2-vCPU Xeon KVM guest,
#: Python 3.11) when no other tenant contends for its core.  Shared
#: hosts slow everything down by up to ~1.6x for seconds to minutes at
#: a time.  Each operation's host time is scaled by
#: ``(NOMINAL_PROBE_S / probe) ** CONTENTION_EXPONENT``, with ``probe``
#: the mean probe time around and during the operation, so times read
#: as uncontended reference-host seconds; host seconds are printed too.
NOMINAL_PROBE_S = 0.00025
#: The interpreter-heavy operations slow down more than the spin loop
#: under contention.  On the reference host, log(operation time) rose
#: 1.25-1.28x as fast as log(probe time); 1.25 minimised the run-to-run
#: spread of simulate-base over eight runs (0.043, against 0.11 with
#: plain scaling and 0.43 uncorrected); and with it, eval-best runs on a
#: host slowed ~1.65x read within 3% of runs on an uncontended one.
CONTENTION_EXPONENT = 1.25
#: Probes taken before and after each operation (median), and the
#: interval of the single probes taken while it runs.  Most generated
#: programs compile in under 0.1 s, so a 0.1 s interval left them with
#: the probes around them alone; at 0.02 s the per-program residual
#: after correction fell from 8.4% to 6.9% over three same-seed runs of
#: compile-generated on the reference host, for about 1.3% of probe
#: time inside operations.
PROBE_REPEATS = 9
PROBE_INTERVAL_S = 0.02


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def probe() -> float:
    return statistics.median(_spin() for _ in range(PROBE_REPEATS))


class HostSpeed:
    """Converts an operation's host seconds to reference-host seconds.

    The host is probed right before and after the operation, and every
    ``PROBE_INTERVAL_S`` while it runs from an interval-timer signal, so
    a contention spell that starts or ends inside a long operation is
    weighted by the time it covers."""

    def __init__(self):
        self.samples: List[float] = []
        # Sum and count of the current operation's probes, in place: a
        # list of the probe times would keep objects allocated in the
        # middle of the operation alive, which pins the allocator's
        # arenas and holds up the resident memory of later operations.
        self._probes = array("d", [0.0, 0.0])

    def _add(self, probe_s: float) -> None:
        self._probes[0] += probe_s
        self._probes[1] += 1

    def _sample(self, signum, frame) -> None:
        self._add(_spin())

    def start(self) -> None:
        self._probes[0] = self._probes[1] = 0.0
        self._add(probe())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self, elapsed: float) -> float:
        """Stop probing; return ``elapsed`` in reference-host seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._add(probe())
        mean = self._probes[0] / self._probes[1]
        self.samples.append(mean)
        return elapsed * uncontended(mean)


def uncontended(probe_s: float) -> float:
    """The factor from host seconds to uncontended reference-host
    seconds, given the probe time measured alongside."""
    return (NOMINAL_PROBE_S / probe_s) ** CONTENTION_EXPONENT


def _malloc_trim():
    # The process's own symbols include the C library's (glibc only).
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()


def release_free_memory() -> None:
    """Collect garbage and hand freed heap back to the system (glibc),
    so one operation's peak does not raise the next one's baseline."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark at the current
    RSS, so the next reading is the peak of what runs in between."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the reading then covers the whole process so far


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Pass:
    """One pass over the workload's programs."""

    def __init__(self, traced: bool):
        self.traced = traced
        #: Reference-host seconds per program, and host seconds.
        self.program_s: Dict[str, float] = {}
        self.program_host_s: Dict[str, float] = {}
        #: Mean host-speed probe around and during each program.
        self.program_probe_s: Dict[str, float] = {}
        self.program_rss_mb: Dict[str, float] = {}
        self.stats: Dict[str, Dict] = {}
        self.failures: Dict[str, List[str]] = {}
        self.speedups: Dict[str, float] = {}

    @property
    def host_s(self) -> float:
        return sum(self.program_host_s.values())

    def digest(self) -> str:
        blob = json.dumps(self.stats, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(workloads, tracing, workload, cases, speed: HostSpeed,
             recorder) -> Pass:
    result = Pass(traced=recorder is not None)
    installed = tracing.Installation(recorder, tracing.TARGETS) if recorder else None
    try:
        for case in cases:
            name = case.bench.name
            # Start every operation from a collected heap, so one
            # operation's garbage is not collected on the next one's time.
            release_free_memory()
            reset_peak_rss()
            speed.start()
            if recorder is not None:
                recorder.active = True
            start = time.perf_counter()
            try:
                outcome = workload.run(case)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                outcome = None
                failures = [f"exception: {type(exc).__name__}: {exc}"]
            finally:
                elapsed = time.perf_counter() - start
                if recorder is not None:
                    recorder.active = False
                corrected = speed.stop(elapsed)
            result.program_host_s[name] = elapsed
            result.program_probe_s[name] = speed.samples[-1]
            result.program_s[name] = corrected
            result.program_rss_mb[name] = peak_rss_mb()
            if outcome is not None:
                failures = list(outcome.failures)
                try:
                    failures += workloads.check(case, outcome)
                except Exception as exc:  # noqa: BLE001 - a failed check
                    failures.append(f"exception: {type(exc).__name__}: {exc}")
                result.stats[name] = outcome.stats
                if outcome.speedup is not None:
                    result.speedups[name] = outcome.speedup
            if failures:
                result.failures[name] = failures
    finally:
        if installed is not None:
            installed.remove()
    return result


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def program_medians(passes: List[Pass], field: str) -> Dict[str, float]:
    """Each program's median of ``Pass.<field>`` over the passes."""
    return {
        name: statistics.median(getattr(p, field)[name] for p in passes)
        for name in passes[0].program_s
    }


def end_to_end_metrics(passes: List[Pass], setup_s: float, simulates_spt: bool):
    times = program_medians(passes, "program_s")
    per_program_ms = [1e3 * t for t in times.values()]
    peaks = list(program_medians(passes, "program_rss_mb").values())
    speedups = list(passes[0].speedups.values())
    speedup = geomean(speedups) if simulates_spt and speedups else 1.0
    return {
        # A typical pass: the sum of the programs' median times.
        "wall_s": (sum(times.values()), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (p90(peaks), "MB"),
        "program_p50_ms": (statistics.median(per_program_ms), "ms"),
        "program_p90_ms": (p90(per_program_ms), "ms"),
        "spt_speedup_geomean": (speedup, "x"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(recorder, passes: List[Pass], probe_s: float):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    self_s = {key: value / n for key, value in recorder.self_s.items()}
    counts = {key: value / n for key, value in recorder.counts.items()}
    traced_wall = statistics.fmean(p.host_s for p in traced)
    untraced_wall = statistics.fmean(p.host_s for p in untraced)

    def seconds(key):
        return self_s.get(key, 0.0)

    def count(key):
        return counts.get(key, 0)

    metrics = {}
    for key in (
        "machine.spt_run_s", "machine.replay_s", "machine.base_run_s",
        "profiling.train_s", "profiling.svp_s",
        "frontend.compile_minic_s", "core.unroll_s", "ssa.construct_s",
        "ssa.optimize_s", "analysis.depgraph_s", "core.costgraph_s",
        "core.search_s", "core.transform_s", "core.svp_apply_s",
        "core.select_s", "core.pipeline_other_s",
        "benchsuite.clean_module_s", "benchsuite.runner_other_s",
    ):
        metrics[key] = (seconds(key), "s")
    for prefix, key in (
        ("machine.spt", "machine.spt_run_s"),
        ("machine.base", "machine.base_run_s"),
        ("profiling.train", "profiling.train_s"),
        ("profiling.svp", "profiling.svp_s"),
    ):
        metrics[f"{prefix}_ns_per_instr"] = (
            1e9 * _ratio(seconds(key), count(f"{prefix}_executed")), "ns/instr"
        )
    for prefix in ("machine.spt", "machine.base"):
        metrics[f"{prefix}_trace_op_share"] = (
            _ratio(count(f"{prefix}_ops_on_trace"), count(f"{prefix}_executed")),
            "ratio",
        )
    metrics["machine.base_side_exit_ratio"] = (
        _ratio(count("machine.base_side_exits"), count("machine.base_entries")),
        "ratio",
    )
    for key, unit in (
        ("machine.spt_op_records", "count"),
        ("machine.timing_models", "count"),
        ("machine.reexec_ops", "count"),
        ("core.search_nodes", "count"),
        ("core.cost_node_visits", "count"),
        ("core.loops_analyzed", "count"),
        ("core.loops_selected", "count"),
        ("machine.base_cycles", "cycles"),
        ("machine.base_instr", "instr"),
        ("machine.spt_cycles", "cycles"),
    ):
        metrics[key] = (count(key), unit)
    # The machine's simulated instruction counts come from the timing
    # engine; profiling runs have none, so theirs are interpreted ones.
    for prefix in ("profiling.train", "profiling.svp"):
        metrics[f"{prefix}_instr"] = (count(f"{prefix}_executed"), "instr")
    metrics["core.cost_cache_hit_rate"] = (
        _ratio(
            count("core.cost_cache_hits"),
            count("core.cost_cache_hits") + count("core.cost_evaluations"),
        ),
        "ratio",
    )
    metrics["host.probe_s"] = (probe_s, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unwrapped_s"] = (traced_wall - sum(self_s.values()), "s")
    return metrics


def print_rows(passes: List[Pass], workload: str) -> None:
    host = program_medians(passes, "program_host_s")
    probes = program_medians(passes, "program_probe_s")
    for name, wall in program_medians(passes, "program_s").items():
        row = {"program": name, "wall_s": round(wall, 6),
               "host_s": round(host[name], 6), "probe_s": round(probes[name], 9)}
        if name in passes[0].speedups:
            row["speedup"] = round(passes[0].speedups[name], 6)
        failures = sorted({f for p in passes for f in p.failures.get(name, [])})
        if failures:
            row["failures"] = failures
        print("row " + json.dumps(row, sort_keys=True))
    speedups = list(passes[0].speedups.values())
    if speedups:
        print(f"speedup geomean {geomean(speedups):.6f} over {len(speedups)} programs")
    print(f"digest {workload} {passes[0].digest()}")


def print_layers(metrics: Dict) -> None:
    wall = metrics["trace.wall_s"][0]
    timed = [(v, k) for k, (v, unit) in metrics.items()
             if unit == "s" and k.split(".")[0] not in ("trace", "host")]
    for value, key in sorted(timed, reverse=True):
        print(f"layer {key:32s} {value:10.4f} s {100 * _ratio(value, wall):6.1f}%")
    unwrapped = metrics["trace.unwrapped_s"][0]
    print(f"layer {'(unwrapped remainder)':32s} {unwrapped:10.4f} s "
          f"{100 * _ratio(unwrapped, wall):6.1f}%")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Set-up is corrected for contention like an operation is: from
    # probes around and during each part, not from one probe after it.
    setup_speed = HostSpeed()
    setup_speed.start()
    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    import_ref_s = setup_speed.stop(import_s)
    workload = workloads.WORKLOADS[args.workload]
    setup_times = []
    setup_ref_times = []
    for _ in range(SETUP_REPEATS):
        setup_speed.start()
        start = time.perf_counter()
        cases = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
        setup_ref_times.append(setup_speed.stop(setup_times[-1]))
    setup_s = import_ref_s + statistics.median(setup_ref_times)
    speed = HostSpeed()

    recorder = tracing.SpanRecorder() if args.trace else None
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        passes.append(run_pass(workloads, tracing, workload, cases, speed,
                               recorder if traced else None))
        pass_s = time.perf_counter() - pass_start
        done = len(passes) >= (2 if recorder is not None else 1)
        # Stop when a pass like the last one would end more than half a
        # pass after the deadline.
        if done and time.perf_counter() - start + pass_s / 2 > args.seconds:
            break

    digests = {p.digest() for p in passes}
    attempted = sum(len(p.program_s) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    mismatches = [f for p in passes for fs in p.failures.values() for f in fs
                  if f.startswith("mismatch")]
    problems = []
    if len(digests) > 1:
        problems.append("simulated statistics differ between passes")
    if recorder is not None:
        problems += tracing.self_check(recorder, args.workload)
    for problem in problems + mismatches:
        print(f"error: {problem}", file=sys.stderr)

    probe_s = statistics.median(speed.samples)
    print("info " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workers": 1,
        "passes": len(passes),
        "programs": len(cases),
        "import_s": round(import_s, 6),
        "setup_repeats_s": [round(t, 6) for t in setup_times],
        "host_wall_s": round(statistics.median(p.host_s for p in passes), 6),
        "probe_s": round(probe_s, 6),
        "nominal_probe_s": NOMINAL_PROBE_S,
    }, sort_keys=True))
    print_rows(passes, args.workload)
    if recorder is not None:
        metrics = per_layer_metrics(recorder, passes, probe_s)
        print_layers(metrics)
    else:
        metrics = end_to_end_metrics(passes, setup_s, workload.simulates_spt)
    print(json.dumps({
        "correct": not problems and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
