"""The SPT (speculative parallel threading) machine model (paper §8).

The simulated machine is a tightly-coupled two-core system: a main core
that executes the main thread and commits state, and a speculative core
that runs the next loop iteration from a register snapshot taken at the
fork, with its stores buffered.  Fork costs 6 cycles and commit 5 (§8).

Rather than lock-stepping two pipelines, the simulator replays the
*transformed* program sequentially under the timing model, collecting a
per-iteration trace of dynamic operations for each SPT loop, and then
recombines consecutive iteration pairs into SPT rounds:

* main runs iteration ``i`` (pre-fork, fork, post-fork);
* the speculative core runs iteration ``i+1`` concurrently, starting
  from the fork-time context;
* a speculative operation *misspeculates* when it consumes a register
  or memory value the main thread's post-fork region redefines with a
  **different value** (value-based detection: silent re-stores do not
  violate), or when it depends on another misspeculated operation;
* at the join the main core commits (5 cycles) and re-executes the
  misspeculated operations.

Round wall-clock::

    t_round = t_pre(i) + fork + max(t_post(i), t_iter(i+1))
            + commit + t_reexec(i+1)

versus ``t_iter(i) + t_iter(i+1)`` sequentially.  A trailing unpaired
iteration runs on the main core alone (its fork is wasted).

Because the replay executes the real transformed code, the measured
re-execution ratios are *observed* quantities -- exactly what Figure 19
plots against the compiler's misspeculation cost estimates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.block import Block
from repro.ir.function import Function
from repro.ir.instr import Branch, Call, Instr, Load, Phi, SptFork, Store
from repro.ir.values import Var
from repro.machine.branchpred import BranchPredictor
from repro.machine.cache import MemoryHierarchy
from repro.machine.timing import (
    MISPREDICT_TICKS,
    TICKS_PER_CYCLE,
    instr_base_ticks,
)
from repro.profiling.capture import LoopCapture
from repro.profiling.interp import Tracer

FORK_TICKS = 600
COMMIT_TICKS = 500
FORK_CYCLES = FORK_TICKS / TICKS_PER_CYCLE
COMMIT_CYCLES = COMMIT_TICKS / TICKS_PER_CYCLE


class OpRecord:
    """One dynamic operation inside an SPT loop iteration.

    Latency is held as integer ticks (``ticks``); the ``latency``
    property converts to float cycles for external readers."""

    __slots__ = (
        "instr",
        "ticks",
        "uses",
        "def_name",
        "def_old",
        "def_new",
        "load_addr",
        "load_value",
        "store_addr",
        "store_old",
        "store_new",
        "mem_reads",
        "mem_writes",
        "pre_fork",
        "header_op",
    )

    def __init__(
        self,
        instr: Instr,
        ticks: int = 0,
        uses: Tuple[str, ...] = (),
        pre_fork: bool = False,
    ):
        self.instr = instr
        self.ticks = ticks
        #: Register names read (with phis resolved to the taken incoming).
        #: Immutable, so records of one static op can share it.
        self.uses = uses
        self.def_name: Optional[str] = None
        self.def_old = None
        self.def_new = None
        self.load_addr: Optional[int] = None
        self.load_value = None
        self.store_addr: Optional[int] = None
        self.store_old = None
        self.store_new = None
        #: For aggregated calls: addresses read / written inside.
        self.mem_reads: Optional[Set[int]] = None
        self.mem_writes: Optional[Dict[int, Tuple]] = None
        self.pre_fork = pre_fork
        #: Set for loop-header ops (used by the region simulator: header
        #: values resolve before the fork).
        self.header_op = False

    @property
    def latency(self) -> float:
        return self.ticks / TICKS_PER_CYCLE


class IterationTrace:
    """All operations of one loop iteration, in execution order."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: List[OpRecord] = []

    @property
    def total_ticks(self) -> int:
        return sum(op.ticks for op in self.ops)

    def pre_ticks(self) -> int:
        return sum(op.ticks for op in self.ops if op.pre_fork)

    def post_ticks(self) -> int:
        return sum(op.ticks for op in self.ops if not op.pre_fork)

    @property
    def total_latency(self) -> float:
        return self.total_ticks / TICKS_PER_CYCLE

    def pre_latency(self) -> float:
        return self.pre_ticks() / TICKS_PER_CYCLE

    def post_latency(self) -> float:
        return self.post_ticks() / TICKS_PER_CYCLE


class SptTraceCollector(Tracer):
    """Tracer that records per-iteration traces for one SPT loop.

    Must observe the *transformed* function.  Operations executed inside
    callees are aggregated into the call-site's record (the call becomes
    one atomic op with a read/write address set), matching how the cost
    model treats calls.

    The collector is driven one of two ways, with identical results:

    * **loop-scoped capture** (the default evaluation path): it declares
      a :class:`~repro.profiling.capture.LoopCapture` contract and the
      compiled interpreter emits its :class:`OpRecord` s inline, only
      inside the loop (and in callees of in-loop calls), reading load
      ticks from the run's single cache hierarchy;
    * **tracer hooks** (the reference interpreter and every run the
      compiled machine cannot capture): per-op ``on_instr``/``on_def``/
      ``on_load``/``on_store``/``on_edge`` events.  The cache must see
      the run's whole access stream for its per-load ticks to match the
      run's own timing model, so this path replays every program load
      and store into a private copy of the hierarchy.

    Either way the collector owns a private :class:`BranchPredictor`
    trained on in-loop branches only; the hook path's hierarchy is built
    on first use.
    """

    def __init__(
        self,
        func_name: str,
        header: str,
        body_labels: Set[str],
        loop_id: int,
    ):
        self.func_name = func_name
        self.header = header
        self.body_labels = set(body_labels)
        self.loop_id = loop_id
        self.predictor = BranchPredictor()
        self._hierarchy: Optional[MemoryHierarchy] = None
        #: One list of iterations per loop invocation.
        self.invocations: List[List[IterationTrace]] = []
        self._current: Optional[IterationTrace] = None
        self._in_pre_fork = False
        self._depth_in_target = 0  # frames below the target function
        self._call_stack: List[OpRecord] = []
        #: Register name -> last value defined inside the loop.
        self.reg_values: Dict[str, object] = {}
        self._prev_label: Optional[str] = None
        self._pending_op: Optional[OpRecord] = None
        self._entered_body = False
        self._frame_is_target: List[bool] = []

    @property
    def hierarchy(self) -> MemoryHierarchy:
        """The hook path's private cache hierarchy (built on first use)."""
        if self._hierarchy is None:
            self._hierarchy = MemoryHierarchy()
        return self._hierarchy

    def branch_ticks(self, branch_key: int, taken: bool) -> int:
        """Mispredict ticks of one in-loop branch (private predictor)."""
        if self.predictor.predict_and_update(branch_key, taken):
            return MISPREDICT_TICKS
        return 0

    # -- loop-scoped capture (repro.profiling.capture) -----------------

    #: Record class the capture code instantiates.
    record_type = OpRecord

    def capture_contract(self) -> LoopCapture:
        """The capture contract the compiled interpreter honours.

        Opt-in per class: the interpreter only uses it when the
        tracer's own class defines this method, so subclasses that
        override hooks stay on the hook path unless they declare (and
        implement) a contract of their own."""
        return LoopCapture(
            func_name=self.func_name,
            header=self.header,
            body_labels=frozenset(self.body_labels),
            loop_id=self.loop_id,
            sink=self,
        )

    def begin_iteration(self, from_body: bool) -> List[OpRecord]:
        """Control enters the header (through the back edge iff
        ``from_body``): close the running iteration, open the next one
        (and a new invocation when entering from outside).  Returns the
        new iteration's op list."""
        self._finish_iteration()
        if not from_body:
            self._finish_invocation()
            self._start_invocation()
        self._start_iteration()
        return self._current.ops

    def enter_body(self) -> None:
        """Control reached a non-header body block this iteration."""
        self._entered_body = True

    def end_loop(self) -> None:
        """Control left the loop (exit edge or return)."""
        self._finish_iteration()
        self._finish_invocation()

    # -- tracer hooks ----------------------------------------------------

    def on_enter_function(self, func: Function, args) -> None:
        self._frame_is_target.append(func.name == self.func_name)
        if self._current is not None and func.name != self.func_name:
            self._depth_in_target += 1

    def on_exit_function(self, func: Function, result) -> None:
        was_target = self._frame_is_target.pop()
        if self._current is not None and not was_target:
            self._depth_in_target -= 1
            if self._depth_in_target == 0 and self._call_stack:
                self._call_stack.pop()
        if was_target and self._current is not None:
            self.end_loop()

    def on_block(self, func: Function, block: Block, prev_label) -> None:
        if not self._frame_is_target or not self._frame_is_target[-1]:
            return
        if func.name != self.func_name:
            return
        self._prev_label = prev_label
        if block.label == self.header:
            self.begin_iteration(
                prev_label is not None and prev_label in self.body_labels
            )
        elif self._current is not None and block.label not in self.body_labels:
            self.end_loop()
        elif self._current is not None:
            self.enter_body()

    def _start_invocation(self) -> None:
        self.invocations.append([])

    def _finish_invocation(self) -> None:
        if self.invocations and not self.invocations[-1]:
            self.invocations.pop()

    def _start_iteration(self) -> None:
        self._current = IterationTrace()
        self._in_pre_fork = True
        self._entered_body = False

    def _finish_iteration(self) -> None:
        # The final header pass that fails the loop test is not an
        # iteration -- it never reaches the body.
        if (
            self._current is not None
            and self._current.ops
            and self._entered_body
        ):
            if not self.invocations:
                self.invocations.append([])
            self.invocations[-1].append(self._current)
        self._current = None
        self._call_stack = []
        self._depth_in_target = 0

    def _record(self) -> Optional[OpRecord]:
        """The record receiving the current event (call aggregate when
        inside a callee)."""
        if self._current is None:
            return None
        if self._call_stack:
            return self._call_stack[-1]
        return self._pending_op

    def on_instr(self, func: Function, block: Block, instr: Instr) -> None:
        if self._current is None:
            return
        in_target = self._depth_in_target == 0 and func.name == self.func_name
        if in_target and block.label not in self.body_labels:
            return

        if in_target:
            if isinstance(instr, SptFork) and instr.loop_id == self.loop_id:
                self._in_pre_fork = False
                return
            if isinstance(instr, Phi):
                incoming = instr.incomings.get(self._prev_label)
                uses = (incoming.name,) if isinstance(incoming, Var) else ()
            else:
                uses = tuple(
                    v.name for v in instr.uses() if isinstance(v, Var)
                )
            op = OpRecord(
                instr, instr_base_ticks(instr), uses, self._in_pre_fork
            )
            self._current.ops.append(op)
            self._pending_op = op
            if isinstance(instr, Call):
                op.mem_reads = set()
                op.mem_writes = {}
                self._call_stack.append(op)
        else:
            # Inside a callee: charge latency onto the call aggregate.
            record = self._record()
            if record is not None:
                record.ticks += instr_base_ticks(instr)

    def on_edge(self, func: Function, src_label: str, dst_label: str) -> None:
        if self._current is None:
            return
        record = self._pending_op
        if (
            record is not None
            and isinstance(record.instr, Branch)
            and self._depth_in_target == 0
            and func.name == self.func_name
        ):
            taken = dst_label == record.instr.iftrue
            record.ticks += self.branch_ticks(id(record.instr), taken)
        elif self._call_stack and isinstance(
            func.block(src_label).terminator, Branch
        ):
            branch = func.block(src_label).terminator
            taken = dst_label == branch.iftrue
            self._call_stack[-1].ticks += self.branch_ticks(id(branch), taken)

    def on_def(self, instr: Instr, value) -> None:
        if self._current is None:
            return
        if self._call_stack and (
            self._depth_in_target > 0 or instr is not self._call_stack[-1].instr
        ):
            return  # callee-internal registers are invisible outside
        record = self._pending_op
        if record is None or record.instr is not instr:
            # A call's return value lands on the call record itself.
            if self._call_stack and self._call_stack[-1].instr is instr:
                record = self._call_stack[-1]
            else:
                return
        if instr.dest is not None:
            name = instr.dest.name
            record.def_name = name
            record.def_old = self.reg_values.get(name)
            record.def_new = value
            self.reg_values[name] = value

    def on_load(self, instr: Instr, addr: int, value) -> None:
        # The cache observes every load in the program (cache state must
        # match the run's real access stream), but latency is only
        # attached to ops recorded inside the SPT loop.
        ticks = self.hierarchy.access_ticks(addr)
        if self._current is None:
            return
        if self._call_stack:
            record = self._call_stack[-1]
            record.ticks += ticks
            record.mem_reads.add(addr)
            return
        record = self._pending_op
        if record is None or record.instr is not instr:
            return
        record.ticks += ticks
        record.load_addr = addr
        record.load_value = value

    def on_store(self, instr: Instr, addr: int, value, old_value) -> None:
        self.hierarchy.fill_for_write(addr)
        if self._current is None:
            return
        if self._call_stack:
            record = self._call_stack[-1]
            old = record.mem_writes.get(addr, (old_value, None))[0]
            record.mem_writes[addr] = (old, value)
            return
        record = self._pending_op
        if record is None or record.instr is not instr:
            return
        record.store_addr = addr
        record.store_old = old_value
        record.store_new = value

    # -- checkpointing ------------------------------------------------

    @staticmethod
    def _encode_op(op: OpRecord, key_of) -> List:
        return [
            key_of(id(op.instr)),
            op.ticks,
            list(op.uses),
            op.def_name,
            op.def_old,
            op.def_new,
            op.load_addr,
            op.load_value,
            op.store_addr,
            op.store_old,
            op.store_new,
            sorted(op.mem_reads) if op.mem_reads is not None else None,
            (
                sorted(
                    [addr, old, new]
                    for addr, (old, new) in op.mem_writes.items()
                )
                if op.mem_writes is not None
                else None
            ),
            op.pre_fork,
            op.header_op,
        ]

    @staticmethod
    def _decode_op(fields: List, instr_of) -> OpRecord:
        op = OpRecord(instr_of(fields[0]))
        (
            op.ticks,
            uses,
            op.def_name,
            op.def_old,
            op.def_new,
            op.load_addr,
            op.load_value,
            op.store_addr,
            op.store_old,
            op.store_new,
            mem_reads,
            mem_writes,
            op.pre_fork,
            op.header_op,
        ) = fields[1:]
        op.uses = tuple(uses)
        op.mem_reads = set(mem_reads) if mem_reads is not None else None
        op.mem_writes = (
            {addr: (old, new) for addr, old, new in mem_writes}
            if mem_writes is not None
            else None
        )
        return op

    def snapshot_state(self, key_of) -> Dict:
        """Plain-data snapshot at an entry-frame block boundary.

        At such a boundary no call is in flight (calls complete within
        their block), so the call-aggregation stack must be empty; the
        in-progress iteration (``_current``), the finished invocation
        traces, and the collector's private timing state are all
        captured (under ``"model"``: its hierarchy and predictor).
        ``_pending_op`` is transient (only consulted while
        its instruction's events are still being delivered) and
        restores as None."""
        if self._call_stack or self._depth_in_target:
            raise ValueError(
                "SptTraceCollector snapshot outside a block boundary "
                "(call in flight)"
            )
        encode = self._encode_op
        return {
            "invocations": [
                [[encode(op, key_of) for op in trace.ops] for trace in traces]
                for traces in self.invocations
            ],
            "current": (
                [encode(op, key_of) for op in self._current.ops]
                if self._current is not None
                else None
            ),
            "in_pre_fork": self._in_pre_fork,
            "reg_values": dict(self.reg_values),
            "prev_label": self._prev_label,
            "entered_body": self._entered_body,
            "frame_is_target": list(self._frame_is_target),
            "model": {
                "hierarchy": self.hierarchy.snapshot_state(),
                "predictor": self.predictor.snapshot_state(key_of),
            },
        }

    def restore_state(self, state: Dict, instr_of, id_of) -> None:
        """Inverse of :meth:`snapshot_state`.  ``instr_of`` maps an
        instruction key to the live instruction; ``id_of`` to its id."""

        def decode_trace(ops: List) -> IterationTrace:
            trace = IterationTrace()
            trace.ops = [self._decode_op(fields, instr_of) for fields in ops]
            return trace

        self.invocations = [
            [decode_trace(ops) for ops in traces]
            for traces in state["invocations"]
        ]
        self._current = (
            decode_trace(state["current"])
            if state["current"] is not None
            else None
        )
        self._in_pre_fork = bool(state["in_pre_fork"])
        self.reg_values = dict(state["reg_values"])
        self._prev_label = state["prev_label"]
        self._entered_body = bool(state["entered_body"])
        self._frame_is_target = [bool(f) for f in state["frame_is_target"]]
        self._depth_in_target = 0
        self._call_stack = []
        self._pending_op = None
        self.hierarchy.restore_state(state["model"]["hierarchy"])
        self.predictor.restore_state(state["model"]["predictor"], id_of)


class SptLoopStats:
    """Simulated SPT statistics of one loop.

    Cycle totals accumulate as integer ticks (``*_ticks`` fields); the
    ``*_cycles`` properties expose float cycles (exact conversions)."""

    def __init__(self, func_name: str, header: str):
        self.func_name = func_name
        self.header = header
        self.invocations = 0
        self.iterations = 0
        self.seq_ticks = 0
        self.spt_ticks = 0
        #: Dynamic operations executed speculatively / re-executed.
        self.spec_ops = 0
        self.reexec_ops = 0
        self.reexec_ticks = 0
        self.spec_ticks = 0
        #: Dynamic instruction count per iteration (body size, Fig 17).
        self.total_ops = 0
        self.prefork_ticks = 0

    @property
    def seq_cycles(self) -> float:
        return self.seq_ticks / TICKS_PER_CYCLE

    @property
    def spt_cycles(self) -> float:
        return self.spt_ticks / TICKS_PER_CYCLE

    @property
    def reexec_cycles(self) -> float:
        return self.reexec_ticks / TICKS_PER_CYCLE

    @property
    def spec_cycles(self) -> float:
        return self.spec_ticks / TICKS_PER_CYCLE

    @property
    def prefork_cycles(self) -> float:
        return self.prefork_ticks / TICKS_PER_CYCLE

    @property
    def key(self) -> Tuple[str, str]:
        return (self.func_name, self.header)

    @property
    def loop_speedup(self) -> float:
        return self.seq_ticks / self.spt_ticks if self.spt_ticks else 1.0

    @property
    def misspeculation_ratio(self) -> float:
        return self.reexec_ops / self.spec_ops if self.spec_ops else 0.0

    @property
    def reexecution_ratio(self) -> float:
        """Fraction of speculative computation re-executed (Fig 19 y-axis)."""
        return self.reexec_ticks / self.spec_ticks if self.spec_ticks else 0.0

    @property
    def avg_body_ops(self) -> float:
        return self.total_ops / self.iterations if self.iterations else 0.0

    @property
    def prefork_fraction(self) -> float:
        return self.prefork_ticks / self.seq_ticks if self.seq_ticks else 0.0

    def __repr__(self) -> str:
        return (
            f"SptLoopStats({self.func_name}:{self.header}, "
            f"speedup={self.loop_speedup:.2f}, "
            f"misspec={self.misspeculation_ratio:.3f})"
        )


def _post_fork_writes(trace: IterationTrace):
    """Register and memory locations the main thread redefines after the
    fork, with (value-at-fork, final-value)."""
    reg: Dict[str, Tuple] = {}
    mem: Dict[int, Tuple] = {}
    for op in trace.ops:
        if op.pre_fork:
            continue
        if op.def_name is not None:
            if op.def_name in reg:
                reg[op.def_name] = (reg[op.def_name][0], op.def_new)
            else:
                reg[op.def_name] = (op.def_old, op.def_new)
        if op.store_addr is not None:
            if op.store_addr in mem:
                mem[op.store_addr] = (mem[op.store_addr][0], op.store_new)
            else:
                mem[op.store_addr] = (op.store_old, op.store_new)
        if op.mem_writes:
            for addr, (old, new) in op.mem_writes.items():
                if addr in mem:
                    mem[addr] = (mem[addr][0], new)
                else:
                    mem[addr] = (old, new)
    return reg, mem


def _replay_speculative(
    spec: IterationTrace, post_reg: Dict[str, Tuple], post_mem: Dict[int, Tuple]
) -> Tuple[int, int]:
    """Walk the speculative iteration, propagating misspeculation.

    Returns (re-executed ticks, re-executed op count)."""
    tainted_regs: Set[str] = set()
    clean_regs: Set[str] = set()
    tainted_addrs: Set[int] = set()
    clean_addrs: Set[int] = set()
    reexec_ticks = 0
    reexec_ops = 0

    def stale_reg(name: str) -> bool:
        if name in clean_regs or name in tainted_regs:
            return False  # redefined this iteration
        entry = post_reg.get(name)
        return entry is not None and entry[0] != entry[1]

    def stale_addr(addr: int) -> bool:
        if addr in clean_addrs or addr in tainted_addrs:
            return False
        entry = post_mem.get(addr)
        return entry is not None and entry[0] != entry[1]

    for op in spec.ops:
        tainted = False
        for name in op.uses:
            if name in tainted_regs or stale_reg(name):
                tainted = True
                break
        if not tainted and op.load_addr is not None:
            if op.load_addr in tainted_addrs or stale_addr(op.load_addr):
                tainted = True
        if not tainted and op.mem_reads:
            for addr in op.mem_reads:
                if addr in tainted_addrs or stale_addr(addr):
                    tainted = True
                    break

        if tainted:
            reexec_ticks += op.ticks
            reexec_ops += 1
            if op.def_name is not None:
                tainted_regs.add(op.def_name)
                clean_regs.discard(op.def_name)
            if op.store_addr is not None:
                tainted_addrs.add(op.store_addr)
                clean_addrs.discard(op.store_addr)
            if op.mem_writes:
                for addr in op.mem_writes:
                    tainted_addrs.add(addr)
                    clean_addrs.discard(addr)
        else:
            # A clean redefinition heals the location: later readers
            # observe a correct value even if an earlier op this
            # iteration tainted it.
            if op.def_name is not None:
                clean_regs.add(op.def_name)
                tainted_regs.discard(op.def_name)
            if op.store_addr is not None:
                clean_addrs.add(op.store_addr)
                tainted_addrs.discard(op.store_addr)
            if op.mem_writes:
                for addr in op.mem_writes:
                    clean_addrs.add(addr)
                    tainted_addrs.discard(addr)
    return reexec_ticks, reexec_ops


def simulate_spt_loop(collector: SptTraceCollector, telemetry=None) -> SptLoopStats:
    """Recombine the collected traces into SPT rounds and total up the
    loop's sequential vs. SPT execution time.

    With enabled ``telemetry``, every round emits one ``spt.round``
    event (fork, commit, re-execution outcome) and the fork/commit/
    misspeculation totals accumulate as ``spt.*`` counters.
    """
    if telemetry is None:
        from repro.obs.telemetry import NULL_TELEMETRY

        telemetry = NULL_TELEMETRY
    observed = telemetry.enabled
    loop_key = f"{collector.func_name}:{collector.header}"
    stats = SptLoopStats(collector.func_name, collector.header)
    for invocation, iterations in enumerate(collector.invocations):
        if not iterations:
            continue
        stats.invocations += 1
        stats.iterations += len(iterations)
        for trace in iterations:
            stats.seq_ticks += trace.total_ticks
            stats.total_ops += len(trace.ops)
            stats.prefork_ticks += trace.pre_ticks()

        index = 0
        round_index = 0
        while index < len(iterations):
            main = iterations[index]
            if index + 1 < len(iterations):
                spec = iterations[index + 1]
                post_reg, post_mem = _post_fork_writes(main)
                reexec_ticks, reexec_ops = _replay_speculative(
                    spec, post_reg, post_mem
                )
                t_pre = main.pre_ticks()
                t_post = main.post_ticks()
                t_spec = spec.total_ticks
                round_ticks = (
                    t_pre
                    + FORK_TICKS
                    + max(t_post, t_spec)
                    + COMMIT_TICKS
                    + reexec_ticks
                )
                stats.spt_ticks += round_ticks
                stats.spec_ops += len(spec.ops)
                stats.spec_ticks += t_spec
                stats.reexec_ops += reexec_ops
                stats.reexec_ticks += reexec_ticks
                if observed:
                    telemetry.count("spt.rounds")
                    telemetry.count("spt.forks")
                    telemetry.count("spt.commits")
                    telemetry.count("spt.reexec_ops", reexec_ops)
                    if reexec_ops:
                        telemetry.count("spt.misspeculation_events")
                    telemetry.event(
                        "spt.round",
                        loop=loop_key,
                        invocation=invocation,
                        round=round_index,
                        committed=True,
                        spec_ops=len(spec.ops),
                        reexec_ops=reexec_ops,
                        reexec_cycles=round(reexec_ticks / TICKS_PER_CYCLE, 3),
                        round_cycles=round(round_ticks / TICKS_PER_CYCLE, 3),
                    )
                index += 2
            else:
                # Unpaired trailing iteration: main runs it alone; the
                # fork it issued spawns a doomed thread (killed at exit).
                stats.spt_ticks += main.total_ticks + FORK_TICKS
                if observed:
                    telemetry.count("spt.forks")
                    telemetry.count("spt.wasted_forks")
                    telemetry.event(
                        "spt.round",
                        loop=loop_key,
                        invocation=invocation,
                        round=round_index,
                        committed=False,
                        spec_ops=0,
                        reexec_ops=0,
                    )
                index += 1
            round_index += 1
    if observed:
        telemetry.count("spt.loops_simulated")
    return stats
