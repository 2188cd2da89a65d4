"""Loop-scoped op capture contracts for the compiled interpreter.

A tracer that only needs per-op detail *inside one loop* (the SPT trace
collector, :class:`repro.machine.spt_sim.SptTraceCollector`) should not
force the whole run onto per-op hooks: hooking ``on_instr``/``on_def``/
``on_load``/``on_store`` turns hot traces off everywhere and costs
several Python calls per op.  Such a tracer instead declares a
:class:`LoopCapture` contract, and
:class:`~repro.profiling.compiled.CompiledMachine` honours it:

* **outside an active iteration** the collector receives nothing;
  those paths keep hot traces and the vectorized timing engine exactly
  like an unobserved run (the loop's own blocks are never traced);
* **inside the loop body** blocks run in *capture mode*: each op
  appends its record inline from a per-static-instruction template
  (base ticks, use names with phis resolved per predecessor,
  destination), and the block-level iteration boundaries call the
  sink's ``begin_iteration`` / ``enter_body`` / ``end_loop``;
* **callees of in-loop calls** run in *aggregate mode*: their static
  tick cost is charged per block, and loads, stores and branches fold
  into the call-site's record (read set, write set, latency).

Capture always records every per-op field: latency ticks, register
uses, register defs, load address/value, store address/old/new, and the
call aggregate.  How blocks are lowered in capture and aggregate mode
lives with the other block lowerings in :mod:`repro.profiling.compiled`;
this module holds the contract, the planning, and the per-loop
iteration state machine.

Load ticks come from the run's one cache hierarchy (the engine's):
every hierarchy in a run sees the same access stream, so the tick a
private copy would return is the engine's tick.  Branch mispredicts
come from the sink's own predictor, which is trained on in-loop
branches only.  The records are identical, field for field, to the
hook path's (``tests/machine/test_loop_capture.py``).

The contract is **opt-in per class**: the machine only reads it when the
tracer's own class defines ``capture_contract``, so a subclass that
overrides hooks stays on the hook path unless it declares a contract of
its own.  Capture is all-or-nothing per run: when any contract cannot
be honoured (no timing engine, another tracer hooks per-op events,
overlapping loops, or a loop whose calls reach a captured function or a
non-module callee), every tracer runs on hooks as before.

Sink protocol (what the contract's ``sink`` provides):

* ``record_type(instr, ticks, uses, pre_fork)`` builds one record
  (``uses`` is a shared tuple of register names) with
  the ``def_*``/``load_*``/``store_*``/``mem_*`` slots of
  :class:`~repro.machine.spt_sim.OpRecord`;
* ``begin_iteration(from_body) -> list`` opens an iteration and returns
  its op list; ``enter_body()``; ``end_loop()``;
* ``reg_values``: name -> last value defined inside the loop;
* ``branch_ticks(key, taken) -> int``: mispredict ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.ir.instr import Call


@dataclass(frozen=True)
class LoopCapture:
    """A declarative, block-granular capture contract for one loop."""

    func_name: str
    header: str
    body_labels: FrozenSet[str]
    #: ``spt_fork`` marker ending the pre-fork region (no record).
    loop_id: int
    sink: object


def contract_of(tracer) -> Optional[LoopCapture]:
    """``tracer``'s contract iff its own class declares one."""
    if "capture_contract" not in vars(type(tracer)):
        return None
    return tracer.capture_contract()


def _call_closure(module, roots) -> set:
    seen = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        func = module.functions.get(name)
        if func is not None:
            stack.extend(_callees(func.blocks))
    return seen


def _callees(blocks) -> List[str]:
    return [
        instr.callee
        for block in blocks
        for instr in block.instrs
        if isinstance(instr, Call)
    ]


def plan_captures(
    module, contracts: List[LoopCapture]
) -> Optional[Dict[str, Dict[str, "LoopRun"]]]:
    """Map each contract's function name to its body labels'
    :class:`LoopRun`, or None when some contract cannot be honoured
    (every tracer must then run on hooks).  Contracts naming a function
    the module lacks have nothing to observe and are dropped."""
    targets = {c.func_name for c in contracts}
    runs: Dict[str, Dict[str, LoopRun]] = {}
    for contract in contracts:
        func = module.functions.get(contract.func_name)
        if func is None:
            continue
        if contract.header not in contract.body_labels:
            return None
        body = [b for b in func.blocks if b.label in contract.body_labels]
        reach = _call_closure(module, _callees(body))
        if reach & targets or not reach <= set(module.functions):
            return None
        labels = runs.setdefault(contract.func_name, {})
        run = LoopRun(contract)
        for label in contract.body_labels:
            if label in labels:
                return None  # overlapping loops
            labels[label] = run
    return runs


class LoopRun:
    """Run-time state of one honoured contract during one run: the
    iteration state machine the capture-mode blocks write into."""

    __slots__ = ("sink", "header", "body", "loop_id", "ops", "pre_fork",
                 "prev", "regs")

    def __init__(self, contract: LoopCapture):
        self.sink = contract.sink
        self.header = contract.header
        self.body = contract.body_labels
        self.loop_id = contract.loop_id
        #: The active iteration's op list; None outside an iteration.
        self.ops: Optional[list] = None
        self.pre_fork = True
        #: Predecessor of the body block being executed (phi records
        #: resolve their incoming by it).
        self.prev: Optional[str] = None
        self.regs = contract.sink.reg_values

    def enter(self, label: str, prev: Optional[str]) -> bool:
        """Control enters body block ``label`` of the target frame: move
        the iteration state machine, and say whether an iteration is
        active (the block must then run in capture mode)."""
        if label == self.header:
            self.ops = self.sink.begin_iteration(
                prev is not None and prev in self.body
            )
            self.pre_fork = True
        elif self.ops is None:
            return False
        else:
            self.sink.enter_body()
        self.prev = prev
        return True

    def leave(self) -> None:
        """Control left the loop (exit edge or return)."""
        self.ops = None
        self.sink.end_loop()
