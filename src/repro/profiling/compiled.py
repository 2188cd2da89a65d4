"""Block-compiled interpreter fast path.

:class:`~repro.profiling.interp.Machine` dispatches every dynamic
instruction through an ``isinstance`` chain and evaluates operands
through :meth:`Machine._eval`, paying the full interpretive overhead
50 million times per profiling run.  :class:`CompiledMachine` removes
that overhead by pre-compiling each basic block *once*, on first
execution, into a flat list of specialized closures:

* **operand accessors are resolved at compile time** -- constants are
  captured as Python values, variables become single dict lookups, and
  ``LoadAddr`` folds the symbol table lookup into a constant;
* **opcode dispatch is hoisted** -- the ``_BINOPS`` table lookup happens
  at block-compile time, so executing an ``add`` is one closure call;
* **phi batches are precomputed per predecessor label** -- entering a
  block through label ``L`` applies a prepared (dest, accessor) list
  with the parallel-assignment semantics of the reference interpreter;
* **tracer-aware specialization** -- at ``run()`` time the machine
  inspects which :class:`Tracer` hooks each attached tracer actually
  overrides and emits hook calls only for those, so the common
  zero-tracer (and edge-profile-only) case pays nothing for the
  observer interface;
* **batched fuel accounting** -- fuel is charged once per block with a
  single comparison instead of once per instruction.

Three further layers stack on top of the block-compiled path:

* **hot-trace splicing** (``trace=True``): block paths that stay hot
  are recorded and compiled into single superblock closures with
  guarded side exits (:mod:`repro.profiling.traces`);
* a **vectorized timing engine** (``timing_engine=...``): block-batched
  cycle accounting that replaces a per-op
  :class:`~repro.machine.timing.TimingTracer`
  (:mod:`repro.machine.vector_timing`), driven from the block driver
  and from inside compiled traces;
* **loop-scoped capture** (contracts in :mod:`repro.profiling.capture`):
  tracers that declare a loop capture contract (the SPT trace
  collectors) get their per-op records emitted inline by capture-mode
  blocks inside their loop only, instead of per-op hooks, and the
  callees of in-loop calls run in aggregate mode -- so with the
  engine, the rest of an instrumented run keeps its hot traces.
  Per-op hooks of any other tracer still disable traces for the whole
  run.

Semantics match the reference interpreter exactly on well-formed
programs: return values, memory state, ``Machine.executed`` counts and
tracer event streams are all identical (the differential tests in
``tests/profiling/test_compiled.py`` and
``tests/profiling/test_trace_interp.py`` assert this over the whole
benchmark suite).  The only tolerated divergence is *which* error
surfaces first on already-broken programs: batched fuel may exhaust at
block entry (or, under traces, at a pass boundary) where the reference
interpreter would first hit, say, a division by zero mid-block.
"""

from __future__ import annotations

import gc
import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import (
    BinOp,
    Branch,
    Call,
    Copy,
    Instr,
    Jump,
    Load,
    LoadAddr,
    Phi,
    Return,
    SptFork,
    SptKill,
    Store,
    UnOp,
)
from repro.ir.values import Const, Value, Var
from repro.profiling.capture import LoopRun, contract_of, plan_captures
from repro.profiling.interp import (
    _BINOPS,
    _UNOPS,
    _div,
    _mod,
    FuelExhausted,
    InterpError,
    Machine,
    Tracer,
)

#: Sentinel returned by terminator closures on function return.
_RETURN = object()

#: Sentinel in ``_CompiledFunction.traces``: this entry label is known
#: not to yield a useful trace; never record it again this run.
_BLACKLISTED = object()

#: Tracer hook names that affect compiled code generation.
_HOOK_NAMES = (
    "on_enter_function",
    "on_exit_function",
    "on_block",
    "on_edge",
    "on_instr",
    "on_def",
    "on_load",
    "on_store",
    "on_call",
)


class _Hooks:
    """Tracers bucketed by the hooks they actually override.

    A tracer subscribes to a hook iff its class overrides the base
    :class:`Tracer` method; un-overridden no-op hooks are elided from
    the compiled code entirely.
    """

    __slots__ = _HOOK_NAMES + ("signature",)

    def __init__(self, tracers):
        signature = []
        for name in _HOOK_NAMES:
            base = getattr(Tracer, name)
            subscribed = tuple(
                t for t in tracers if getattr(type(t), name, base) is not base
            )
            setattr(self, name, subscribed)
            signature.append(tuple(id(t) for t in subscribed))
        self.signature = tuple(signature)

    @property
    def per_instr(self) -> bool:
        """Whether any per-instruction hook is live."""
        return bool(self.on_instr or self.on_def)

    @property
    def per_op(self) -> bool:
        """Whether any hook needs the individual op stream (rules out
        hot traces and loop-scoped capture)."""
        return bool(
            self.per_instr or self.on_load or self.on_store or self.on_call
        )


class _CompiledBlock:
    """One basic block lowered to closures."""

    __slots__ = ("block", "fuel", "ops", "term", "phis", "phi_batches", "hooked_phis")

    def __init__(self, block: Block):
        self.block = block
        #: Fuel charged on entry: the instructions the reference
        #: interpreter would execute in this block.
        self.fuel = 0
        #: Straight-line (non-phi, non-terminator) closures.
        self.ops: Tuple[Callable, ...] = ()
        #: Terminator closure: env -> next label | _RETURN (or raises).
        self.term: Callable = None
        #: The phi prefix (for diagnostics), or ().
        self.phis: Tuple[Phi, ...] = ()
        #: prev label -> precomputed batch, or None when the block has
        #: no phis.  Batch entries are (dest_name, accessor) pairs, or
        #: (phi, dest_name, accessor) triples when per-instruction
        #: hooks are live.
        self.phi_batches: Optional[Dict[str, tuple]] = None
        self.hooked_phis = False


class _CompiledFunction:
    """Lazily block-compiled code for one function on one machine."""

    def __init__(
        self, machine: "CompiledMachine", func: Function, hooks: _Hooks,
        capture: Optional[Dict[str, LoopRun]] = None,
    ):
        self.machine = machine
        self.func = func
        self.hooks = hooks
        #: Captured body label -> its loop's run state, or None.
        self.capture = capture or None
        self.block_map = func.block_map()
        self.blocks: Dict[str, _CompiledBlock] = {}
        #: Captured body label -> its capture-mode block.
        self.capture_blocks: Dict[str, _CompiledBlock] = {}
        #: entry label -> CompiledTrace | _BLACKLISTED.
        self.traces: Dict[str, object] = {}
        #: entry label -> executions since the last (re)record.
        self.hot_counts: Dict[str, int] = {}
        #: entry label -> unusable-recording count (blacklist after 3).
        self.reject_counts: Dict[str, int] = {}
        #: Hot-trace splicing engages only when no hook tracer needs the
        #: individual instruction stream.  Loop-captured tracers are not
        #: hook tracers: only their loops' own blocks stay out of traces
        #: (they run in capture mode), everything else is traced.
        self.tracing = machine.trace_enabled and not hooks.per_op

    # -- operand accessors -------------------------------------------

    def _accessor(self, value: Value) -> Callable:
        if isinstance(value, Const):
            const = value.value
            return lambda env: const
        if isinstance(value, Var):
            name = value.name
            func_name = self.func.name

            def get(env):
                try:
                    return env[name]
                except KeyError:
                    raise InterpError(
                        f"use of undefined variable {name} in {func_name}"
                    ) from None

            return get
        raise InterpError(f"cannot evaluate {value!r}")

    # -- per-instruction cores ---------------------------------------
    #
    # A core executes one instruction against an environment and
    # returns the defined value (or None for pure effects); hook
    # wrapping happens in :meth:`_wrap`.

    def _binop_core(self, instr: BinOp) -> Callable:
        dest = instr.dest.name
        if instr.op == "div":
            fn = _div
        elif instr.op == "mod":
            fn = _mod
        else:
            fn = _BINOPS[instr.op]
        lhs, rhs = instr.lhs, instr.rhs
        func_name = self.func.name
        # The Var/Var and Var/Const shapes dominate hot loops; inline
        # the environment lookups so one closure call executes the op.
        if isinstance(lhs, Var) and isinstance(rhs, Var):
            n1, n2 = lhs.name, rhs.name

            def core(env):
                try:
                    value = fn(env[n1], env[n2])
                except KeyError as exc:
                    raise InterpError(
                        f"use of undefined variable {exc.args[0]} in {func_name}"
                    ) from None
                env[dest] = value
                return value

            return core
        if isinstance(lhs, Var) and isinstance(rhs, Const):
            n1, c2 = lhs.name, rhs.value

            def core(env):
                try:
                    value = fn(env[n1], c2)
                except KeyError:
                    raise InterpError(
                        f"use of undefined variable {n1} in {func_name}"
                    ) from None
                env[dest] = value
                return value

            return core
        get_lhs = self._accessor(lhs)
        get_rhs = self._accessor(rhs)

        def core(env):
            value = fn(get_lhs(env), get_rhs(env))
            env[dest] = value
            return value

        return core

    def _unop_core(self, instr: UnOp) -> Callable:
        dest = instr.dest.name
        fn = _UNOPS[instr.op]
        get_src = self._accessor(instr.src)

        def core(env):
            value = fn(get_src(env))
            env[dest] = value
            return value

        return core

    def _copy_core(self, instr: Copy) -> Callable:
        dest = instr.dest.name
        get_src = self._accessor(instr.src)

        def core(env):
            value = get_src(env)
            env[dest] = value
            return value

        return core

    def _loadaddr_core(self, instr: LoadAddr) -> Callable:
        # The symbol table is fixed at machine construction; fold the
        # lookup into a constant.
        base = self.machine.symbol_base(self.func, instr.sym)
        dest = instr.dest.name

        def core(env):
            env[dest] = base
            return base

        return core

    def _load_core(self, instr: Load, observe=None) -> Callable:
        """``observe(addr, value, ticks)``, when given, sees every load
        after it hit the engine's cache (capture and aggregate modes;
        requires the engine)."""
        dest = instr.dest.name
        get_base = self._accessor(instr.base)
        get_off = self._accessor(instr.offset)
        machine = self.machine
        on_load = self.hooks.on_load
        engine = machine.timing_engine
        if on_load:
            e_load = engine.load if engine is not None else None

            def core(env):
                addr = int(get_base(env)) + int(get_off(env))
                value = machine.read_mem(addr)
                if e_load is not None:
                    e_load(addr)
                for t in on_load:
                    t.on_load(instr, addr, value)
                env[dest] = value
                return value

            return core

        if engine is not None:
            e_load = engine.load

            def core(env):
                addr = int(get_base(env)) + int(get_off(env))
                mem = machine.memory
                if 0 <= addr < len(mem):
                    value = mem[addr]
                else:
                    raise InterpError(f"load from invalid address {addr}")
                ticks = e_load(addr)
                if observe is not None:
                    observe(addr, value, ticks)
                env[dest] = value
                return value

            return core

        def core(env):
            addr = int(get_base(env)) + int(get_off(env))
            mem = machine.memory
            if 0 <= addr < len(mem):
                value = mem[addr]
            else:
                raise InterpError(f"load from invalid address {addr}")
            env[dest] = value
            return value

        return core

    def _store_core(self, instr: Store, observe=None) -> Callable:
        """``observe(addr, old, value)``, when given, sees every store
        after its write-allocate fill (as for :meth:`_load_core`)."""
        get_base = self._accessor(instr.base)
        get_off = self._accessor(instr.offset)
        get_value = self._accessor(instr.value)
        machine = self.machine
        on_store = self.hooks.on_store
        engine = machine.timing_engine
        if on_store:
            e_store = (
                engine.model.hierarchy.fill_for_write
                if engine is not None
                else None
            )

            def core(env):
                addr = int(get_base(env)) + int(get_off(env))
                value = get_value(env)
                old = machine.read_mem(addr)
                machine.write_mem(addr, value)
                if e_store is not None:
                    e_store(addr)
                for t in on_store:
                    t.on_store(instr, addr, value, old)
                return None

            return core

        if engine is not None:
            # store() only write-allocates; bind the hierarchy directly.
            e_store = engine.model.hierarchy.fill_for_write

            def core(env):
                addr = int(get_base(env)) + int(get_off(env))
                value = get_value(env)
                mem = machine.memory
                if 0 <= addr < len(mem):
                    old = mem[addr]
                    mem[addr] = value
                else:
                    raise InterpError(f"store to invalid address {addr}")
                e_store(addr)
                if observe is not None:
                    observe(addr, old, value)
                return None

            return core

        def core(env):
            addr = int(get_base(env)) + int(get_off(env))
            value = get_value(env)
            mem = machine.memory
            if 0 <= addr < len(mem):
                mem[addr] = value
            else:
                raise InterpError(f"store to invalid address {addr}")
            return None

        return core

    def _call_core(self, instr: Call) -> Callable:
        machine = self.machine
        arg_accessors = tuple(self._accessor(a) for a in instr.args)
        on_call = self.hooks.on_call
        callee = instr.callee
        dest = instr.dest.name if instr.dest is not None else None

        # Resolve the callee at compile time (functions and intrinsics
        # are both registered before execution starts).
        if callee in machine.module.functions:
            target = machine.module.functions[callee]
            call_function = self._function_entry()

            def invoke(args):
                return call_function(target, args)

        elif callee in machine.intrinsics:
            intrinsic = machine.intrinsics[callee]

            def invoke(args):
                return intrinsic(machine, *args)

        else:

            def invoke(args):
                raise InterpError(f"call to unknown function {callee!r}")

        def core(env):
            args = [get(env) for get in arg_accessors]
            for t in on_call:
                t.on_call(instr, args)
            value = invoke(args)
            if dest is not None:
                env[dest] = value
            return value

        return core

    def _function_entry(self) -> Callable:
        """How this code calls a module function: ``(func, args)``."""
        return self.machine._call_function

    def _raise_core(self, instr: Instr) -> Callable:
        def core(env):
            raise InterpError(f"cannot execute {instr!r}")

        return core

    # -- terminators ---------------------------------------------------

    def _compile_term(self, block: Block, instr: Optional[Instr]) -> Callable:
        if instr is None:
            label = block.label

            def term(env):
                raise InterpError(f"block {label} fell off the end")

        elif isinstance(instr, Jump):
            target = instr.target

            def term(env):
                return target

        elif isinstance(instr, Branch):
            get_cond = self._accessor(instr.cond)
            iftrue, iffalse = instr.iftrue, instr.iffalse
            engine = self.machine.timing_engine
            if engine is not None:
                e_branch = engine.branch
                key = id(instr)
                # taken == (destination is iftrue), degenerate
                # same-target branches included (mirrors TimingTracer).
                same = iftrue == iffalse

                def term(env, _pin=instr):
                    if get_cond(env):
                        e_branch(key, True)
                        return iftrue
                    e_branch(key, same)
                    return iffalse

            else:

                def term(env):
                    return iftrue if get_cond(env) else iffalse

        elif isinstance(instr, Return):
            if instr.value is None:

                def term(env):
                    env["$ret"] = None
                    return _RETURN

            else:
                get_value = self._accessor(instr.value)

                def term(env):
                    env["$ret"] = get_value(env)
                    return _RETURN

        else:
            raise InterpError(f"cannot execute {instr!r}")

        on_instr = self.hooks.on_instr
        if on_instr and instr is not None:
            func = self.func
            inner = term

            def term(env):
                for t in on_instr:
                    t.on_instr(func, block, instr)
                return inner(env)

        return term

    # -- hook wrapping -------------------------------------------------

    def _wrap(self, core: Callable, block: Block, instr: Instr) -> Callable:
        """Apply the ``on_instr``/``on_def`` hooks around ``core``."""
        on_instr = self.hooks.on_instr
        on_def = self.hooks.on_def if instr.dest is not None else ()
        if not on_instr and not on_def:
            return core
        func = self.func
        if on_instr and on_def:

            def op(env):
                for t in on_instr:
                    t.on_instr(func, block, instr)
                value = core(env)
                for t in on_def:
                    t.on_def(instr, value)
                return value

        elif on_instr:

            def op(env):
                for t in on_instr:
                    t.on_instr(func, block, instr)
                return core(env)

        else:

            def op(env):
                value = core(env)
                for t in on_def:
                    t.on_def(instr, value)
                return value

        return op

    # -- block compilation ----------------------------------------------

    _CORES = {
        BinOp: "_binop_core",
        UnOp: "_unop_core",
        Copy: "_copy_core",
        LoadAddr: "_loadaddr_core",
        Load: "_load_core",
        Store: "_store_core",
        Call: "_call_core",
    }

    def compile_block(self, label: str) -> _CompiledBlock:
        block = self.block_map[label]
        cb = _CompiledBlock(block)

        # Split the phi prefix from the straight-line body; stop at the
        # first terminator (the reference interpreter never executes
        # past it, and neither does the fuel accounting).
        instrs = block.instrs
        index = 0
        phis: List[Phi] = []
        while index < len(instrs) and isinstance(instrs[index], Phi):
            phis.append(instrs[index])
            index += 1

        body: List[Instr] = []
        terminator: Optional[Instr] = None
        executed = len(phis)
        for instr in instrs[index:]:
            executed += 1
            if instr.is_terminator:
                terminator = instr
                break
            body.append(instr)
        cb.fuel = executed
        cb.phis = tuple(phis)

        if phis:
            cb.hooked_phis = self.hooks.per_instr
            batches: Dict[str, tuple] = {}
            for prev in _phi_predecessors(phis):
                if cb.hooked_phis:
                    batches[prev] = tuple(
                        (phi, phi.dest.name, self._accessor(phi.incomings[prev]))
                        for phi in phis
                    )
                else:
                    batches[prev] = tuple(
                        (phi.dest.name, self._accessor(phi.incomings[prev]))
                        for phi in phis
                    )
            cb.phi_batches = batches

        ops: List[Callable] = []
        for instr in body:
            maker = self._CORES.get(type(instr))
            if maker is not None:
                core = getattr(self, maker)(instr)
            elif isinstance(instr, (SptFork, SptKill)):
                # Sequential no-ops: they only exist for on_instr hooks.
                if not self.hooks.on_instr:
                    continue
                core = None
            elif isinstance(instr, Phi):
                core = self._raise_core(instr)  # phi after the prefix
            else:
                core = self._raise_core(instr)
            if core is None:
                on_instr = self.hooks.on_instr
                func = self.func
                bound = instr

                def core(env, _f=func, _b=block, _i=bound, _h=on_instr):
                    for t in _h:
                        t.on_instr(_f, _b, _i)

                ops.append(core)
                continue
            ops.append(self._wrap(core, block, instr))
        cb.ops = tuple(ops)
        cb.term = self._compile_term(block, terminator)
        return cb

    # -- capture mode (repro.profiling.capture) -------------------------
    #
    # A captured loop's body blocks are lowered a second time: each op
    # first appends its record to the active iteration (``run.ops``)
    # from a per-static-instruction template, then executes.  Loads
    # and stores build their record in the core's ``observe`` callback,
    # once the cache tick and the address are known.

    def compile_capture_block(self, run: LoopRun, label: str) -> _CompiledBlock:
        plain = self.blocks.get(label)
        if plain is None:
            plain = self.blocks[label] = self.compile_block(label)
        cb = _CompiledBlock(plain.block)
        cb.fuel = plain.fuel
        cb.phis = plain.phis
        ops = []
        if plain.phis:
            ops.append(self._capture_phis(run, cb))
        # Through the first terminator, like compile_block.
        body = list(plain.block.instrs[len(plain.phis):plain.fuel])
        terminator = None
        if body and body[-1].is_terminator:
            terminator = body.pop()
        ops.extend(self._capture_op(run, instr) for instr in body)
        cb.ops = tuple(ops)
        cb.term = self._capture_term(run, plain, terminator)
        return cb

    def _template(self, instr: Instr) -> Tuple[int, Tuple[str, ...]]:
        """An op's record template: base ticks and use names."""
        ticks = self.machine.timing_engine.model.base_ticks(instr)
        return ticks, tuple(v.name for v in instr.uses() if isinstance(v, Var))

    def _capture_phis(self, run: LoopRun, cb: _CompiledBlock) -> Callable:
        label = cb.block.label
        model = self.machine.timing_engine.model
        # prev label -> per-phi (phi, dest, accessor, uses, ticks).
        by_prev = {}
        for prev in _phi_predecessors(cb.phis):
            entries = []
            for phi in cb.phis:
                incoming = phi.incomings[prev]
                uses = (incoming.name,) if isinstance(incoming, Var) else ()
                entries.append((
                    phi, phi.dest.name, self._accessor(incoming), uses,
                    model.base_ticks(phi),
                ))
            by_prev[prev] = tuple(entries)
        Rec = run.sink.record_type

        def op(env):
            prev = run.prev
            entries = by_prev.get(prev)
            if entries is None:
                if prev is None:
                    raise InterpError(f"phi in entry block {label}")
                self._phi_error(cb, prev)
            ops = run.ops
            pre = run.pre_fork
            regs = run.regs
            values = []
            for phi, dest, get, uses, ticks in entries:
                rec = Rec(phi, ticks, uses, pre)
                ops.append(rec)
                value = get(env)
                values.append(value)
                rec.def_name = dest
                rec.def_old = regs.get(dest)
                rec.def_new = value
                regs[dest] = value
            for entry, value in zip(entries, values):
                env[entry[1]] = value

        return op

    def _capture_op(self, run: LoopRun, instr: Instr) -> Callable:
        if isinstance(instr, SptFork) and instr.loop_id == run.loop_id:

            def op(env):
                run.pre_fork = False

            return op
        Rec = run.sink.record_type
        ticks, uses = self._template(instr)
        if isinstance(instr, Load):
            dest = instr.dest.name

            def observe(addr, value, extra):
                rec = Rec(instr, ticks + extra, uses, run.pre_fork)
                run.ops.append(rec)
                rec.load_addr = addr
                rec.load_value = value
                regs = run.regs
                rec.def_name = dest
                rec.def_old = regs.get(dest)
                rec.def_new = value
                regs[dest] = value

            return self._load_core(instr, observe)
        if isinstance(instr, Store):

            def observe(addr, old, value):
                rec = Rec(instr, ticks, uses, run.pre_fork)
                run.ops.append(rec)
                rec.store_addr = addr
                rec.store_old = old
                rec.store_new = value

            return self._store_core(instr, observe)
        if isinstance(instr, Call):
            return self._capture_call(run, instr, ticks, uses)
        if isinstance(instr, (SptFork, SptKill)):
            core = None
        else:
            maker = self._CORES.get(type(instr))
            core = (
                getattr(self, maker)(instr)
                if maker is not None
                else self._raise_core(instr)
            )
        dest = getattr(instr, "dest", None)
        if core is None or dest is None:

            def op(env):
                run.ops.append(Rec(instr, ticks, uses, run.pre_fork))
                if core is not None:
                    core(env)

            return op
        dest = dest.name

        def op(env):
            rec = Rec(instr, ticks, uses, run.pre_fork)
            run.ops.append(rec)
            value = core(env)
            regs = run.regs
            rec.def_name = dest
            rec.def_old = regs.get(dest)
            rec.def_new = value
            regs[dest] = value

        return op

    def _capture_call(self, run: LoopRun, instr: Call, ticks, uses) -> Callable:
        """One record for the whole call: the callee runs in aggregate
        mode and folds its latency, reads and writes into it."""
        machine = self.machine
        Rec = run.sink.record_type
        accessors = tuple(self._accessor(a) for a in instr.args)
        # plan_captures admits module callees only.
        target = machine.module.functions[instr.callee]
        dest = instr.dest.name if instr.dest is not None else None
        sink = run.sink
        call_aggregate = machine._call_aggregate

        def op(env):
            rec = Rec(instr, ticks, uses, run.pre_fork)
            rec.mem_reads = set()
            rec.mem_writes = {}
            run.ops.append(rec)
            value = call_aggregate(
                target, [get(env) for get in accessors], rec, sink
            )
            if dest is not None:
                env[dest] = value
                regs = run.regs
                rec.def_name = dest
                rec.def_old = regs.get(dest)
                rec.def_new = value
                regs[dest] = value

        return op

    def _capture_term(
        self, run: LoopRun, plain: _CompiledBlock, instr: Optional[Instr]
    ) -> Callable:
        inner = plain.term
        if not isinstance(instr, (Branch, Jump, Return)):
            return inner  # raises: fell off the end / cannot execute
        Rec = run.sink.record_type
        ticks, uses = self._template(instr)
        if isinstance(instr, Branch):
            get_cond = self._accessor(instr.cond)
            iftrue, iffalse = instr.iftrue, instr.iffalse
            key = id(instr)
            same = iftrue == iffalse
            e_branch = self.machine.timing_engine.branch
            mispredict = run.sink.branch_ticks

            def term(env, _pin=instr):
                rec = Rec(instr, ticks, uses, run.pre_fork)
                run.ops.append(rec)
                if get_cond(env):
                    e_branch(key, True)
                    rec.ticks += mispredict(key, True)
                    return iftrue
                e_branch(key, same)
                rec.ticks += mispredict(key, same)
                return iffalse

            return term

        def term(env):
            run.ops.append(Rec(instr, ticks, uses, run.pre_fork))
            return inner(env)

        return term

    # -- phi execution helpers ------------------------------------------

    def _phi_error(self, cb: _CompiledBlock, prev_label: str):
        for phi in cb.phis:
            if prev_label not in phi.incomings:
                raise InterpError(
                    f"phi {phi.dest} has no incoming for {prev_label}"
                )
        raise InterpError(
            f"no phi batch for predecessor {prev_label} in {cb.block.label}"
        )

    def _run_hooked_phis(self, batch, env, func, block) -> None:
        on_instr = self.hooks.on_instr
        on_def = self.hooks.on_def
        updates = []
        for phi, dest, get in batch:
            for t in on_instr:
                t.on_instr(func, block, phi)
            value = get(env)
            updates.append((dest, value))
            for t in on_def:
                t.on_def(phi, value)
        for dest, value in updates:
            env[dest] = value

    # -- the interpreter loop -------------------------------------------

    def call(self, args: List):
        func = self.func
        machine = self.machine
        hooks = self.hooks
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        env: Dict[str, object] = {}
        for param, arg in zip(func.params, args):
            env[param.name] = arg
        for t in hooks.on_enter_function:
            t.on_enter_function(func, args)
        engine = machine.timing_engine
        if engine is not None:
            engine.enter(func, args)

        blocks = self.blocks
        on_block = hooks.on_block
        on_edge = hooks.on_edge
        fuel = machine.fuel
        label = func.entry.label
        prev_label: Optional[str] = None
        traces = self.traces if self.tracing else None
        hot_threshold = machine.trace_hot_threshold
        recording: Optional[List[str]] = None
        rec_seen = None
        capture = self.capture
        run = None

        while True:
            if traces is not None:
                tr = traces.get(label)
                if tr is None:
                    if capture is None or label not in capture:
                        count = self.hot_counts.get(label, 0) + 1
                        self.hot_counts[label] = count
                        # ``>=`` not ``==``: a block can cross the
                        # threshold while another recording is active
                        # (or while the per-function trace budget is
                        # full) and must still get its recording at the
                        # next opportunity -- unrolled steady-state loop
                        # bodies reach their threshold inside the guard
                        # copy's recording.
                        if (
                            count >= hot_threshold
                            and recording is None
                            and len(traces) < machine.trace_max_per_func
                        ):
                            self.hot_counts[label] = 0
                            recording = [label]
                            rec_seen = {label}
                elif tr is not _BLACKLISTED and recording is None:
                    # (An active recording bypasses installed traces:
                    # letting one run would leave a multi-block hole
                    # in the recorded path.)
                    nxt, last = tr.fn(env, prev_label)
                    stats = tr.stats
                    passes = stats.passes - tr.pass0
                    if (
                        passes >= 64
                        and not passes & 63
                        and (stats.side_exits - tr.exit0) * 2 > passes
                    ):
                        # The recorded direction stopped matching the
                        # branch profile: drop and re-record.  (The
                        # check runs every 64th pass: one failed check
                        # means the next 63 can't flip the verdict to
                        # a *worse* trace than re-recording costs.)
                        self._drop_trace(label, tr)
                    if nxt is _RETURN:
                        result = env.get("$ret")
                        break
                    # The trace already emitted the edge into ``nxt``.
                    prev_label = last
                    label = nxt
                    continue

            cb = None
            if capture is not None:
                run = capture.get(label)
                if run is not None and run.enter(label, prev_label):
                    cb = self.capture_blocks.get(label)
                    if cb is None:
                        cb = self.compile_capture_block(run, label)
                        self.capture_blocks[label] = cb
            if cb is None:
                cb = blocks.get(label)
                if cb is None:
                    cb = self.compile_block(label)
                    blocks[label] = cb

            machine.executed += cb.fuel
            if machine.executed > fuel:
                raise FuelExhausted(f"exceeded {fuel} dynamic instructions")
            if machine.watchdog is not None:
                machine.watchdog.poll()

            if engine is not None:
                engine.block(func, cb.block, prev_label)
            if on_block:
                for t in on_block:
                    t.on_block(func, cb.block, prev_label)

            batches = cb.phi_batches
            if batches is not None:
                if prev_label is None:
                    raise InterpError(f"phi in entry block {label}")
                batch = batches.get(prev_label)
                if batch is None:
                    self._phi_error(cb, prev_label)
                if cb.hooked_phis:
                    self._run_hooked_phis(batch, env, func, cb.block)
                elif len(batch) == 1:
                    dest, get = batch[0]
                    env[dest] = get(env)
                else:
                    updates = [(dest, get(env)) for dest, get in batch]
                    for dest, value in updates:
                        env[dest] = value

            for op in cb.ops:
                op(env)
            nxt = cb.term(env)
            if (
                run is not None
                and run.ops is not None
                and (nxt is _RETURN or nxt not in run.body)
            ):
                run.leave()

            if recording is not None:
                cyclic = None
                if nxt is _RETURN:
                    cyclic = False
                elif nxt == recording[0]:
                    cyclic = True
                elif (
                    len(recording) >= machine.trace_max_blocks
                    or nxt in rec_seen
                    or (capture is not None and nxt in capture)
                ):
                    # Recording runs *through* blocks that already
                    # anchor other traces: aborting there would chop
                    # loop bodies with branch diamonds into chains of
                    # short linear traces that bounce off the
                    # dispatcher once per link, instead of one cyclic
                    # trace per iteration.
                    cyclic = False
                else:
                    recording.append(nxt)
                    rec_seen.add(nxt)
                if cyclic is not None:
                    self._finish_recording(recording, cyclic)
                    recording = None
                    rec_seen = None

            if nxt is _RETURN:
                result = env.get("$ret")
                break
            if nxt not in self.block_map:
                raise KeyError(f"no block {nxt!r} in function {func.name}")
            if on_edge:
                for t in on_edge:
                    t.on_edge(func, label, nxt)
            prev_label = label
            label = nxt

        if engine is not None:
            engine.exit(func, result)
        for t in hooks.on_exit_function:
            t.on_exit_function(func, result)
        return result

    # -- trace lifecycle -------------------------------------------------

    def _finish_recording(self, path: List[str], cyclic: bool) -> None:
        """Compile a completed recording and install (or veto) it."""
        from repro.profiling.traces import compile_trace

        machine = self.machine
        entry = path[0]
        stats = machine._trace_stats_for(self.func.name, entry)
        if stats.exit_counts:
            # Guard-failure feedback from the invalidated previous
            # generation: cut the new path where the *cumulative*
            # failure rate of the guards kept so far crosses a third
            # of the passes (the block at the cut stays; its failing
            # guard becomes an unguarded computed exit).  Without
            # this, re-records of paths crossing data-dependent
            # diamonds churn through identical high-failure traces
            # into the blacklist -- and a per-guard threshold alone
            # misses paths whose failures are spread across many
            # mildly unstable branches.
            gen_passes = stats.passes - stats.gen_pass0
            cum = 0
            for index, lbl in enumerate(path):
                cum += stats.exit_counts.get(lbl, 0)
                if cum * 3 > gen_passes:
                    del path[index + 1:]
                    cyclic = False
                    break
        if (
            not cyclic
            and len(path) < 2
            and len(self.block_map[entry].instrs) < 5
        ):
            # A single-block linear trace over a tiny block cannot
            # beat the block path; re-record later (the same entry may
            # loop next time), but give up after a few useless
            # recordings.  A *meaty* single block is still worth
            # installing: its ops run natively and the data-dependent
            # branch that truncated the path here becomes an unguarded
            # computed exit.
            rejects = self.reject_counts.get(entry, 0) + 1
            self.reject_counts[entry] = rejects
            if rejects >= 3:
                self.traces[entry] = _BLACKLISTED
                machine.trace_rejects += 1
            else:
                self.hot_counts[entry] = 0
            return
        trace = compile_trace(self, path, cyclic, stats)
        if trace is None:
            # Structurally untraceable (unsupported op, malformed phi,
            # path/CFG mismatch): never try this entry again.
            self.traces[entry] = _BLACKLISTED
            machine.trace_rejects += 1
            return
        stats.compiles += 1
        stats.exit_counts = {}
        stats.gen_pass0 = stats.passes
        trace.pass0 = stats.passes
        trace.exit0 = stats.side_exits
        self.traces[entry] = trace

    def _drop_trace(self, entry: str, trace) -> None:
        trace.stats.invalidations += 1
        self.machine.trace_invalidations += 1
        if trace.stats.compiles >= 3:
            self.traces[entry] = _BLACKLISTED
        else:
            del self.traces[entry]
            self.hot_counts[entry] = 0


def _phi_predecessors(phis) -> List[str]:
    """Predecessor labels every phi of a block has an incoming for (the
    executor raises the per-phi error lazily for the others)."""
    labels = set()
    for phi in phis:
        labels.update(phi.incomings)
    return [
        prev for prev in labels if all(prev in phi.incomings for phi in phis)
    ]


class _AggregateFunction(_CompiledFunction):
    """A callee of an in-loop call, compiled to fold its execution into
    the call-site record (``machine._agg_rec``): per-block static ticks,
    load ticks and read addresses, store write-set entries (first old
    value, last new value), and the loop sink's branch mispredicts.
    Never traced; registers stay invisible to the loop."""

    def __init__(self, machine, func, hooks):
        super().__init__(machine, func, hooks)
        self.tracing = False

    def compile_block(self, label: str) -> _CompiledBlock:
        cb = super().compile_block(label)
        model = self.machine.timing_engine.model
        static = sum(
            model.base_ticks(instr) for instr in cb.block.instrs[: cb.fuel]
        )
        if static:
            machine = self.machine

            def charge(env):
                machine._agg_rec.ticks += static

            cb.ops = (charge,) + cb.ops
        return cb

    def _load_core(self, instr: Load, observe=None) -> Callable:
        machine = self.machine

        def fold(addr, value, ticks):
            rec = machine._agg_rec
            rec.ticks += ticks
            rec.mem_reads.add(addr)

        return super()._load_core(instr, fold)

    def _store_core(self, instr: Store, observe=None) -> Callable:
        machine = self.machine

        def fold(addr, old, value):
            writes = machine._agg_rec.mem_writes
            first = writes.get(addr)
            writes[addr] = (old if first is None else first[0], value)

        return super()._store_core(instr, fold)

    def _function_entry(self) -> Callable:
        return self.machine._call_nested_aggregate

    def _compile_term(self, block: Block, instr: Optional[Instr]) -> Callable:
        term = super()._compile_term(block, instr)
        if not isinstance(instr, Branch):
            return term
        machine = self.machine
        iftrue = instr.iftrue
        key = id(instr)

        def aggregate_term(env, _pin=instr):
            nxt = term(env)
            # taken == (destination is iftrue), degenerate same-target
            # branches included (mirrors the hook path's on_edge).
            machine._agg_rec.ticks += machine._agg_sink.branch_ticks(
                key, nxt == iftrue
            )
            return nxt

        return aggregate_term


class CompiledMachine(Machine):
    """A :class:`Machine` that executes through the compiled fast path.

    Drop-in compatible: same constructor, same ``run``/``add_tracer``/
    ``register_intrinsic`` API, same memory and symbol layout (both are
    inherited untouched).  Blocks are compiled lazily on first
    execution and the compiled code is discarded whenever ``run`` is
    invoked, so modules mutated between runs are always re-lowered.

    With ``trace=True``, hot block paths are additionally spliced into
    superblock traces (:mod:`repro.profiling.traces`); a
    :class:`~repro.machine.vector_timing.VectorTimingEngine` passed as
    ``timing_engine`` receives block-batched timing events from both
    the block driver and compiled traces.
    """

    def __init__(
        self, module: Module, fuel: int = 50_000_000, telemetry=None,
        watchdog=None, trace: bool = False, timing_engine=None,
        trace_hot_threshold: int = 16, trace_max_blocks: int = 32,
        trace_max_per_func: int = 64,
    ):
        super().__init__(
            module, fuel=fuel, telemetry=telemetry, watchdog=watchdog
        )
        self._hooks: Optional[_Hooks] = None
        self._code: Dict[str, _CompiledFunction] = {}
        #: Loop captures honoured this run: function name -> captured
        #: label -> LoopRun (see repro.profiling.capture).
        self._captures: Dict[str, Dict[str, object]] = {}
        #: Aggregate-mode code for callees of in-loop calls, and the
        #: call-site record / loop sink they currently fold into.
        self._agg_code: Dict[str, _CompiledFunction] = {}
        self._agg_rec = None
        self._agg_sink = None
        self.trace_enabled = trace
        self.timing_engine = timing_engine
        #: Block executions before an entry label starts recording.
        self.trace_hot_threshold = trace_hot_threshold
        #: Longest recordable path (superblock size cap).
        self.trace_max_blocks = trace_max_blocks
        #: Trace-count cap per function (memory bound).
        self.trace_max_per_func = trace_max_per_func
        #: (func_name, entry_label) -> TraceStats, accumulated across
        #: runs and recompilations (telemetry / ``repro explain``).
        self._trace_stats: Dict[Tuple[str, str], object] = {}
        self.trace_rejects = 0
        self.trace_invalidations = 0
        #: REPRO_TRACE_BAILOUT=<k>: force every k-th guard evaluation
        #: to side-exit at its on-trace label (differential testing).
        try:
            self._trace_bailout = int(
                os.environ.get("REPRO_TRACE_BAILOUT", "0") or 0
            )
        except ValueError:
            self._trace_bailout = 0
        self._bail_counter = 0

    # -- trace bookkeeping --------------------------------------------

    def _trace_stats_for(self, func_name: str, entry: str):
        from repro.profiling.traces import TraceStats

        key = (func_name, entry)
        stats = self._trace_stats.get(key)
        if stats is None:
            stats = TraceStats(func_name, entry)
            self._trace_stats[key] = stats
        return stats

    def _trace_bail(self) -> bool:
        self._bail_counter += 1
        return self._bail_counter % self._trace_bailout == 0

    def invalidate_traces(self) -> None:
        """Drop every installed trace and hot counter (the block-level
        code and its semantics are untouched)."""
        for code in self._code.values():
            if code.traces:
                self.trace_invalidations += len(code.traces)
            code.traces.clear()
            code.hot_counts.clear()
            code.reject_counts.clear()

    def trace_report(self) -> Dict[str, Dict[str, object]]:
        """Per-entry trace statistics: ``{"func:entry": {...}}``."""
        return {
            f"{fn}:{entry}": stats.as_dict()
            for (fn, entry), stats in sorted(self._trace_stats.items())
        }

    def _execute(self, func_name: str, args: List) -> object:
        # Specialize for the tracers attached *now* (including any
        # telemetry detail tracer Machine.run just added); invalidate
        # code compiled for a previous run (or a mutated module).
        # Traces live on the per-run code objects, so they are
        # invalidated here too.
        self._captures, hook_tracers = self._plan_captures()
        self._hooks = _Hooks(hook_tracers)
        self._code = {}
        self._agg_code = {}
        if not (self._captures and gc.isenabled()):
            return self._execute_observed(func_name, args)
        # Capture allocates one acyclic record per in-loop op; the
        # cyclic collector's repeated full passes over the growing
        # record lists are pure overhead, so it pauses for the run.
        gc.disable()
        try:
            return self._execute_observed(func_name, args)
        finally:
            gc.enable()

    def _plan_captures(self):
        """Honoured loop captures (function name -> captured label ->
        LoopRun) and the tracers left on hooks.  Capture needs the
        timing engine and no other tracer on per-op hooks; otherwise
        every tracer hooks."""
        contracts = [(t, contract_of(t)) for t in self.tracers]
        others = [t for t, c in contracts if c is None]
        contracts = [c for _, c in contracts if c is not None]
        if (
            contracts
            and self.timing_engine is not None
            and not _Hooks(others).per_op
        ):
            runs = plan_captures(self.module, contracts)
            if runs is not None:
                return runs, others
        return {}, list(self.tracers)

    def _execute_observed(self, func_name: str, args: List) -> object:
        if not (self.trace_enabled and self.telemetry.enabled):
            return super()._execute(func_name, args)
        before = self._trace_counters()
        try:
            return super()._execute(func_name, args)
        finally:
            after = self._trace_counters()
            for name, value in after.items():
                delta = value - before.get(name, 0)
                if delta:
                    self.telemetry.count(f"trace.{name}", delta)

    def _trace_counters(self) -> Dict[str, int]:
        totals = {
            "compiles": 0,
            "entries": 0,
            "passes": 0,
            "side_exits": 0,
            "ops_on_trace": 0,
        }
        for stats in self._trace_stats.values():
            totals["compiles"] += stats.compiles
            totals["entries"] += stats.entries
            totals["passes"] += stats.passes
            totals["side_exits"] += stats.side_exits
            totals["ops_on_trace"] += stats.ops_on_trace
        totals["rejects"] = self.trace_rejects
        totals["invalidations"] = self.trace_invalidations
        return totals

    def _call_function(self, func: Function, args: List):
        if self._hooks is None:
            self._hooks = _Hooks(self.tracers)
        code = self._code.get(func.name)
        if code is None:
            code = _CompiledFunction(
                self, func, self._hooks, self._captures.get(func.name)
            )
            self._code[func.name] = code
        return code.call(args)

    def _call_aggregate(self, func: Function, args: List, record, sink):
        """Run an in-loop call's callee folded into ``record``."""
        saved = self._agg_rec, self._agg_sink
        self._agg_rec, self._agg_sink = record, sink
        try:
            return self._call_nested_aggregate(func, args)
        finally:
            self._agg_rec, self._agg_sink = saved

    def _call_nested_aggregate(self, func: Function, args: List):
        code = self._agg_code.get(func.name)
        if code is None:
            code = _AggregateFunction(self, func, self._hooks)
            self._agg_code[func.name] = code
        return code.call(args)


def make_machine(
    module: Module, fuel: int = 50_000_000, fast: bool = True, telemetry=None,
    watchdog=None, trace: bool = False, timing_engine=None,
) -> Machine:
    """Build the fast machine, or the reference one with ``fast=False``.

    ``trace`` enables hot-trace splicing and ``timing_engine`` attaches
    a vectorized timing engine; both require ``fast=True``.
    """
    if fast:
        return CompiledMachine(
            module, fuel=fuel, telemetry=telemetry, watchdog=watchdog,
            trace=trace, timing_engine=timing_engine,
        )
    if trace or timing_engine is not None:
        raise ValueError(
            "trace compilation and the vectorized timing engine require "
            "the compiled fast path (fast=True)"
        )
    return Machine(module, fuel=fuel, telemetry=telemetry, watchdog=watchdog)
