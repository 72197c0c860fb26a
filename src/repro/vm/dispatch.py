"""Precompiled instruction dispatch — the VM's execution path.

The hot opcodes do the same static work on every dynamic execution:
operand decoding, a cost-table lookup, the fall-through pc and the
branch target.  This module compiles each
:class:`~repro.isa.instructions.Instruction` once, at machine
construction, into a closure with all of that already bound.
``Machine._step`` then dispatches ``table[thread.pc](thread)``.

Only the hot, simple opcodes get closures (ALU, moves, loads/stores,
stack ops, jumps and branches, NOP/ASSERT).  Everything that touches
scheduler state, the heap, I/O or the call stack is interpreted by
``Machine._execute`` — the table entry for those pcs is that bound
method itself, so the fallback costs nothing extra.

Contract: a compiled step performs its state transitions in a fixed
order — intervention transforms, occurrence counting, cycle accrual,
telemetry op counts — and publishes exactly the ``InstrEvent`` tuples
hooks observe.  Subscribing hooks never changes the machine state a
run ends in (``tests/test_fastpath_differential.py`` checks hooked
runs against plain ones).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..isa.instructions import SP, Instruction, Opcode
from .errors import ProgramFailure
from .events import InstrEvent

if TYPE_CHECKING:
    from .machine import Machine

StepFn = Callable[..., bool]


def _alu_fns(pc: int):
    """Per-pc binary ALU semantics (pc is bound into failure messages)."""

    def div(a: int, b: int) -> int:
        if b == 0:
            raise ProgramFailure("div_zero", f"at pc={pc}")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    def mod(a: int, b: int) -> int:
        if b == 0:
            raise ProgramFailure("div_zero", f"mod at pc={pc}")
        q = abs(a) // abs(b)
        q = q if (a >= 0) == (b >= 0) else -q
        return a - q * b

    def shl(a: int, b: int) -> int:
        if not 0 <= b <= 64:
            raise ProgramFailure("bad_shift", f"shift by {b}")
        return a << b

    def shr(a: int, b: int) -> int:
        if not 0 <= b <= 64:
            raise ProgramFailure("bad_shift", f"shift by {b}")
        return a >> b

    return {
        Opcode.ADD: lambda a, b: a + b,
        Opcode.SUB: lambda a, b: a - b,
        Opcode.MUL: lambda a, b: a * b,
        Opcode.DIV: div,
        Opcode.MOD: mod,
        Opcode.AND: lambda a, b: a & b,
        Opcode.OR: lambda a, b: a | b,
        Opcode.XOR: lambda a, b: a ^ b,
        Opcode.SHL: shl,
        Opcode.SHR: shr,
        Opcode.SEQ: lambda a, b: 1 if a == b else 0,
        Opcode.SNE: lambda a, b: 1 if a != b else 0,
        Opcode.SLT: lambda a, b: 1 if a < b else 0,
        Opcode.SLE: lambda a, b: 1 if a <= b else 0,
        Opcode.SGT: lambda a, b: 1 if a > b else 0,
        Opcode.SGE: lambda a, b: 1 if a >= b else 0,
    }


def _unary_fns():
    return {
        Opcode.NOT: lambda a: 1 if a == 0 else 0,
        Opcode.NEG: lambda a: -a,
        Opcode.MOV: lambda a: a,
    }


def compile_program(m: "Machine") -> list[StepFn]:
    """One step closure per static instruction; complex opcodes
    dispatch to the bound ``m._execute``."""
    return [_compile_instr(m, pc, instr) for pc, instr in enumerate(m.program.code)]


def _compile_instr(m: "Machine", pc: int, instr: Instruction) -> StepFn:
    op = instr.opcode
    ops = instr.operands
    opi = int(op)
    cost = m._cost_table[opi]
    cycles = m.cycles  # mutated in place, never reassigned
    hooks = m.hooks.hooks  # the live subscriber list (same object forever)
    tel = m._tel
    op_counts = m._op_counts if tel else None
    next_pc = pc + 1

    # --- three-register ALU --------------------------------------------
    if op <= Opcode.SGE:
        fn = _alu_fns(pc)[op]
        d, s1, s2 = ops

        def step_alu(thread, _fn=fn):
            regs = thread.regs
            a = regs[s1]
            b = regs[s2]
            r = _fn(a, b)
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(m.seq, thread.tid, pc, instr, ((s1, a), (s2, b)), ((d, r),))
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_alu

    # --- reg/imm ALU and moves ------------------------------------------
    if op in (Opcode.ADDI, Opcode.MULI):
        d, s, imm = ops
        add = op is Opcode.ADDI

        def step_ri(thread):
            regs = thread.regs
            a = regs[s]
            r = a + imm if add else a * imm
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(m.seq, thread.tid, pc, instr, ((s, a),), ((d, r),))
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_ri

    if op in (Opcode.NOT, Opcode.NEG, Opcode.MOV):
        fn = _unary_fns()[op]
        d, s = ops

        def step_un(thread, _fn=fn):
            regs = thread.regs
            a = regs[s]
            r = _fn(a)
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(m.seq, thread.tid, pc, instr, ((s, a),), ((d, r),))
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_un

    if op is Opcode.LI:
        d, imm = ops

        def step_li(thread):
            r = imm
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            thread.regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(m.seq, thread.tid, pc, instr, (), ((d, r),))
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_li

    # --- memory -----------------------------------------------------------
    if op is Opcode.LOAD:
        d, s, off = ops

        def step_load(thread):
            regs = thread.regs
            base = regs[s]
            addr = base + off
            value = m.memory.load(addr)
            r = value
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(
                    m.seq, thread.tid, pc, instr,
                    ((s, base),), ((d, r),), ((addr, value),), (),
                )
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_load

    if op is Opcode.STORE:
        src, base_reg, off = ops

        def step_store(thread):
            regs = thread.regs
            value = regs[src]
            base = regs[base_reg]
            addr = base + off
            m.memory.store(addr, value)
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(
                    m.seq, thread.tid, pc, instr,
                    ((src, value), (base_reg, base)), (), (), ((addr, value),),
                )
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_store

    if op is Opcode.PUSH:
        (src,) = ops

        def step_push(thread):
            regs = thread.regs
            value = regs[src]
            sp = regs[SP] - 1
            regs[SP] = sp
            m.memory.store(sp, value)
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(
                    m.seq, thread.tid, pc, instr,
                    ((src, value), (SP, sp + 1)), ((SP, sp),), (), ((sp, value),),
                )
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_push

    if op is Opcode.POP:
        (d,) = ops

        def step_pop(thread):
            regs = thread.regs
            sp = regs[SP]
            value = m.memory.load(sp)
            regs[SP] = sp + 1
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                value = iv.transform_def(instr, occ, value)
            regs[d] = value
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(
                    m.seq, thread.tid, pc, instr,
                    ((SP, sp),), ((d, value), (SP, sp + 1)), ((sp, value),), (),
                )
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_pop

    # --- control -----------------------------------------------------------
    if op is Opcode.JMP:
        target = ops[0]

        def step_jmp(thread):
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = target
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(m.seq, thread.tid, pc, instr)
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_jmp

    if op is Opcode.BR or op is Opcode.BRZ:
        src, target = ops
        on_nonzero = op is Opcode.BR

        def step_br(thread):
            cond = thread.regs[src]
            natural = (cond != 0) if on_nonzero else (cond == 0)
            taken = natural
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                taken = iv.branch_outcome(instr, occ, natural)
            thread.pc = target if taken else next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(
                    m.seq, thread.tid, pc, instr, ((src, cond),), (), (), (), taken
                )
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_br

    if op is Opcode.NOP:

        def step_nop(thread):
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(m.seq, thread.tid, pc, instr)
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_nop

    if op is Opcode.ASSERT:
        (src,) = ops

        def step_assert(thread):
            value = thread.regs[src]
            if value == 0:
                raise ProgramFailure("assert", f"assertion failed at pc={pc}")
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
                m._dispatch_hits += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if hooks:
                ev = InstrEvent(m.seq, thread.tid, pc, instr, ((src, value),))
                if tel:
                    m._events_published += 1
                for h in hooks:
                    h.on_instruction(ev)
            m.seq += 1
            return True

        return step_assert

    # Everything touching the heap, scheduler, call stack or I/O is
    # interpreted by Machine._execute.
    return m._execute
