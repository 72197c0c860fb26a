"""The mini-ISA interpreter (the "processor" under the DBT layer).

Design constraints, in priority order:

1. **Determinism** — two runs with equal programs, inputs and scheduler
   state are bit-identical, including lock-grant order.  Every replay,
   slicing and fault-avoidance technique in this repo leans on that.
2. **Observability** — with hooks subscribed, every executed instruction
   publishes an :class:`repro.vm.events.InstrEvent` with resolved
   register/memory reads and writes.  With no hooks, no event objects
   are built (the "native run" baseline).
3. **Interventions** — predicate switching and value replacement
   (§3.1) perturb execution through a :class:`Intervention` object that
   can flip branch outcomes and rewrite defined values at chosen dynamic
   occurrences, without the tools touching interpreter internals.

Cycle accounting: guest instructions accrue ``cycles.base`` via the
cost model; tools add ``cycles.overhead`` through :meth:`Machine.add_overhead`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from ..telemetry import NULL_TELEMETRY, Telemetry
from .cost import OPCODE_CLASSES, CostModel, CycleCounters
from .dispatch import compile_program
from .errors import FailureInfo, ProgramFailure, VMError
from .events import HookBus, InstrEvent
from .io import IOSystem
from .memory import Memory
from .scheduler import RoundRobinScheduler, Scheduler
from .sync import Barrier, Mutex
from .threads import Frame, ThreadContext, ThreadStatus


class RunStatus(enum.Enum):
    HALTED = "halted"  # guest executed HALT
    EXITED = "exited"  # every thread returned from its entry function
    FAILED = "failed"  # ProgramFailure (assert, div-zero, attack, ...)
    LIMIT = "limit"  # instruction budget exhausted
    DEADLOCK = "deadlock"  # all live threads blocked


class Intervention:
    """Execution-perturbation interface (predicate switching / value
    replacement).  The default implementation perturbs nothing."""

    def branch_outcome(self, instr: Instruction, occurrence: int, default: bool) -> bool:
        """Return the outcome the branch should take (default = natural)."""
        return default

    def transform_def(self, instr: Instruction, occurrence: int, value: int) -> int:
        """Rewrite the value about to be written to the destination register."""
        return value


@dataclass
class RunResult:
    status: RunStatus
    instructions: int
    cycles: CycleCounters
    failure: FailureInfo | None = None
    #: executed schedule as (tid, instruction count) segments.
    schedule: list[tuple[int, int]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status is RunStatus.FAILED


class Machine:
    """One guest machine: program + memory + threads + I/O + hooks."""

    def __init__(
        self,
        program: Program,
        scheduler: Scheduler | None = None,
        cost_model: CostModel | None = None,
        args: tuple[int, ...] = (),
        telemetry: Telemetry | None = None,
    ):
        program.validate()
        self.program = program
        self.scheduler = scheduler or RoundRobinScheduler()
        self.cost_model = cost_model or CostModel()
        self._cost_table = self.cost_model.table()
        self.telemetry = telemetry or NULL_TELEMETRY
        # One bool, checked like `hooks.active`: the no-op path costs a
        # single attribute load and never touches the cycle model.
        self._tel = self.telemetry.enabled
        if self._tel:
            self.telemetry.tracer.bind_clock(lambda: self.cycles.total)
            self._op_counts = [0] * len(self._cost_table)
            self._events_published = 0
            self._blocked_attempts = 0
            self._dispatch_hits = 0
        self.memory = Memory()
        self.io = IOSystem()
        self.hooks = HookBus()
        self.intervention: Intervention | None = None
        self.cycles = CycleCounters()
        self.seq = 0  # dynamic instruction counter (monotone, global)
        self.halted = False
        self.failure: FailureInfo | None = None
        self.schedule_trace: list[tuple[int, int]] = []
        self.mutexes: dict[int, Mutex] = {}
        self.barriers: dict[int, Barrier] = {}
        self._joiners: dict[int, list[int]] = {}  # target tid -> waiting tids
        self._occurrences: dict[int, int] = {}  # instr index -> executions
        entry = program.entry_function
        self.threads: list[ThreadContext] = [ThreadContext.create(0, entry.entry, tuple(args))]
        # One precompiled step closure per static instruction (see
        # repro.vm.dispatch); opcodes without a closure dispatch to
        # the bound _execute.
        self._dispatch = compile_program(self)

    # -- tool API -------------------------------------------------------
    def add_overhead(self, cycles: int) -> None:
        """Charge tool overhead cycles (instrumentation, tracing, logging)."""
        self.cycles.overhead += cycles

    def mutex(self, lock_id: int) -> Mutex:
        m = self.mutexes.get(lock_id)
        if m is None:
            m = self.mutexes[lock_id] = Mutex(lock_id)
        return m

    def occurrence_of(self, instr_index: int) -> int:
        """How many times instruction ``instr_index`` has executed."""
        return self._occurrences.get(instr_index, 0)

    # -- execution -------------------------------------------------------
    def run(self, max_instructions: int = 10_000_000) -> RunResult:
        """Run until halt/exit/failure/deadlock or the instruction budget."""
        pick = self.scheduler.pick
        threads = self.threads
        status: RunStatus | None = None
        current: int | None = None
        tel = self._tel
        tracer = self.telemetry.tracer
        run_span = tracer.span("vm.run", cat="vm") if tel else None
        while status is None:
            if self.halted:
                status = RunStatus.HALTED
                break
            runnable = [t.tid for t in threads if t.status is ThreadStatus.READY]
            if not runnable:
                if all(t.done for t in threads):
                    status = RunStatus.EXITED
                else:
                    status = RunStatus.DEADLOCK
                break
            tid, quantum = pick(runnable, current)
            current = tid
            thread = threads[tid]
            executed = 0
            seg_start_seq = self.seq
            seg_span = tracer.span(f"t{tid} segment", cat="schedule", tid=tid) if tel else None
            while executed < quantum:
                if not thread.runnable or self.halted:
                    break
                if not self._step(thread):
                    if tel:
                        self._blocked_attempts += 1
                    break  # blocked without progress
                executed += 1
                if self.failure is not None:
                    break
                if self.seq >= max_instructions:
                    break
            if seg_span is not None:
                seg_span.end(instructions=executed)
            if executed:
                self.schedule_trace.append((tid, executed))
                self.hooks.schedule(tid, seg_start_seq)
            if self.failure is not None:
                status = RunStatus.FAILED
            elif self.seq >= max_instructions and not self.halted:
                status = RunStatus.LIMIT
        # Let batching hooks flush before the counters are snapshotted.
        if self.hooks.active:
            self.hooks.run_end()
        result = RunResult(
            status=status,
            instructions=self.seq,
            cycles=self.cycles,
            failure=self.failure,
            schedule=list(self.schedule_trace),
        )
        if tel:
            if run_span is not None:
                run_span.end(instructions=self.seq, status=status.value)
            self._publish_telemetry(result)
        return result

    def _fail(self, thread: ThreadContext, exc: ProgramFailure) -> None:
        info = FailureInfo(
            kind=exc.kind, tid=thread.tid, pc=thread.pc, seq=self.seq, message=exc.message
        )
        self.failure = info
        if self._tel:
            self.telemetry.tracer.instant(
                f"failure: {info.kind}", cat="vm", tid=thread.tid, pc=info.pc, seq=info.seq
            )
        self.hooks.failure(info)

    def _step(self, thread: ThreadContext) -> bool:
        """Execute one instruction of ``thread``.

        Returns False when the thread blocked without completing the
        instruction (LOCK on a held mutex, JOIN on a live thread,
        BARWAIT before the barrier trips) — such attempts consume no
        sequence number and emit no event, so recorded schedules count
        only completed instructions.
        """
        try:
            return self._dispatch[thread.pc](thread)
        except ProgramFailure as exc:
            self._fail(thread, exc)
            return True

    def _execute(self, thread: ThreadContext) -> bool:
        pc = thread.pc
        instr = self.program.code[pc]
        op = instr.opcode
        ops = instr.operands
        regs = thread.regs
        trace = self.hooks.active
        intervention = self.intervention

        reg_reads: tuple = ()
        reg_writes: tuple = ()
        callee: int | None = None
        alloc: tuple | None = None
        channel: int | None = None
        io_value: int | None = None
        input_index = -1
        next_pc = pc + 1

        if intervention is not None:
            occurrence = self._occurrences.get(pc, 0)
        else:
            occurrence = 0

        def write_reg(reg: int, value: int) -> int:
            nonlocal reg_writes
            if intervention is not None:
                value = intervention.transform_def(instr, occurrence, value)
            regs[reg] = value
            if trace:
                reg_writes = ((reg, value),)
            return value

        # The hot opcodes (ALU, moves, loads/stores, push/pop, jumps,
        # branches, NOP, ASSERT) run as precompiled closures; only the
        # heap, call-stack, I/O, thread and sync opcodes (plus HALT and
        # FAIL) reach here, and none of them touches memory cells or
        # takes a branch, so their events carry no mem/branch fields.

        # --- heap --------------------------------------------------------
        if op is Opcode.ALLOC:
            size = regs[ops[1]]
            base = self.memory.alloc(size)
            if trace:
                reg_reads = ((ops[1], size),)
            write_reg(ops[0], base)
            alloc = (base, size)
            self.hooks.alloc(thread.tid, base, size, self.seq)
        elif op is Opcode.FREE:
            base = regs[ops[0]]
            if trace:
                reg_reads = ((ops[0], base),)
            self.memory.free(base)
            self.hooks.free(thread.tid, base, self.seq)

        # --- control ------------------------------------------------------
        elif op is Opcode.CALL:
            fn = self.program.function_by_id(ops[0])
            assert fn is not None  # validated at link time
            thread.frames.append(Frame(pc + 1, fn.name))
            next_pc = fn.entry
            callee = ops[0]
        elif op is Opcode.ICALL:
            fid = regs[ops[0]]
            if trace:
                reg_reads = ((ops[0], fid),)
            fn = self.program.function_by_id(fid)
            if fn is None:
                # Emit the event first so DIFT policies can attribute the
                # wild target before the machine reports the crash.
                if trace:
                    self._emit(thread, pc, instr, reg_reads, (), None, None, None, None, -1)
                raise ProgramFailure("bad_icall", f"indirect call to invalid target {fid}")
            thread.frames.append(Frame(pc + 1, fn.name))
            next_pc = fn.entry
            callee = fid
        elif op is Opcode.RET:
            if thread.frames:
                next_pc = thread.frames.pop().return_pc
            else:
                thread.status = ThreadStatus.DONE
                thread.result = regs[0]
                self._wake_joiners(thread.tid)
                self.hooks.thread_exit(thread.tid, thread.result)
                next_pc = pc  # unused; thread is done
        elif op is Opcode.HALT:
            self.halted = True

        # --- I/O --------------------------------------------------------
        elif op is Opcode.IN:
            value, input_index = self.io.read(ops[1], self.seq)
            channel = ops[1]
            io_value = value
            write_reg(ops[0], value)
            self.hooks.input(thread.tid, channel, value, input_index, self.seq)
        elif op is Opcode.OUT:
            value = regs[ops[0]]
            channel = ops[1]
            io_value = value
            self.io.write(channel, value)
            if trace:
                reg_reads = ((ops[0], value),)
            self.hooks.output(thread.tid, channel, value, self.seq)

        # --- threads & sync ------------------------------------------------
        elif op is Opcode.SPAWN:
            arg = regs[ops[2]]
            fn = self.program.function_by_id(ops[1])
            assert fn is not None
            tid = len(self.threads)
            child = ThreadContext.create(tid, fn.entry, (arg,))
            self.threads.append(child)
            if trace:
                reg_reads = ((ops[2], arg),)
            write_reg(ops[0], tid)
            callee = ops[1]
            self.hooks.thread_start(tid, ops[1], arg, thread.tid)
        elif op is Opcode.JOIN:
            target = regs[ops[0]]
            if not 0 <= target < len(self.threads):
                raise ProgramFailure("bad_join", f"join of unknown thread {target}")
            if not self.threads[target].done:
                thread.block(f"join {target}")
                self._joiners.setdefault(target, []).append(thread.tid)
                return False
            if trace:
                reg_reads = ((ops[0], target),)
            self.hooks.join(thread.tid, target, self.seq)
        elif op is Opcode.LOCK:
            lock_id = regs[ops[0]]
            m = self.mutex(lock_id)
            if not m.try_acquire(thread.tid):
                thread.block(f"lock {lock_id}")
                return False
            if trace:
                reg_reads = ((ops[0], lock_id),)
            self.hooks.lock(thread.tid, lock_id, self.seq)
        elif op is Opcode.UNLOCK:
            lock_id = regs[ops[0]]
            m = self.mutex(lock_id)
            woken = m.release(thread.tid)
            if woken is not None:
                self.threads[woken].wake()
            if trace:
                reg_reads = ((ops[0], lock_id),)
            self.hooks.unlock(thread.tid, lock_id, self.seq)
        elif op is Opcode.BARINIT:
            bar_id, parties = regs[ops[0]], regs[ops[1]]
            if parties < 1:
                raise ProgramFailure("bad_barrier", f"barrier with {parties} parties")
            self.barriers[bar_id] = Barrier(bar_id, parties)
            if trace:
                reg_reads = ((ops[0], bar_id), (ops[1], parties))
        elif op is Opcode.BARWAIT:
            bar_id = regs[ops[0]]
            bar = self.barriers.get(bar_id)
            if bar is None:
                raise ProgramFailure("bad_barrier", f"wait on uninitialized barrier {bar_id}")
            if thread.tid in bar.released:
                bar.released.discard(thread.tid)
            else:
                release = bar.arrive(thread.tid)
                if release is None:
                    thread.block(f"barrier {bar_id}")
                    return False
                bar.released.discard(thread.tid)
                for other in release:
                    if other != thread.tid:
                        self.threads[other].wake()
            if trace:
                reg_reads = ((ops[0], bar_id),)
            self.hooks.barrier(thread.tid, bar_id, self.seq)

        # --- diagnostics ---------------------------------------------------
        elif op is Opcode.FAIL:
            raise ProgramFailure("fail", f"explicit failure code {ops[0]}")
        else:  # pragma: no cover - exhaustive with repro.vm.dispatch
            raise VMError(f"unhandled opcode {op!r}")

        # --- bookkeeping ---------------------------------------------------
        if not (op is Opcode.RET and thread.status is ThreadStatus.DONE):
            thread.pc = next_pc
        thread.instructions += 1
        self.cycles.base += self._cost_table[op]
        if self._tel:
            self._op_counts[op] += 1
        if intervention is not None:
            self._occurrences[pc] = occurrence + 1
        if trace:
            self._emit(
                thread,
                pc,
                instr,
                reg_reads,
                reg_writes,
                callee,
                alloc,
                channel,
                io_value,
                input_index,
            )
        self.seq += 1
        return True

    def _emit(
        self,
        thread: ThreadContext,
        pc: int,
        instr: Instruction,
        reg_reads,
        reg_writes,
        callee,
        alloc,
        channel,
        io_value,
        input_index,
    ) -> None:
        ev = InstrEvent(
            seq=self.seq,
            tid=thread.tid,
            pc=pc,
            instr=instr,
            reg_reads=reg_reads,
            reg_writes=reg_writes,
            callee=callee,
            alloc=alloc,
            channel=channel,
            io_value=io_value,
            input_index=input_index,
        )
        if self._tel:
            self._events_published += 1
        self.hooks.instruction(ev)

    def _publish_telemetry(self, result: RunResult) -> None:
        """Dump this run's VM metrics into the telemetry registry."""
        reg = self.telemetry.registry
        reg.counter("vm.instructions").inc(self.seq)
        class_totals: dict[str, int] = {}
        for op in Opcode:
            count = self._op_counts[int(op)]
            if count:
                cls = OPCODE_CLASSES[op]
                class_totals[cls] = class_totals.get(cls, 0) + count
        for cls, count in sorted(class_totals.items()):
            reg.counter(f"vm.instructions.{cls}").inc(count)
        reg.counter("vm.events.published").inc(self._events_published)
        reg.counter("fastpath.dispatch_hits").inc(self._dispatch_hits)
        reg.counter("vm.scheduler.segments").inc(len(self.schedule_trace))
        reg.counter("vm.scheduler.blocked_attempts").inc(self._blocked_attempts)
        reg.gauge("vm.threads.total").set(len(self.threads))
        reg.gauge("vm.cycles.base").set(self.cycles.base)
        reg.gauge("vm.cycles.overhead").set(self.cycles.overhead)
        reg.gauge("vm.cycles.total").set(self.cycles.total)
        hist = reg.histogram("vm.scheduler.segment_instructions")
        for _, executed in self.schedule_trace:
            hist.observe(executed)
        for t in self.threads:
            self.telemetry.tracer.name_thread(t.tid, f"guest thread {t.tid}")

    def _wake_joiners(self, tid: int) -> None:
        for waiter in self._joiners.pop(tid, []):
            self.threads[waiter].wake()
