"""ONTRAC: the online dependence tracer (§2.1).

Computes dynamic dependences *during* execution and stores them in a
fixed-size circular buffer, eliminating the offline post-processing
step of the earlier two-phase pipeline (see
:mod:`repro.ontrac.offline` for that baseline).

Optimizations, exactly the paper's list:

Generic
  1. **Intra-block static inference** — a register dependence whose
     producer executed in the same dynamic basic-block instance is
     fully determined by the static code; store nothing.
  2. **Trace (super-block) inference** — the same across basic blocks
     on frequently executed paths: once a block transition has run
     ``hot_trace_threshold`` times, the blocks fuse into one inference
     region (a one-time 16-byte trace registration is charged).
  3. **Redundant-load elision** — a load at the same pc from the same
     address with the same producing store repeats the previously
     stored dependence; skip it.

Targeted (debugging-specific)
  4. **Selective tracing** — only dependences of user-specified
     functions are stored, but dataflow through *unspecified* code is
     still summarized (each location remembers the set of traced
     ancestors feeding it) so dependence chains through traced code are
     never broken — the paper's point that naively uninstrumenting
     other functions is unsound.
  5. **Forward-slice-of-input filtering** — only dependences whose
     consumer is (transitively) input-derived are stored, because root
     causes usually sit in the forward slice of the inputs [1].

Overhead model: every observed instruction costs ``stub_cycles``
(DBT dispatch + inline stubs) plus ``cycles_per_byte`` for each stored
byte, charged to the machine's overhead counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.cfg import build_cfgs
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..vm.events import Hook, InstrEvent
from ..vm.machine import Machine
from .control_dep import ControlDependenceTracker
from .packed import PackedDDG, PackedTraceBuffer
from .records import KIND_CODES, TRACE_FORMATION_BYTES, DepKind

#: cap on how many traced ancestors an untraced-code summary carries.
SUMMARY_FANIN_CAP = 16


@dataclass
class OntracConfig:
    """Tracer configuration; see the module docstring for semantics."""

    buffer_bytes: int = 16 * 1024 * 1024
    naive: bool = False  # store per-instruction records, disable all opts
    infer_intra_block: bool = True
    infer_traces: bool = True
    hot_trace_threshold: int = 50
    elide_redundant_loads: bool = True
    selective_functions: frozenset[str] | None = None
    input_forward_slice: bool = False
    record_control: bool = True
    record_war_waw: bool = False
    charge_overhead: bool = True
    stub_cycles: int = 25
    cycles_per_byte: int = 3
    #: spill sink (trace lake): when set, sealed packed chunks are
    #: appended to this file as the run executes so the full stream
    #: survives the process (even a SIGKILLed one — the readable
    #: prefix recovers).  The hot emit path is unchanged (spilling
    #: happens only when a chunk seals).  Seal
    #: with :meth:`OnlineTracer.finish_spill` (the runner does this
    #: automatically after a traced run).
    spill_path: str | None = None

    @classmethod
    def unoptimized(cls, **overrides) -> "OntracConfig":
        """The paper's 16 B/instruction baseline."""
        cfg = cls(
            naive=True,
            infer_intra_block=False,
            infer_traces=False,
            elide_redundant_loads=False,
            input_forward_slice=False,
        )
        for key, value in overrides.items():
            setattr(cfg, key, value)
        return cfg

    @classmethod
    def generic_optimizations(cls, **overrides) -> "OntracConfig":
        cfg = cls()
        for key, value in overrides.items():
            setattr(cfg, key, value)
        return cfg


@dataclass
class OntracStats:
    instructions: int = 0
    stored: dict[str, int] = field(default_factory=dict)
    stored_bytes: int = 0
    skipped: dict[str, int] = field(default_factory=dict)
    hot_traces: int = 0

    def _bump(self, table: dict[str, int], key: str) -> None:
        table[key] = table.get(key, 0) + 1

    @property
    def bytes_per_instruction(self) -> float:
        return self.stored_bytes / self.instructions if self.instructions else 0.0


# A producer is either a concrete dynamic instruction
# ("n", seq, pc, block_instance, tid) or a summary of traced ancestors
# flowing through untraced code ("s", frozenset({(seq, pc), ...})).
_NODE = "n"
_SUMMARY = "s"


class OnlineTracer(Hook):
    """ONTRAC attached to one machine run."""

    def __init__(self, program: Program, config: OntracConfig | None = None):
        self.program = program
        self.config = config or OntracConfig()
        self.stats = OntracStats()
        self.machine: Machine | None = None
        if self.config.spill_path:
            # Local import: repro.lake sits above ontrac in the layering
            # and is only needed when spilling is on.
            from ..lake.format import SpillingPackedTraceBuffer

            self.buffer: PackedTraceBuffer = SpillingPackedTraceBuffer(
                self.config.buffer_bytes, self.config.spill_path
            )
        else:
            self.buffer = PackedTraceBuffer(self.config.buffer_bytes)
        # Static structure: block leaders per global pc.
        self._leaders: set[int] = set()
        for cfg in build_cfgs(program).values():
            for block in cfg.blocks:
                self._leaders.add(block.start)
        self._control = ControlDependenceTracker(program) if self.config.record_control else None
        # Dynamic state.
        self._last_reg: dict[tuple[int, int], tuple] = {}
        self._last_mem: dict[int, tuple] = {}
        self._block_instance: dict[int, int] = {}
        self._next_instance = 0
        self._prev_call_ret: dict[int, bool] = {}
        self._prev_leader: dict[int, int] = {}
        self._transition_counts: dict[tuple[int, int], int] = {}
        self._hot_transitions: set[tuple[int, int]] = set()
        self._redundant_load: dict[int, tuple[int, int]] = {}
        self._derived_reg: set[tuple[int, int]] = set()
        self._derived_mem: set[int] = set()
        self._last_readers: dict[int, list[tuple[int, int, int]]] = {}
        self._install_hook()

    # -- lifecycle -----------------------------------------------------------
    def attach(self, machine: Machine) -> "OnlineTracer":
        self.machine = machine
        machine.hooks.subscribe(self)
        return self

    def finish_spill(self) -> str | None:
        """Seal the spill file (tail chunk + footer index) if this
        tracer is spilling; no-op otherwise.  Idempotent; returns the
        spill path when spilling."""
        close = getattr(self.buffer, "close", None)
        if close is not None and getattr(self.buffer, "spill_path", None):
            return close()
        return None

    def dependence_graph(self) -> PackedDDG:
        """DDG over the records currently in the buffer: an O(1)
        :class:`PackedDDG` view whose queries run straight off the
        columns (and which materializes the dict-based graph lazily)."""
        return PackedDDG(self.buffer)

    def _install_hook(self) -> None:
        """Compile this tracer's ``on_instruction``.

        The closure captures the config flags, the dependence maps and
        the buffer's ``append_row`` as locals, so the per-instruction
        path pays no attribute chasing.  Installed as an instance
        attribute so the hook bus dispatches straight to it; config
        flags are frozen at construction.
        """
        cfg = self.config
        naive = cfg.naive
        infer_intra_block = cfg.infer_intra_block
        infer_traces = cfg.infer_traces
        elide_redundant_loads = cfg.elide_redundant_loads
        input_forward_slice = cfg.input_forward_slice
        record_war_waw = cfg.record_war_waw
        sel = cfg.selective_functions
        charge_overhead = cfg.charge_overhead
        stub_cycles = cfg.stub_cycles
        cycles_per_byte = cfg.cycles_per_byte
        control = self._control
        observe = control.observe if control is not None else None
        stats = self.stats
        stored = stats.stored
        skipped = stats.skipped
        buffer = self.buffer
        maintain = self._maintain_blocks
        block_instance = self._block_instance
        last_reg = self._last_reg
        last_mem = self._last_mem
        last_readers = self._last_readers
        redundant_load = self._redundant_load
        derived_reg = self._derived_reg
        derived_mem = self._derived_mem
        hot_transitions = self._hot_transitions
        IN, LOAD, POP = Opcode.IN, Opcode.LOAD, Opcode.POP
        BR, BRZ, SPAWN = Opcode.BR, Opcode.BRZ, Opcode.SPAWN
        K_INSTR, K_REG, K_IREG = DepKind.INSTR, DepKind.REG, DepKind.IREG
        K_MEM, K_IMEM, K_SUMMARY = DepKind.MEM, DepKind.IMEM, DepKind.SUMMARY
        K_CONTROL, K_BRANCH = DepKind.CONTROL, DepKind.BRANCH
        K_WAR, K_WAW = DepKind.WAR, DepKind.WAW

        append_row = buffer.append_row
        kind_codes = KIND_CODES

        def emit(kind, consumer_seq, consumer_pc, producer_seq, producer_pc, tid):
            # The packed buffer fuses the append with every byte / peak /
            # eviction counter (see append_row); only the tracer-level
            # per-kind accounting lives here.
            b = append_row(
                kind_codes[kind], consumer_seq, consumer_pc, producer_seq, producer_pc, tid
            )
            kv = kind.value
            stored[kv] = stored.get(kv, 0) + 1
            if b:
                stats.stored_bytes += b
            return b

        def fast_on_instruction(ev):
            stats.instructions += 1
            tid = ev.tid
            seq = ev.seq
            pc = ev.pc
            instr = ev.instr
            op = instr.opcode

            bytes_stored = maintain(ev)
            instance = block_instance.get(tid, 0)

            parent = observe(ev) if observe is not None else None
            traced = sel is None or instr.function in sel

            if input_forward_slice:
                derived = op is IN
                if not derived:
                    for reg, _ in ev.reg_reads:
                        if (tid, reg) in derived_reg:
                            derived = True
                            break
                if not derived:
                    for addr, _ in ev.mem_reads:
                        if addr in derived_mem:
                            derived = True
                            break
            else:
                derived = True

            store_deps = traced and derived
            if traced and not derived:
                skipped["input_filter"] = skipped.get("input_filter", 0) + 1

            if naive and traced:
                bytes_stored += emit(K_INSTR, seq, pc, -1, -1, tid)

            reg_reads = ev.reg_reads
            if reg_reads:
                seen_regs = set()
                for reg, _ in reg_reads:
                    if reg in seen_regs:
                        continue
                    seen_regs.add(reg)
                    producer = last_reg.get((tid, reg))
                    if producer is None:
                        continue
                    if not store_deps:
                        continue
                    if producer[0] == _SUMMARY:
                        for pseq, ppc in producer[1]:
                            bytes_stored += emit(K_SUMMARY, seq, pc, pseq, ppc, tid)
                        continue
                    _, pseq, ppc, pinstance, ptid = producer
                    if (
                        not naive
                        and infer_intra_block
                        and ptid == tid
                        and pinstance == instance
                    ):
                        key = (
                            "static_block"
                            if not (infer_traces and hot_transitions)
                            else "static_trace"
                        )
                        skipped[key] = skipped.get(key, 0) + 1
                        # The edge is recoverable from the binary at query
                        # time: keep it in the buffer at zero modeled cost.
                        bytes_stored += emit(K_IREG, seq, pc, pseq, ppc, tid)
                        continue
                    bytes_stored += emit(K_REG, seq, pc, pseq, ppc, tid)

            mem_reads = ev.mem_reads
            if mem_reads:
                for addr, _ in mem_reads:
                    producer = last_mem.get(addr)
                    if record_war_waw:
                        readers = last_readers.setdefault(addr, [])
                        if len(readers) < 8:
                            readers.append((seq, pc, tid))
                    if producer is None or not store_deps:
                        continue
                    if producer[0] == _SUMMARY:
                        for pseq, ppc in producer[1]:
                            bytes_stored += emit(K_SUMMARY, seq, pc, pseq, ppc, tid)
                        continue
                    _, pseq, ppc, _, ptid = producer
                    if not naive and elide_redundant_loads and (op is LOAD or op is POP):
                        cached = redundant_load.get(pc)
                        if cached == (addr, pseq):
                            skipped["redundant_load"] = skipped.get("redundant_load", 0) + 1
                            # Recoverable from the previously stored identical
                            # dependence: keep the edge at zero modeled cost.
                            bytes_stored += emit(K_IMEM, seq, pc, pseq, ppc, tid)
                            continue
                        redundant_load[pc] = (addr, pseq)
                    bytes_stored += emit(K_MEM, seq, pc, pseq, ppc, tid)

            if parent is not None and store_deps:
                bytes_stored += emit(
                    K_CONTROL, seq, pc, parent.branch_seq, parent.branch_pc, tid
                )
            if (op is BR or op is BRZ) and observe is not None and traced:
                bytes_stored += emit(K_BRANCH, seq, pc, -1, -1, tid)

            if record_war_waw and ev.mem_writes:
                for addr, _ in ev.mem_writes:
                    prev_writer = last_mem.get(addr)
                    if prev_writer is not None and prev_writer[0] == _NODE:
                        _, pseq, ppc, _, ptid = prev_writer
                        if ptid != tid:
                            bytes_stored += emit(K_WAW, seq, pc, pseq, ppc, tid)
                    for rseq, rpc, rtid in last_readers.pop(addr, []):
                        if rtid != tid:
                            bytes_stored += emit(K_WAR, seq, pc, rseq, rpc, tid)

            if traced:
                entry = (_NODE, seq, pc, instance, tid)
            else:
                # Summarize through untraced code: inherit the traced
                # ancestors of every input so chains are not broken.
                ancestors = set()
                for reg, _ in ev.reg_reads:
                    producer = last_reg.get((tid, reg))
                    if producer is None:
                        continue
                    if producer[0] == _NODE:
                        ancestors.add((producer[1], producer[2]))
                    else:
                        ancestors.update(producer[1])
                for addr, _ in ev.mem_reads:
                    producer = last_mem.get(addr)
                    if producer is None:
                        continue
                    if producer[0] == _NODE:
                        ancestors.add((producer[1], producer[2]))
                    else:
                        ancestors.update(producer[1])
                if len(ancestors) > SUMMARY_FANIN_CAP:
                    ancestors = set(sorted(ancestors)[-SUMMARY_FANIN_CAP:])
                entry = (_SUMMARY, frozenset(ancestors))

            for reg, _ in ev.reg_writes:
                last_reg[(tid, reg)] = entry
                if input_forward_slice:
                    if derived:
                        derived_reg.add((tid, reg))
                    else:
                        derived_reg.discard((tid, reg))
            for addr, _ in ev.mem_writes:
                last_mem[addr] = entry
                if input_forward_slice:
                    if derived:
                        derived_mem.add(addr)
                    else:
                        derived_mem.discard(addr)

            if op is SPAWN:
                # The child's r0 is defined by the spawn's argument flow.
                child = ev.reg_writes[0][1]
                last_reg[(child, 0)] = entry
                if input_forward_slice and derived:
                    derived_reg.add((child, 0))

            if charge_overhead:
                machine = self.machine
                if machine is not None:
                    machine.add_overhead(stub_cycles + bytes_stored * cycles_per_byte)

        self.on_instruction = fast_on_instruction

    def _bump_instance(self, tid: int) -> None:
        self._next_instance += 1
        self._block_instance[tid] = self._next_instance

    def _maintain_blocks(self, ev: InstrEvent) -> int:
        """Track dynamic basic-block (or hot-trace) instances; returns the
        extra bytes charged for newly formed traces."""
        tid = ev.tid
        extra = 0
        if self._prev_call_ret.get(tid, True):
            # Entering code after call/ret (or thread start): always a new
            # inference region — the callee may have clobbered registers.
            self._bump_instance(tid)
            if ev.pc in self._leaders:
                self._prev_leader[tid] = ev.pc
        elif ev.pc in self._leaders:
            fused = False
            if self.config.infer_traces:
                prev = self._prev_leader.get(tid, -1)
                if prev >= 0:
                    key = (prev, ev.pc)
                    count = self._transition_counts.get(key, 0) + 1
                    self._transition_counts[key] = count
                    if key in self._hot_transitions:
                        fused = True
                    elif count >= self.config.hot_trace_threshold:
                        self._hot_transitions.add(key)
                        self.stats.hot_traces += 1
                        extra = TRACE_FORMATION_BYTES
                        self.stats.stored_bytes += extra
                        fused = True
            if not fused:
                self._bump_instance(tid)
            self._prev_leader[tid] = ev.pc
        op = ev.instr.opcode
        self._prev_call_ret[tid] = (
            op is Opcode.CALL or op is Opcode.ICALL or op is Opcode.RET
        )
        return extra

    def publish_telemetry(self, registry) -> None:
        """Dump tracer stats (the paper's B/instr figures) into a
        :class:`~repro.telemetry.MetricsRegistry`; call after the run."""
        stats = self.stats
        registry.counter("ontrac.instructions").inc(stats.instructions)
        registry.counter("ontrac.stored_bytes").inc(stats.stored_bytes)
        registry.counter("ontrac.hot_traces").inc(stats.hot_traces)
        for kind, count in sorted(stats.stored.items()):
            registry.counter(f"ontrac.records.stored.{kind}").inc(count)
        for reason, count in sorted(stats.skipped.items()):
            registry.counter(f"ontrac.records.elided.{reason}").inc(count)
        registry.gauge("ontrac.bytes_per_instruction").set(stats.bytes_per_instruction)
        buf = self.buffer
        registry.gauge("ontrac.buffer.capacity_bytes").set(buf.capacity_bytes)
        registry.gauge("ontrac.buffer.peak_bytes").set_max(buf.stats.peak_bytes)
        registry.gauge("ontrac.buffer.window_instructions").set(buf.window_instructions())
        registry.counter("ontrac.buffer.evicted_records").inc(buf.stats.evicted)
        # Deterministic column-payload figure (allocated chunk bytes),
        # NOT process residency — tracemalloc-measured residency lives
        # in benchmarks/bench_slicing.py where determinism is not
        # required for golden comparisons.
        registry.gauge("ontrac.store.resident_bytes").set(buf.resident_bytes())
        registry.gauge("ontrac.store.chunks").set(buf.chunk_count)
