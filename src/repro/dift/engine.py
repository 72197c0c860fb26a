"""The DIFT propagation engine.

Subscribes to the VM hook bus and maintains :class:`~repro.dift.shadow.ShadowState`
under a pluggable :class:`~repro.dift.policy.TaintPolicy`:

* ``in`` instructions *source* taint (configurable per channel),
* data flows propagate labels register<->register and through memory
  (loads/stores/push/pop), with spawn passing the argument's label into
  the child's r0 — the same interprocedural flows the guest's calling
  convention pushes through r0..r3 and the stack,
* *sinks* (indirect-call targets, selected output channels) are checked
  against the shadow; a tainted sink either records a
  :class:`TaintAlert` or raises :class:`repro.vm.AttackDetected`,
  stopping the guest the way a hardware DIFT trap would.

Address registers do **not** propagate into loaded/stored values by
default (classic data-flow DIFT); set ``propagate_addresses=True`` for
the strict variant — the E11 bench ablates both.

Cost model: each instrumented instruction charges ``check_cycles``
(the inline test-and-skip stub) plus ``policy.propagate_cycles`` when
any input is tainted.  The multicore simulator (§2.1) runs this same
engine on a helper core instead and charges those cycles there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import fastpath
from ..isa.instructions import Opcode
from ..vm.errors import AttackDetected
from ..vm.events import Hook, InstrEvent
from ..vm.machine import Machine
from .policy import BoolTaintPolicy, PCTaintPolicy, TaintPolicy
from .shadow import ShadowState


@dataclass(frozen=True)
class TaintAlert:
    """A tainted value reached a sink."""

    seq: int
    tid: int
    pc: int  # the sink instruction
    sink: str  # "icall" | "out"
    label: object
    description: str
    #: the value that reached the sink (out value / icall target).
    value: int = 0
    #: output channel for "out" sinks (-1 otherwise).
    channel: int = -1

    def __str__(self) -> str:
        return f"[seq {self.seq}] tainted {self.sink} at pc={self.pc}: {self.description}"


@dataclass
class SinkRule:
    """What counts as a sink and what to do when taint reaches it."""

    kind: str  # "icall" | "out"
    channels: frozenset[int] | None = None  # for "out": which channels (None = all)
    action: str = "raise"  # "raise" -> AttackDetected, "record" -> alert list

    def matches(self, ev: InstrEvent) -> bool:
        if self.kind == "icall":
            return ev.instr.opcode is Opcode.ICALL
        if self.kind == "out":
            return ev.instr.opcode is Opcode.OUT and (
                self.channels is None or ev.channel in self.channels
            )
        return False


@dataclass
class DIFTStats:
    instructions: int = 0
    tainted_instructions: int = 0
    sources: int = 0
    sink_checks: int = 0

    @property
    def taint_rate(self) -> float:
        return self.tainted_instructions / self.instructions if self.instructions else 0.0


class DIFTEngine(Hook):
    """Inline DIFT: propagation runs on the application core.

    Attach with :meth:`attach`; the engine charges its overhead to the
    machine's cycle counters unless ``charge_overhead=False`` (the
    multicore simulator disables inline charging and accounts the same
    work on the helper core instead).

    Propagation itself runs through a pluggable kernel
    (:mod:`repro.dift.kernel`): ``kernel="reference"`` keeps the
    per-event path below; ``kernel="array"`` (the default when numpy is
    importable, ``REPRO_FASTPATH_KERNEL`` overrides) packs instruction
    events into micro-batches of ring-format records and propagates
    them vectorized, with observables proven bit-identical by the
    differential suite.
    """

    #: cycles for the per-instruction "any operand tainted?" stub.
    check_cycles = 1

    def __init__(
        self,
        policy: TaintPolicy,
        source_channels: frozenset[int] | None = None,
        sinks: list[SinkRule] | None = None,
        propagate_addresses: bool = False,
        charge_overhead: bool = True,
        kernel: str | None = None,
        kernel_batch: int | None = None,
        summaries: bool | None = None,
        summary_cache=None,
    ):
        self.policy = policy
        wants_array = kernel == "array" or (
            kernel is None and fastpath.current().array_kernel
        )
        name = fastpath.propagation_kernel(kernel)
        self.kernel_fallback: str | None = None
        if name == "array" and type(policy) not in (BoolTaintPolicy, PCTaintPolicy):
            # The array kernel encodes labels as int64 scalars; set-based
            # policies (lineage) stay on the reference kernel.
            fastpath.note_kernel_fallback("policy", explicit=kernel == "array")
            name = "reference"
            self.kernel_fallback = "policy"
        elif wants_array and name == "reference":
            self.kernel_fallback = "numpy"  # counted by propagation_kernel
        #: resolved propagation kernel for this engine ("array"|"reference").
        self.kernel_name = name
        self.kernel_batch = fastpath.kernel_batch_size(kernel_batch)
        # Function-summary DIFT engages only for the scalar-label
        # policies (same constraint as the array kernel, and the
        # output-transfer replay needs unaliased labels).
        self._summaries = fastpath.resolve(summaries, "summaries") and type(
            policy
        ) in (BoolTaintPolicy, PCTaintPolicy)
        self._summary_cache = summary_cache
        self._shadow = ShadowState(policy, array=name == "array")
        self.source_channels = source_channels
        self.sinks = sinks if sinks is not None else [SinkRule(kind="icall")]
        self.propagate_addresses = propagate_addresses
        self.charge_overhead = charge_overhead
        self._alerts: list[TaintAlert] = []
        self._stats = DIFTStats()
        self.machine: Machine | None = None
        # Micro-batching state (installed by attach() for array engines).
        self._kernel = None
        self._batch: bytearray | None = None
        self._skip_cell = [0]
        self._batch_base = [0]
        self._fixups: dict[int, int] = {}

    def attach(self, machine: Machine) -> "DIFTEngine":
        self.machine = machine
        # Telemetry-enabled machines stamp cycle totals into trace spans
        # mid-run; batching defers overhead charging to flush points and
        # would shift those stamps, so they keep the per-event path
        # (observables are identical either way — only span timestamps
        # would move).
        if (
            self.kernel_name == "array" or self._summaries
        ) and not machine.telemetry.enabled:
            # Summaries ride the micro-batch closure, so they engage it
            # for the reference kernel too (wrapped, not replaced).
            self._enable_batching()
        machine.hooks.subscribe(self)
        return self

    # -- batched views -------------------------------------------------------
    # The packing closure defers propagation, so every external read of
    # shadow/stats/alerts drains pending records first.  Per-event
    # engines have `_batch is None` and skip straight through.
    def _drain(self) -> None:
        if self._batch is None:
            return
        if self._batch or self._skip_cell[0]:
            self._flush_batch()
        if self._summaries and self._kernel is not None:
            # Resolve a region still buffered for matching so the
            # observables below are exact.  Settling mid-run only costs
            # elision (pass-through resumes afterwards), never
            # correctness — and any later raise still escapes at its
            # own record's flush.
            n0 = len(self._alerts)
            extra = self._kernel.settle()
            self._patch_alert_values(n0)
            if extra and self.charge_overhead and self.machine is not None:
                self.machine.add_overhead(extra)

    @property
    def shadow(self) -> ShadowState:
        self._drain()
        return self._shadow

    @property
    def stats(self) -> DIFTStats:
        self._drain()
        return self._stats

    @property
    def alerts(self) -> list[TaintAlert]:
        self._drain()
        return self._alerts

    def on_run_end(self) -> None:
        self._drain()

    def policy_signature(self) -> str:
        """Stable description of the active taint policy + sink rules
        (what the trace-lake manifest records so a stored run's alerts
        can be interpreted without the engine)."""
        sinks = ",".join(
            f"{rule.kind}"
            f"[{'*' if rule.channels is None else '|'.join(map(str, sorted(rule.channels)))}]"
            f":{rule.action}"
            for rule in self.sinks
        )
        policy = type(self.policy).__name__
        return f"{policy}/b{self.policy.label_bytes}/{self.kernel_name}({sinks})"

    def lake_manifest(self) -> dict:
        """JSON-safe manifest fragment for the trace lake: policy
        signature, alert list, and the headline DIFT stats."""
        stats = self.stats
        return {
            "policy": self.policy_signature(),
            "alerts": [
                {
                    "seq": a.seq, "tid": a.tid, "pc": a.pc, "sink": a.sink,
                    "label": str(a.label), "description": a.description,
                    "value": getattr(a, "value", 0),
                    "channel": getattr(a, "channel", -1),
                }
                for a in self.alerts
            ],
            "dift": {
                "instructions": stats.instructions,
                "tainted_instructions": stats.tainted_instructions,
                "sources": stats.sources,
                "sink_checks": stats.sink_checks,
                "taint_rate": stats.taint_rate,
            },
        }

    def _enable_batching(self) -> None:
        from .kernel import (
            K_ALLOC,
            K_CALL,
            K_GENERIC,
            K_IN,
            K_LOAD,
            K_RET,
            K_SINK,
            K_SKIP,
            K_SPAWN,
            K_STORE,
            RECORD,
            _fit,
            _IO_NONE,
            build_kernel,
        )

        kern = build_kernel(
            self.kernel_name,
            self.policy,
            source_channels=self.source_channels,
            sinks=self.sinks,
            propagate_addresses=self.propagate_addresses,
            shadow=self._shadow,
            stats=self._stats,
            alerts=self._alerts,
        )
        summaries_on = self._summaries
        if summaries_on:
            from .summaries import SummaryKernel

            kern = SummaryKernel(kern, cache=self._summary_cache)
            self._summary_cache = kern.cache
        self._kernel = kern
        # Pseudo-kinds for call-boundary instructions (summary mode):
        # negative so no packed kind collides.
        SK_CALL, SK_RET, SK_ISINK = -1, -2, -3
        batch = bytearray()
        self._batch = batch
        skip_cell = self._skip_cell
        base = self._batch_base
        fixups = self._fixups
        flush_bytes = self.kernel_batch * RECORD.size
        kinds: dict[int, int] = {}
        raise_pcs: set[int] = set()
        pack = RECORD.pack
        extend = batch.extend
        kget = kinds.get
        register = kern.register_template
        flush = self._flush_batch

        def on_instruction(ev: InstrEvent) -> None:
            pc = ev.pc
            kind = kget(pc)
            if kind is None:
                kind, may_raise = register(
                    pc, ev.instr, ev.reg_reads, ev.reg_writes, ev.channel
                )
                if summaries_on:
                    op = ev.instr.opcode
                    if op is Opcode.CALL:
                        kind = SK_CALL
                    elif op is Opcode.RET:
                        kind = SK_RET
                    elif op is Opcode.ICALL:
                        kind = SK_ISINK
                kinds[pc] = kind
                if may_raise:
                    raise_pcs.add(pc)
            if kind < 0:
                # Call boundaries (summary mode): CALL/RET fold their
                # own skip weight into the run, cut it, then append the
                # zero-weight marker — CALL's weight lands before (i.e.
                # outside) the region, RET's inside it.  ICALL cuts the
                # run and puts its K_CALL(a=1) marker just before its
                # own sink record, then continues as a normal sink.
                if kind == SK_ISINK:
                    if not batch and not skip_cell[0]:
                        base[0] = ev.seq
                    if skip_cell[0]:
                        extend(pack(K_SKIP, 0, 0, skip_cell[0], 0))
                        skip_cell[0] = 0
                    extend(pack(K_CALL, ev.tid, pc, 1, 0))
                    kind = K_SINK
                else:
                    if not skip_cell[0] and not batch:
                        base[0] = ev.seq
                    skip_cell[0] += 1
                    extend(pack(K_SKIP, 0, 0, skip_cell[0], 0))
                    skip_cell[0] = 0
                    extend(
                        pack(K_CALL if kind == SK_CALL else K_RET, ev.tid, pc, 0, 0)
                    )
                    if len(batch) >= flush_bytes:
                        flush()
                    return
            if kind == K_SKIP:
                if not skip_cell[0] and not batch:
                    base[0] = ev.seq
                skip_cell[0] += 1
                return
            if not batch and not skip_cell[0]:
                base[0] = ev.seq
            if skip_cell[0]:
                extend(pack(K_SKIP, 0, 0, skip_cell[0], 0))
                skip_cell[0] = 0
            tid = ev.tid
            if kind == K_GENERIC:
                extend(pack(K_GENERIC, tid, pc, 0, 0))
            elif kind == K_LOAD:
                extend(pack(K_LOAD, tid, pc, ev.mem_reads[0][0], 0))
            elif kind == K_STORE:
                extend(pack(K_STORE, tid, pc, ev.mem_writes[0][0], 0))
            elif kind == K_SINK:
                value = ev.reg_reads[0][1]
                io = ev.io_value
                a = _fit(value)
                b = _IO_NONE if io is None else _fit(io)
                if a != value or (io is not None and b != io):
                    fixups[ev.seq] = io if io is not None else value
                extend(pack(K_SINK, tid, pc, a, b))
                if pc in raise_pcs:
                    # Flush so an AttackDetected escapes from this very
                    # instruction's dispatch, exactly like the inline
                    # reference (FailureInfo pc/seq must match).
                    flush()
                    return
            elif kind == K_IN:
                extend(pack(K_IN, tid, pc, _fit(ev.io_value), ev.input_index))
            elif kind == K_ALLOC:
                alloc_base, alloc_size = ev.alloc
                extend(pack(K_ALLOC, tid, pc, alloc_base, alloc_size))
            else:  # K_SPAWN
                extend(pack(K_SPAWN, tid, pc, ev.reg_writes[0][1], 0))
            if len(batch) >= flush_bytes:
                flush()

        # Instance attribute shadows the class method for the hook bus.
        self.on_instruction = on_instruction

    def _flush_batch(self) -> None:
        batch = self._batch
        skip = self._skip_cell
        if skip[0]:
            from .kernel import K_SKIP, RECORD

            batch.extend(RECORD.pack(K_SKIP, 0, 0, skip[0], 0))
            skip[0] = 0
        if not batch:
            return
        data = bytes(batch)
        del batch[:]
        kern = self._kernel
        kern.seq = self._batch_base[0]
        n0 = len(self._alerts)
        try:
            effects = kern.propagate_batch(data)
        except AttackDetected:
            self._patch_alert_values(n0)
            effects = kern.raised_effects
            if (
                self.charge_overhead
                and effects is not None
                and self.machine is not None
            ):
                self.machine.add_overhead(effects.overhead)
            raise
        self._patch_alert_values(n0)
        if self.charge_overhead and self.machine is not None:
            self.machine.add_overhead(effects.overhead)

    def _patch_alert_values(self, start: int) -> None:
        """Restore clamped sink payloads on alerts the flush appended."""
        fixups = self._fixups
        if not fixups:
            return
        alerts = self._alerts
        for i in range(start, len(alerts)):
            alert = alerts[i]
            value = fixups.pop(alert.seq, None)
            if value is not None:
                alerts[i] = replace(alert, value=value)

    # -- label helpers ------------------------------------------------------
    def _combine(self, labels: list) -> object | None:
        labels = [l for l in labels if l is not None]
        if not labels:
            return None
        if len(labels) == 1:
            return labels[0]
        return self.policy.combine(labels)

    def _reg_labels(self, tid: int, reg_reads) -> list:
        reg = self._shadow.regs.get
        return [reg((tid, r)) for r, _ in reg_reads]

    # -- the hook -----------------------------------------------------------
    def on_instruction(self, ev: InstrEvent) -> None:
        op = ev.instr.opcode
        tid = ev.tid
        shadow = self._shadow
        stats = self._stats
        stats.instructions += 1
        overhead = self.check_cycles
        tainted = False

        if op is Opcode.IN:
            if self.source_channels is None or ev.channel in self.source_channels:
                label = self.policy.taint_for_input(ev)
                stats.sources += 1
                tainted = label is not None
            else:
                label = None
            shadow.set_reg(tid, ev.reg_writes[0][0], label)
        elif op is Opcode.LI:
            shadow.set_reg(tid, ev.reg_writes[0][0], None)
        elif op is Opcode.LOAD or op is Opcode.POP:
            addr = ev.mem_reads[0][0]
            labels = [shadow.mem.get(addr)]
            if self.propagate_addresses:
                labels += self._reg_labels(tid, ev.reg_reads)
            label = self._combine(labels)
            if label is not None:
                label = self.policy.through(ev, label)
                tainted = True
            # dst is the first (non-SP) written register
            shadow.set_reg(tid, ev.reg_writes[0][0], label)
        elif op is Opcode.STORE or op is Opcode.PUSH:
            addr = ev.mem_writes[0][0]
            labels = [shadow.regs.get((tid, ev.reg_reads[0][0]))]
            if self.propagate_addresses and len(ev.reg_reads) > 1:
                labels += [shadow.regs.get((tid, r)) for r, _ in ev.reg_reads[1:]]
            label = self._combine(labels)
            if label is not None:
                label = self.policy.through(ev, label)
                tainted = True
            shadow.set_cell(addr, label)
        elif op is Opcode.ALLOC:
            # Fresh memory is untainted even when a freed block is reused.
            base, size = ev.alloc
            shadow.clear_range(base, size)
            shadow.set_reg(tid, ev.reg_writes[0][0], None)
        elif op is Opcode.SPAWN:
            arg_label = shadow.regs.get((tid, ev.reg_reads[0][0]))
            child = ev.reg_writes[0][1]
            shadow.set_reg(child, 0, arg_label)
            shadow.set_reg(tid, ev.reg_writes[0][0], None)  # tid value is clean
            tainted = arg_label is not None
        elif ev.reg_writes:
            # Generic ALU/compare/move propagation.
            label = self._combine(self._reg_labels(tid, ev.reg_reads))
            if label is not None:
                label = self.policy.through(ev, label)
                tainted = True
            shadow.set_reg(tid, ev.reg_writes[0][0], label)
        elif op is Opcode.ICALL or op is Opcode.OUT:
            label = shadow.regs.get((tid, ev.reg_reads[0][0]))
            tainted = label is not None
            if label is not None:
                self._check_sinks(ev, label)

        if tainted:
            stats.tainted_instructions += 1
            overhead += self.policy.propagate_cycles
        if self.charge_overhead and self.machine is not None:
            self.machine.add_overhead(overhead)

    def _check_sinks(self, ev: InstrEvent, label: object) -> None:
        for rule in self.sinks:
            if not rule.matches(ev):
                continue
            self._stats.sink_checks += 1
            description = self.policy.describe(label)
            alert = TaintAlert(
                seq=ev.seq,
                tid=ev.tid,
                pc=ev.pc,
                sink=rule.kind,
                label=label,
                description=description,
                value=ev.io_value if ev.io_value is not None else ev.reg_reads[0][1],
                channel=ev.channel if ev.channel is not None else -1,
            )
            self._alerts.append(alert)
            if rule.action == "raise":
                culprit = label if isinstance(self.policy, PCTaintPolicy) else -1
                raise AttackDetected(str(alert), culprit_pc=culprit)

    # -- reporting -----------------------------------------------------------
    def publish_telemetry(self, registry) -> None:
        """Dump propagation/alert metrics into a
        :class:`~repro.telemetry.MetricsRegistry`; call after the run."""
        stats = self.stats
        registry.counter("dift.instructions").inc(stats.instructions)
        registry.counter("dift.propagations").inc(stats.tainted_instructions)
        registry.counter("dift.sources").inc(stats.sources)
        registry.counter("dift.sink_checks").inc(stats.sink_checks)
        registry.counter("dift.alerts").inc(len(self.alerts))
        registry.gauge("dift.taint_rate").set(stats.taint_rate)
        registry.gauge("dift.tainted_locations.peak").set_max(self.shadow.peak_locations)
        registry.gauge("dift.tainted_locations.final").set(
            self.shadow.tainted_cells + self.shadow.tainted_regs
        )
        registry.gauge("dift.shadow_bytes").set(self.shadow.shadow_bytes)
        registry.counter("shadow.pages_allocated").inc(self.shadow.pages_allocated)
        if self._kernel is not None:
            # Emitted only when the micro-batcher actually engaged, so
            # per-event runs (telemetry machines included) keep their
            # exact historical metric key set.
            kern = self._kernel
            registry.counter("dift.kernel.batches").inc(kern.batches)
            registry.counter("dift.kernel.records").inc(kern.records_consumed)
            registry.counter("dift.kernel.replayed").inc(kern.records_replayed)
            counters = getattr(kern, "counters", None)
            if counters is not None:  # SummaryKernel per-run counters
                for key, value in counters().items():
                    registry.counter(f"dift.summaries.{key}").inc(value)
        if self.kernel_fallback == "numpy":
            registry.counter("dift.kernel.fallback").inc()

    def memory_overhead(self, machine: Machine, guest_word_bytes: int = 4) -> float:
        """Shadow bytes / guest data bytes (the paper's "memory overhead")."""
        guest = max(1, machine.memory.footprint * guest_word_bytes)
        return self.shadow.shadow_bytes / guest
