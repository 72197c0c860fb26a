"""Pluggable batch propagation kernels over packed 24-byte records.

The paper's helper core works because propagation consumes a *compact
stream* instead of re-executing the app (§2.1); the DIFT-coprocessor
line (PAPERS.md, arXiv 1812.01541) pushes the same decoupling into a
dedicated engine.  This module is that seam in software: DIFT
propagation runs over **batches** of the ring's packed 24-byte records
(:data:`RECORD`, PR 3's wire format) through a kernel interface, so the
inline engine, the out-of-process worker and the service all feed the
same stream to an interchangeable backend:

* :class:`ReferenceKernel` — the per-record reference: each record
  rebuilds its pc's template :class:`~repro.vm.events.InstrEvent` and
  runs through the unmodified :class:`~repro.dift.engine.DIFTEngine`
  logic, byte for byte (this is the worker loop PR 3 shipped, extracted
  behind the interface).
* :class:`ArrayKernel` — the vectorized backend: numpy decodes the
  batch into columns, a conservative *location-key fixpoint* computes
  an over-approximation of every register/cell that can carry taint,
  and only the records that can touch that set replay through
  policy-specialized per-record logic; the provably-untainted bulk is
  accounted in O(1) (instruction counts, check-cycle overhead, seq
  advance via prefix sums).  Sink records split the batch at pack time
  (the producer flushes before a raise-capable sink), so alert
  seq/ordering and ``AttackDetected`` raise points are byte-identical
  to the reference — proven by the differential suite and the 200-seed
  fuzz.

Kernel selection is :func:`repro.fastpath.propagation_kernel`
(``REPRO_FASTPATH_KERNEL=reference|array``; default array when numpy
imports, automatic fallback otherwise).  The array kernel only
specializes the two label-sized policies
(:class:`~repro.dift.policy.BoolTaintPolicy`,
:class:`~repro.dift.policy.PCTaintPolicy`); anything else (the lineage
set policy) stays on the reference kernel.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, replace

from .. import fastpath
from ..isa.instructions import Opcode
from ..vm.errors import AttackDetected
from ..vm.events import Hook, InstrEvent
from .engine import DIFTEngine, TaintAlert
from .policy import BoolTaintPolicy, COPY_OPS, PCTaintPolicy, TaintPolicy
from .shadow import ShadowState

#: one packed record: kind u8, tid u16, pc u32, a i64, b i64, pad -> 24 B.
#: (Canonical here; :mod:`repro.multicore.parallel` re-exports it.)
RECORD = struct.Struct("<BHIqqx")
RECORD_SIZE = RECORD.size

K_SKIP = 0
K_GENERIC = 1
K_LOAD = 2
K_STORE = 3
K_ALLOC = 4
K_SPAWN = 5
K_IN = 6
K_SINK = 7
#: call-boundary markers (function-summary mode only): zero-weight
#: metadata records cut into the stream by producers when
#: ``fastpath.summaries`` is on.  ``K_CALL`` carries ``a=0`` for a
#: direct CALL site and ``a=1`` for an ICALL (never summarized); both
#: kinds are pure no-ops to the base kernels — every kind >= K_CALL
#: represents zero guest instructions.
K_CALL = 8
K_RET = 9

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
#: ``b`` sentinel for "io_value is None" on K_SINK records.
_IO_NONE = _I64_MIN

#: reg-key shift: key = tid << REG_SHIFT | reg (regs are < 64 per thread).
REG_SHIFT = 6

#: batches smaller than this skip the numpy machinery entirely — the
#: unbatched worker drains 1-record chunks where fixed decode cost
#: would dominate.
SMALL_BATCH = 48

#: fixpoint iteration cap; non-convergence selects the whole batch
#: (sound, just no bulk skip for that batch).
MAX_FIXPOINT = 20

#: once this many register keys are live-tainted, the fixpoint's bulk
#: skip can no longer pay (the register file is small, so nearly every
#: record selects anyway) and the kernel replays all live records
#: through the specialized scalar loop instead.
DENSE_REGS = 8

#: a selection probe that keeps more than this fraction of a batch is
#: not paying for its fixpoint; skip selection for the next
#: PROBE_EVERY - 1 batches and replay every live record instead.
SELECT_PAYOFF = 0.5
PROBE_EVERY = 8

_np = None


def _numpy():
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


def _fit(v: int) -> int:
    """Clamp ``v`` into the representable i64 payload range (the true
    value is restored producer-side via the alert fixup table)."""
    if v > _I64_MAX:
        return _I64_MAX
    if v <= _I64_MIN:
        return _I64_MIN + 1
    return v


def classify_opcode(instr, reg_writes) -> int:
    """Record kind for one static instruction.

    Must mirror ``DIFTEngine.on_instruction``'s dispatch chain so each
    pc's record kind matches the branch the engine takes.
    """
    op = instr.opcode
    if op is Opcode.IN:
        return K_IN
    if op is Opcode.LOAD or op is Opcode.POP:
        return K_LOAD
    if op is Opcode.STORE or op is Opcode.PUSH:
        return K_STORE
    if op is Opcode.ALLOC:
        return K_ALLOC
    if op is Opcode.SPAWN:
        return K_SPAWN
    if reg_writes:
        return K_GENERIC
    if op is Opcode.ICALL or op is Opcode.OUT:
        return K_SINK
    return K_SKIP


@dataclass
class BatchEffects:
    """What one ``propagate_batch`` call did (for accounting/telemetry)."""

    records: int = 0  # packed records consumed (incl. skip records)
    instructions: int = 0  # guest instructions they represent
    replayed: int = 0  # records run through per-record logic
    tainted: int = 0  # instructions with a tainted input
    overhead: int = 0  # modeled cycles (check + propagate stubs)
    raised: bool = False  # an AttackDetected escaped mid-batch


def select_kernel(explicit: str | None, policy: TaintPolicy) -> str:
    """Resolve the kernel name for ``policy``.

    :func:`repro.fastpath.propagation_kernel` handles the flag and the
    numpy probe; this adds the policy gate — the array kernel encodes
    labels as int64 scalars, so only the exact bool/PC policies
    qualify (subclasses could override the algebra).
    """
    name = fastpath.propagation_kernel(explicit)
    if name == "array" and type(policy) not in (BoolTaintPolicy, PCTaintPolicy):
        fastpath.note_kernel_fallback("policy", explicit=explicit == "array")
        name = "reference"
    return name


class PropagationKernel:
    """Stateful batch propagation over packed records.

    A kernel owns the replay substrate — templates, shadow, stats,
    alerts, the running ``seq`` — and consumes the record stream batch
    by batch via :meth:`propagate_batch`.  Producers register each pc's
    static operand template (:meth:`register_template`) strictly before
    the first record referencing it, or install a
    :attr:`template_provider` callback that does so on demand (the
    worker's side-pipe recv).

    ``shadow`` / ``stats`` / ``alerts`` may be adopted from an existing
    engine so the kernel mutates the very objects its caller already
    exposes (the inline engine does this).
    """

    def __init__(
        self,
        policy: TaintPolicy,
        source_channels: frozenset[int] | None = None,
        sinks=None,
        propagate_addresses: bool = False,
        shadow=None,
        stats=None,
        alerts=None,
    ):
        # The replay substrate *is* a stock engine (charge_overhead off:
        # the kernel accounts cycles itself, in bulk), so per-record
        # semantics can never drift from the inline reference.
        self.engine = DIFTEngine(
            policy,
            source_channels=source_channels,
            sinks=sinks,
            propagate_addresses=propagate_addresses,
            charge_overhead=False,
            kernel="reference",
        )
        # A standalone kernel owns its shadow (the store variant that
        # matches its backend); adopted shadows are used as-is.
        self.engine._shadow = (
            shadow if shadow is not None else self._default_shadow(policy)
        )
        if stats is not None:
            self.engine._stats = stats
        if alerts is not None:
            self.engine._alerts = alerts
        self.policy = policy
        self.sinks = self.engine.sinks
        self.propagate_addresses = propagate_addresses
        self.source_channels = source_channels
        #: pc -> template InstrEvent (dynamic fields mutated in place).
        self.templates: dict[int, InstrEvent] = {}
        #: pc -> tuple of statically-matching SinkRules (K_SINK pcs).
        self.rules_for_pc: dict[int, tuple] = {}
        #: called with an unregistered pc; must register it (or raise).
        self.template_provider = None
        #: global dynamic instruction number of the next record.
        self.seq = 0
        #: effects of a batch that raised (stats were applied; the
        #: caller charges overhead before propagating the exception).
        self.raised_effects: BatchEffects | None = None
        self.batches = 0
        self.records_consumed = 0
        self.records_replayed = 0

    def _default_shadow(self, policy: TaintPolicy) -> ShadowState:
        return ShadowState(policy)

    # -- substrate views ----------------------------------------------------
    @property
    def shadow(self):
        return self.engine._shadow

    @property
    def stats(self):
        return self.engine._stats

    @property
    def alerts(self):
        return self.engine._alerts

    # -- templates ----------------------------------------------------------
    def register_template(
        self, pc: int, instr, reg_reads, reg_writes, channel
    ) -> tuple[int, bool]:
        """Register pc's static operand template.

        Returns ``(kind, may_raise)``: the record kind producers pack
        for this pc, and whether a sink here can raise (producers flush
        before such records so the raise escapes the sink instruction's
        own hook dispatch, exactly like the inline reference).
        """
        kind = classify_opcode(instr, reg_writes)
        may_raise = False
        if kind == K_SKIP:
            return kind, may_raise
        ev = InstrEvent(
            seq=0,
            tid=0,
            pc=pc,
            instr=instr,
            reg_reads=reg_reads,
            reg_writes=reg_writes,
            channel=channel,
        )
        self.templates[pc] = ev
        if kind == K_SINK:
            # Rule matching reads only static fields (opcode, channel).
            matched = tuple(r for r in self.sinks if r.matches(ev))
            self.rules_for_pc[pc] = matched
            may_raise = any(r.action == "raise" for r in matched)
        return kind, may_raise

    def _resolve_template(self, pc: int) -> InstrEvent:
        provider = self.template_provider
        while pc not in self.templates:
            if provider is None:
                raise KeyError(f"no template registered for pc {pc}")
            provider(pc)
        return self.templates[pc]

    # -- the batch interface -------------------------------------------------
    def propagate_batch(self, records: bytes, shadow=None, policy=None) -> BatchEffects:
        """Propagate one batch of packed records; returns its effects.

        ``shadow``/``policy`` default to the kernel's own; passing a
        different shadow rebinds the replay substrate to it (the
        interface form the consumers share), passing a different policy
        is an error — a kernel is specialized per policy.
        """
        if policy is not None and policy is not self.policy:
            raise ValueError("kernel is bound to its policy; build a new kernel")
        if shadow is not None and shadow is not self.engine._shadow:
            self.engine._shadow = shadow
        return self._propagate(records)

    def _propagate(self, records: bytes) -> BatchEffects:
        raise NotImplementedError

    # -- shared reference replay --------------------------------------------
    def _replay_all(self, records: bytes) -> BatchEffects:
        """Replay every record through the stock engine (the PR 3 worker
        loop, verbatim) — the reference semantics both kernels share."""
        engine = self.engine
        stats = engine._stats
        i0 = stats.instructions
        t0 = stats.tainted_instructions
        seq = self.seq
        n_records = len(records) // RECORD_SIZE
        templates_get = self.templates.get
        on_instruction = engine.on_instruction
        io_none = _IO_NONE
        SKIP, GENERIC, LOAD, STORE = K_SKIP, K_GENERIC, K_LOAD, K_STORE
        ALLOC, IN, SINK, CALL_M = K_ALLOC, K_IN, K_SINK, K_CALL
        check = engine.check_cycles
        prop = self.policy.propagate_cycles
        try:
            for kind, tid, pc, a, b in RECORD.iter_unpack(records):
                # Skip records carry pc=0, so they must short-circuit
                # before any template lookup.
                if kind == SKIP:
                    stats.instructions += a
                    seq += a
                    continue
                if kind >= CALL_M:
                    # Call-boundary markers: zero-weight stream metadata
                    # consumed by the summary layer; plain no-ops here.
                    continue
                ev = templates_get(pc)
                if ev is None:
                    ev = self._resolve_template(pc)
                ev.seq = seq
                seq += 1
                ev.tid = tid
                if kind == GENERIC:
                    pass
                elif kind == LOAD:
                    ev.mem_reads = ((a, 0),)
                elif kind == STORE:
                    ev.mem_writes = ((a, 0),)
                elif kind == SINK:
                    ev.reg_reads = ((ev.reg_reads[0][0], a),)
                    ev.io_value = None if b == io_none else b
                elif kind == IN:
                    ev.io_value = a
                    ev.input_index = b
                elif kind == ALLOC:
                    ev.alloc = (a, b)
                else:  # K_SPAWN
                    ev.reg_writes = ((ev.reg_writes[0][0], a),)
                on_instruction(ev)
        except AttackDetected:
            # Same stopping point as inline: stats/taint/alerts freeze
            # where the raise happened; the raising record counted an
            # instruction but charges no overhead cycles.
            self.seq = seq
            d_instr = stats.instructions - i0
            d_taint = stats.tainted_instructions - t0
            self.raised_effects = BatchEffects(
                records=n_records,
                instructions=d_instr,
                replayed=n_records,
                tainted=d_taint,
                overhead=check * (d_instr - 1) + prop * d_taint,
                raised=True,
            )
            self.batches += 1
            self.records_consumed += n_records
            self.records_replayed += n_records
            raise
        self.seq = seq
        d_instr = stats.instructions - i0
        d_taint = stats.tainted_instructions - t0
        self.batches += 1
        self.records_consumed += n_records
        self.records_replayed += n_records
        return BatchEffects(
            records=n_records,
            instructions=d_instr,
            replayed=n_records,
            tainted=d_taint,
            overhead=check * d_instr + prop * d_taint,
        )


class ReferenceKernel(PropagationKernel):
    """Pure-python per-record propagation — today's logic, extracted."""

    def _propagate(self, records: bytes) -> BatchEffects:
        return self._replay_all(records)


class ArrayKernel(PropagationKernel):
    """Vectorized batch propagation: numpy selection + sparse replay.

    Taint propagation is inherently sequential (each record's effect
    depends on the shadow state its predecessors left), so the kernel
    splits each batch into a vectorized *screen* and a specialized
    scalar *replay*:

    * taint-free batches (no live label, no source record — the common
      warm-up/drain phases) are bulk-accounted in O(1) via prefix sums;
    * with sparse taint (< :data:`DENSE_REGS` live register keys) a
      monotone fixpoint over reg/mem location keys computes a sound
      over-approximation of everything that can carry taint in the
      batch, and only records touching that set replay;
    * with dense taint (the small register file saturates, selection
      would keep ~everything anyway) every live record replays through
      the policy-specialized scalar loop — one dict lookup per pc, no
      per-record numpy indexing.

    Replay order is record order, so alerts, raise points,
    peak-location high-water marks and stats are byte-identical to the
    reference."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        if type(self.policy) not in (BoolTaintPolicy, PCTaintPolicy):
            raise ValueError(
                "ArrayKernel specializes BoolTaintPolicy/PCTaintPolicy; "
                f"got {type(self.policy).__name__} (use ReferenceKernel)"
            )
        np = _numpy()
        self._np = np
        self._rec_dtype = np.dtype(
            {
                "names": ["kind", "tid", "pc", "a", "b"],
                "formats": [np.uint8, np.uint16, np.uint32, np.int64, np.int64],
                "offsets": [0, 1, 3, 7, 15],
                "itemsize": RECORD_SIZE,
            }
        )
        self._cap = 0
        self._t_kind = None  # int16, -1 = unregistered
        self._t_r0 = None  # int64 read-reg numbers, -1 = none
        self._t_r1 = None
        self._t_r2 = None
        self._t_w = None  # int64 written/cleared reg number, -1 = none
        self._t_src = None  # bool: IN matching source_channels
        self._t_copy = None  # bool: opcode in COPY_OPS (PC `through`)
        self._t_extra = None  # bool: >3 read regs -> replay via events
        self._chan = {}  # pc -> alert channel (or -1)
        #: pc -> (r0, r1, r2, w, is_source, is_copy, sink_rules, channel):
        #: one dict hit per replayed record instead of six column gathers.
        self._info = {}
        self._grow(256)
        self.fixpoint_fallbacks = 0
        #: batches left before the next selection probe (0 = probe now).
        self._probe_countdown = 0

    def _default_shadow(self, policy: TaintPolicy) -> ShadowState:
        # Plain-dict cells: the replay loop's per-record get/set is the
        # hot path, where dict wins; the columnar ArrayLabelStore (the
        # engine's default when it engages this kernel inline) pays off
        # for bulk export/clear on dense-taint heaps and is adopted
        # as-is when a consumer passes such a shadow.
        return ShadowState(policy)

    # -- template columns ---------------------------------------------------
    def _grow(self, need: int) -> None:
        np = self._np
        cap = max(need, self._cap * 2, 256)
        def ext(old, fill, dtype):
            fresh = np.full(cap, fill, dtype=dtype)
            if old is not None:
                fresh[: len(old)] = old
            return fresh

        self._t_kind = ext(self._t_kind, -1, np.int16)
        self._t_r0 = ext(self._t_r0, -1, np.int64)
        self._t_r1 = ext(self._t_r1, -1, np.int64)
        self._t_r2 = ext(self._t_r2, -1, np.int64)
        self._t_w = ext(self._t_w, -1, np.int64)
        self._t_src = ext(self._t_src, False, bool)
        self._t_copy = ext(self._t_copy, False, bool)
        self._t_extra = ext(self._t_extra, False, bool)
        self._cap = cap

    def register_template(self, pc, instr, reg_reads, reg_writes, channel):
        kind, may_raise = super().register_template(
            pc, instr, reg_reads, reg_writes, channel
        )
        if kind == K_SKIP:
            return kind, may_raise
        if pc >= self._cap:
            self._grow(pc + 1)
        if kind == K_GENERIC:
            reads = [r for r, _ in reg_reads]
        elif kind == K_STORE:
            reads = [reg_reads[0][0]]
            if self.propagate_addresses:
                reads += [r for r, _ in reg_reads[1:]]
        elif kind == K_LOAD:
            reads = [r for r, _ in reg_reads] if self.propagate_addresses else []
        elif kind in (K_SPAWN, K_SINK):
            reads = [reg_reads[0][0]]
        else:  # K_IN, K_ALLOC
            reads = []
        self._t_kind[pc] = kind
        for slot, field in zip(range(3), (self._t_r0, self._t_r1, self._t_r2)):
            field[pc] = reads[slot] if slot < len(reads) else -1
        self._t_extra[pc] = len(reads) > 3
        # SINKs write nothing; STOREs write memory, not a register.
        self._t_w[pc] = reg_writes[0][0] if kind not in (K_SINK, K_STORE) else -1
        self._t_src[pc] = kind == K_IN and (
            self.source_channels is None or channel in self.source_channels
        )
        self._t_copy[pc] = instr.opcode in COPY_OPS
        self._info[pc] = (
            reads[0] if len(reads) > 0 else -1,
            reads[1] if len(reads) > 1 else -1,
            reads[2] if len(reads) > 2 else -1,
            int(self._t_w[pc]),
            bool(self._t_src[pc]),
            instr.opcode in COPY_OPS,
            self.rules_for_pc.get(pc, ()),
            channel if channel is not None else -1,
        )
        self._chan[pc] = channel if channel is not None else -1
        return kind, may_raise

    # -- tainted-key export -------------------------------------------------
    def _tainted_keys(self):
        """Current tainted (reg-key array, mem-addr array), sorted."""
        np = self._np
        shadow = self.engine._shadow
        regs = shadow.regs
        if regs:
            t_reg = np.fromiter(
                ((t << REG_SHIFT) | r for t, r in regs), dtype=np.int64, count=len(regs)
            )
            t_reg.sort()
        else:
            t_reg = np.empty(0, dtype=np.int64)
        mem = shadow.mem
        tainted_addrs = getattr(mem, "tainted_addresses", None)
        if tainted_addrs is not None:
            t_mem = tainted_addrs()  # ArrayLabelStore: vectorized export
        elif mem:
            t_mem = np.fromiter(iter(mem.keys()), dtype=np.int64, count=len(mem))
            t_mem.sort()
        else:
            t_mem = np.empty(0, dtype=np.int64)
        return t_reg, t_mem

    # -- the batch ----------------------------------------------------------
    def _propagate(self, records: bytes) -> BatchEffects:
        n = len(records) // RECORD_SIZE
        if n < SMALL_BATCH:
            return self._replay_all(records)
        np = self._np
        arr = np.frombuffer(records, dtype=self._rec_dtype)
        kind = arr["kind"]
        pc = arr["pc"].astype(np.int64)
        valid = (kind != K_SKIP) & (kind < K_CALL)
        max_pc = int(pc.max(initial=0))
        if max_pc >= self._cap:
            self._grow(max_pc + 1)
        unknown = valid & (self._t_kind[pc] < 0)
        if unknown.any():
            for p in np.unique(pc[unknown]).tolist():
                self._resolve_template(p)
        if self._t_extra[pc][valid].any():
            # A pc with >3 effective read regs (none in the current ISA,
            # but soundness first): replay the whole batch per-record.
            self.fixpoint_fallbacks += 1
            return self._replay_all(records)

        a = arr["a"]
        # Instructions per record: live = 1, skip = run length, call
        # markers (kind >= K_CALL) = 0 — markers are weightless metadata.
        w = np.where(valid, 1, np.where(kind == K_SKIP, a, 0))
        cum = np.cumsum(w)
        total_instr = int(cum[-1])
        self.batches += 1
        self.records_consumed += n

        shadow = self.engine._shadow
        live_regs = len(shadow.regs)
        if not live_regs and not len(shadow.mem):
            if not (valid & self._t_src[pc]).any():
                # Taint-free screen: no live label anywhere and no
                # source record in the batch, so nothing can observe or
                # create taint — the whole batch is bulk-accounted.
                stats = self.engine._stats
                stats.instructions += total_instr
                self.seq += total_instr
                return BatchEffects(
                    records=n,
                    instructions=total_instr,
                    overhead=self.engine.check_cycles * total_instr,
                )

        if self._probe_countdown > 0:
            # The last probe showed selection not paying for its
            # fixpoint on this stream; replay every live record.
            self._probe_countdown -= 1
            idx = np.nonzero(valid)[0]
        elif live_regs >= DENSE_REGS:
            # Taint saturates the register file: selection converges on
            # ~everything, so skip the fixpoint and replay all records.
            idx = np.nonzero(valid)[0]
        else:
            t_reg, t_mem = self._tainted_keys()
            producing_base = valid & self._t_src[pc]
            idx = self._select(
                np, arr, kind, pc, a, valid, producing_base, t_reg, t_mem
            )
            if idx is None:  # fixpoint aborted dense: select everything
                self._probe_countdown = PROBE_EVERY - 1
                idx = np.nonzero(valid)[0]
            else:
                n_valid = int(valid.sum())
                if n_valid and len(idx) > SELECT_PAYOFF * n_valid:
                    self._probe_countdown = PROBE_EVERY - 1
        seq_at = self.seq + cum - w
        return self._replay(idx, arr, pc, seq_at, cum, total_instr, n)

    def _select(self, np, arr, kind, pc, a, valid, producing_base, t_reg, t_mem):
        """Conservative vectorized selection: index of every record that
        can read, create, write or clear a possibly-tainted key, or
        ``None`` when the fixpoint saturates the register file early
        (selection would keep ~everything — caller replays all).

        A monotone fixpoint grows the key set through the batch's
        producer edges (ignoring kills keeps it a sound
        over-approximation of every intermediate shadow state)."""
        b = arr["b"]
        tid = arr["tid"].astype(np.int64)
        r0 = self._t_r0[pc]
        r1 = self._t_r1[pc]
        r2 = self._t_r2[pc]
        wr = self._t_w[pc]
        tshift = tid << REG_SHIFT
        k0 = np.where(valid & (r0 >= 0), tshift | r0, -1)
        k1 = np.where(valid & (r1 >= 0), tshift | r1, -1)
        k2 = np.where(valid & (r2 >= 0), tshift | r2, -1)
        kw = np.where(valid & (wr >= 0), tshift | wr, -1)
        is_load = kind == K_LOAD
        is_store = kind == K_STORE
        is_spawn = kind == K_SPAWN
        is_alloc = kind == K_ALLOC
        k_spawn = np.where(is_spawn, a << REG_SHIFT, -1)

        def in_set(keys, table):
            if not len(table):
                return np.zeros(len(keys), dtype=bool)
            return (keys >= 0) & np.isin(keys, table)

        prod = producing_base
        for _ in range(MAX_FIXPOINT):
            prod = (
                producing_base
                | in_set(k0, t_reg)
                | in_set(k1, t_reg)
                | in_set(k2, t_reg)
                | (is_load & in_set(a, t_mem))
            )
            fresh_reg = np.unique(
                np.concatenate((kw[prod & (kw >= 0)], k_spawn[prod & is_spawn]))
            )
            if len(t_reg) and len(fresh_reg):
                fresh_reg = fresh_reg[~np.isin(fresh_reg, t_reg)]
            fresh_mem = np.unique(a[prod & is_store])
            if len(t_mem) and len(fresh_mem):
                fresh_mem = fresh_mem[~np.isin(fresh_mem, t_mem)]
            if not len(fresh_reg) and not len(fresh_mem):
                break
            if len(fresh_reg):
                t_reg = np.sort(np.concatenate((t_reg, fresh_reg)))
                if len(t_reg) >= 2 * DENSE_REGS:
                    # The over-approximation saturated the register
                    # file; no point converging just to select ~all.
                    return None
            if len(fresh_mem):
                t_mem = np.sort(np.concatenate((t_mem, fresh_mem)))
        else:
            # Non-convergence: select everything (sound, no bulk skip).
            self.fixpoint_fallbacks += 1
            return np.nonzero(valid)[0]

        # Select: records that may read taint (prod), write/clear a
        # possibly-tainted location, or free a range overlapping one.
        sel = prod | in_set(kw, t_reg) | in_set(k_spawn, t_reg)
        sel |= is_store & in_set(a, t_mem)
        if len(t_mem):
            alloc_idx = np.nonzero(is_alloc)[0]
            if len(alloc_idx):
                lo = np.searchsorted(t_mem, a[alloc_idx])
                hi = np.searchsorted(t_mem, a[alloc_idx] + b[alloc_idx])
                sel[alloc_idx] |= hi > lo
        sel &= valid
        return np.nonzero(sel)[0]

    def _replay(self, idx, arr, pc, seq_at, cum, total_instr, n_records):
        """Replay the selected records in order through a specialized
        scalar loop (exact engine semantics for bool/PC labels); the
        skipped bulk is accounted through the batch prefix sums."""
        np = self._np
        policy = self.policy
        is_pc = type(policy) is PCTaintPolicy
        engine = self.engine
        shadow = engine._shadow
        stats = engine._stats
        regs = shadow.regs
        mem = shadow.mem
        regs_get = regs.get
        regs_pop = regs.pop
        mem_get = mem.get
        mem_pop = mem.pop
        sh_clear = shadow.clear_range
        alerts_append = engine._alerts.append
        describe = policy.describe
        peak = shadow.peak_locations
        check = engine.check_cycles
        prop = policy.propagate_cycles
        GENERIC, LOAD, STORE = K_GENERIC, K_LOAD, K_STORE
        ALLOC, SPAWN, IN = K_ALLOC, K_SPAWN, K_IN
        io_none = _IO_NONE
        info_get = self._info.__getitem__

        kinds_l = arr["kind"][idx].tolist()
        tids_l = arr["tid"][idx].tolist()
        pcs_l = pc[idx].tolist()
        a_l = arr["a"][idx].tolist()
        b_l = arr["b"][idx].tolist()
        seq_l = seq_at[idx].tolist()
        n_sel = len(kinds_l)
        self.records_replayed += n_sel

        tainted_n = 0
        sources_n = 0
        sink_checks_n = 0
        sq = -1
        try:
            for k, t, p, av, bv, sq in zip(kinds_l, tids_l, pcs_l, a_l, b_l, seq_l):
                r0, r1, r2, wreg, src, copy, rules, chan_p = info_get(p)
                if k == GENERIC:
                    lab = regs_get((t, r0)) if r0 >= 0 else None
                    if r1 >= 0:
                        l2 = regs_get((t, r1))
                        if l2 is not None and (lab is None or not is_pc or l2 > lab):
                            lab = l2
                        if r2 >= 0:
                            l2 = regs_get((t, r2))
                            if l2 is not None and (
                                lab is None or not is_pc or l2 > lab
                            ):
                                lab = l2
                    if lab is None:
                        regs_pop((t, wreg), None)
                    else:
                        if is_pc and not copy:
                            lab = p
                        tainted_n += 1
                        regs[(t, wreg)] = lab
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                elif k == LOAD:
                    lab = mem_get(av)
                    if r0 >= 0:  # propagate_addresses: address regs join in
                        l2 = regs_get((t, r0))
                        if l2 is not None and (lab is None or not is_pc or l2 > lab):
                            lab = l2
                        if r1 >= 0:
                            l2 = regs_get((t, r1))
                            if l2 is not None and (
                                lab is None or not is_pc or l2 > lab
                            ):
                                lab = l2
                            if r2 >= 0:
                                l2 = regs_get((t, r2))
                                if l2 is not None and (
                                    lab is None or not is_pc or l2 > lab
                                ):
                                    lab = l2
                    if lab is None:
                        regs_pop((t, wreg), None)
                    else:
                        if is_pc and not copy:
                            lab = p
                        tainted_n += 1
                        regs[(t, wreg)] = lab
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                elif k == STORE:
                    lab = regs_get((t, r0))
                    if r1 >= 0:  # propagate_addresses
                        l2 = regs_get((t, r1))
                        if l2 is not None and (lab is None or not is_pc or l2 > lab):
                            lab = l2
                        if r2 >= 0:
                            l2 = regs_get((t, r2))
                            if l2 is not None and (
                                lab is None or not is_pc or l2 > lab
                            ):
                                lab = l2
                    if lab is None:
                        mem_pop(av, None)
                    else:
                        if is_pc and not copy:
                            lab = p
                        tainted_n += 1
                        mem[av] = lab
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                elif k == IN:
                    if src:
                        sources_n += 1
                        tainted_n += 1
                        regs[(t, wreg)] = p if is_pc else True
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                    else:
                        regs_pop((t, wreg), None)
                elif k == ALLOC:
                    sh_clear(av, bv)
                    regs_pop((t, wreg), None)
                elif k == SPAWN:
                    arg = regs_get((t, r0))
                    child_key = (av, 0)
                    if arg is None:
                        regs_pop(child_key, None)
                    else:
                        regs[child_key] = arg
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                    regs_pop((t, wreg), None)
                    if arg is not None:
                        tainted_n += 1
                else:  # K_SINK
                    lab = regs_get((t, r0))
                    if lab is not None:
                        for rule in rules:
                            sink_checks_n += 1
                            alert = TaintAlert(
                                seq=sq,
                                tid=t,
                                pc=p,
                                sink=rule.kind,
                                label=lab,
                                description=describe(lab),
                                value=bv if bv != io_none else av,
                                channel=chan_p,
                            )
                            alerts_append(alert)
                            if rule.action == "raise":
                                raise AttackDetected(
                                    str(alert), culprit_pc=lab if is_pc else -1
                                )
                        tainted_n += 1
        except AttackDetected:
            # Freeze exactly at the raise point: everything up to the
            # raising record (replayed or bulk) counts instructions; the
            # raising record itself adds an instruction and its sink
            # checks/alert above, but neither taint nor a check cycle —
            # like the reference.
            j = bisect_left(seq_l, sq)
            raise_pos = int(np.searchsorted(seq_at, sq))
            instr_delta = int(cum[raise_pos])
            stats.instructions += instr_delta
            stats.tainted_instructions += tainted_n
            stats.sources += sources_n
            stats.sink_checks += sink_checks_n
            shadow.peak_locations = peak
            self.records_replayed -= n_sel - (j + 1)
            self.seq += instr_delta
            self.raised_effects = BatchEffects(
                records=n_records,
                instructions=instr_delta,
                replayed=j + 1,
                tainted=tainted_n,
                overhead=check * (instr_delta - 1) + prop * tainted_n,
                raised=True,
            )
            raise
        stats.instructions += total_instr
        stats.tainted_instructions += tainted_n
        stats.sources += sources_n
        stats.sink_checks += sink_checks_n
        shadow.peak_locations = peak
        self.seq += total_instr
        return BatchEffects(
            records=n_records,
            instructions=total_instr,
            replayed=n_sel,
            tainted=tainted_n,
            overhead=check * total_instr + prop * tainted_n,
        )


def build_kernel(name: str, policy: TaintPolicy, **kw) -> PropagationKernel:
    """Instantiate a kernel by resolved name ("array" | "reference")."""
    if name == "array":
        return ArrayKernel(policy, **kw)
    if name == "reference":
        return ReferenceKernel(policy, **kw)
    raise ValueError(f"unknown propagation kernel {name!r}")


class RecordStreamCapture(Hook):
    """Capture a run's packed record stream (bench/test aid).

    Attach to a machine like an engine; after the run, :attr:`chunks`
    holds the packed record bytes (skip-compressed, same wire format
    the ring ships), :attr:`templates` the per-pc operand templates in
    first-use order, and :attr:`fixups` the seq -> true-value patches
    for clamped sink payloads.  :meth:`prime` registers the templates
    into a kernel so the stream can be replayed through it.
    """

    #: pseudo-kinds (marker capture only, never hit the wire as-is)
    _SK_CALL = -1
    _SK_RET = -2
    _SK_ISINK = -3

    def __init__(self, flush_records: int = 4096, markers: bool = False):
        self.chunks: list[bytes] = []
        self.templates: list[tuple] = []
        self.fixups: dict[int, int] = {}
        self._kinds: dict[int, int] = {}
        self._batch = bytearray()
        self._flush_bytes = flush_records * RECORD_SIZE
        self._skip = 0
        self._markers = markers
        self.instructions = 0

    def attach(self, machine) -> "RecordStreamCapture":
        machine.hooks.subscribe(self)
        return self

    def on_instruction(self, ev: InstrEvent) -> None:
        pc = ev.pc
        kind = self._kinds.get(pc)
        if kind is None:
            kind = classify_opcode(ev.instr, ev.reg_writes)
            if self._markers:
                op = ev.instr.opcode
                if op is Opcode.CALL:
                    kind = self._SK_CALL
                elif op is Opcode.RET:
                    kind = self._SK_RET
                elif op is Opcode.ICALL:
                    kind = self._SK_ISINK
            self._kinds[pc] = kind
            if kind != K_SKIP and kind not in (self._SK_CALL, self._SK_RET):
                self.templates.append(
                    (pc, ev.instr, ev.reg_reads, ev.reg_writes, ev.channel)
                )
        self.instructions += 1
        batch = self._batch
        if kind < 0:
            # Summary-mode call boundaries, mirroring the engine closure:
            # CALL/RET fold their own skip weight into the run, cut it,
            # then append the zero-weight marker (so CALL's weight lands
            # before — outside — the region and RET's weight inside it).
            # ICALL cuts the run and puts its K_CALL(a=1) marker just
            # before its own sink record.
            if kind == self._SK_ISINK:
                if self._skip:
                    batch.extend(RECORD.pack(K_SKIP, 0, 0, self._skip, 0))
                    self._skip = 0
                batch.extend(RECORD.pack(K_CALL, ev.tid, pc, 1, 0))
                kind = K_SINK
            else:
                self._skip += 1
                batch.extend(RECORD.pack(K_SKIP, 0, 0, self._skip, 0))
                self._skip = 0
                batch.extend(
                    RECORD.pack(
                        K_CALL if kind == self._SK_CALL else K_RET, ev.tid, pc, 0, 0
                    )
                )
                if len(batch) >= self._flush_bytes:
                    self.chunks.append(bytes(batch))
                    del batch[:]
                return
        if kind == K_SKIP:
            self._skip += 1
            return
        if self._skip:
            batch.extend(RECORD.pack(K_SKIP, 0, 0, self._skip, 0))
            self._skip = 0
        tid = ev.tid
        if kind == K_GENERIC:
            batch.extend(RECORD.pack(K_GENERIC, tid, pc, 0, 0))
        elif kind == K_LOAD:
            batch.extend(RECORD.pack(K_LOAD, tid, pc, ev.mem_reads[0][0], 0))
        elif kind == K_STORE:
            batch.extend(RECORD.pack(K_STORE, tid, pc, ev.mem_writes[0][0], 0))
        elif kind == K_SINK:
            value = ev.reg_reads[0][1]
            io = ev.io_value
            a = _fit(value)
            b = _IO_NONE if io is None else _fit(io)
            if a != value or (io is not None and b != io):
                self.fixups[ev.seq] = io if io is not None else value
            batch.extend(RECORD.pack(K_SINK, tid, pc, a, b))
        elif kind == K_IN:
            batch.extend(RECORD.pack(K_IN, tid, pc, _fit(ev.io_value), ev.input_index))
        elif kind == K_ALLOC:
            base, size = ev.alloc
            batch.extend(RECORD.pack(K_ALLOC, tid, pc, base, size))
        else:  # K_SPAWN
            batch.extend(RECORD.pack(K_SPAWN, tid, pc, ev.reg_writes[0][1], 0))
        if len(batch) >= self._flush_bytes:
            self.chunks.append(bytes(batch))
            del batch[:]

    def finish(self) -> "RecordStreamCapture":
        if self._skip:
            self._batch.extend(RECORD.pack(K_SKIP, 0, 0, self._skip, 0))
            self._skip = 0
        if self._batch:
            self.chunks.append(bytes(self._batch))
            del self._batch[:]
        return self

    def prime(self, kernel: PropagationKernel) -> PropagationKernel:
        """Register the captured templates into ``kernel``."""
        for pc, instr, reg_reads, reg_writes, channel in self.templates:
            kernel.register_template(pc, instr, reg_reads, reg_writes, channel)
        return kernel

    def patch_alerts(self, alerts: list[TaintAlert]) -> list[TaintAlert]:
        """Restore clamped sink values on replayed alerts."""
        if not self.fixups:
            return alerts
        return [
            replace(al, value=self.fixups[al.seq]) if al.seq in self.fixups else al
            for al in alerts
        ]


__all__ = [
    "ArrayKernel",
    "BatchEffects",
    "K_ALLOC",
    "K_CALL",
    "K_GENERIC",
    "K_IN",
    "K_LOAD",
    "K_RET",
    "K_SINK",
    "K_SKIP",
    "K_SPAWN",
    "K_STORE",
    "MAX_FIXPOINT",
    "PropagationKernel",
    "RECORD",
    "RECORD_SIZE",
    "RecordStreamCapture",
    "ReferenceKernel",
    "SMALL_BATCH",
    "build_kernel",
    "classify_opcode",
    "select_kernel",
]
