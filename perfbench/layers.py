"""Per-layer prices, measured from outside by differencing runs.

Each experiment adds one public piece to the previous one — plain VM,
then a no-op ``Hook``, then ``RecordStreamCapture``, then
``propagate_batch`` over the captured stream, and so on — and prices
the layer the piece adds.  All times are reference-normalized medians
of a few repetitions (see :mod:`hostref`).  Only the traced run
(``--trace 1``) runs these.
"""

from __future__ import annotations

import os
import statistics
from multiprocessing import resource_tracker

from repro.dift import PCTaintPolicy, RecordStreamCapture, build_kernel
from repro.dift.kernel import RECORD_SIZE
from repro.lake import TraceLake, edge_signatures, open_spill
from repro.lang import compile_source
from repro.multicore.parallel import ParallelHelperDIFT
from repro.ontrac import PackedTraceBuffer
from repro.ontrac.records import KIND_CODES
from repro.service.protocol import FrameAssembler, encode
from repro.telemetry import MetricsRegistry
from repro.vm import Hook

from gen import MAX_INSTRUCTIONS
from phases import _runner, run_dift, run_ontrac, run_plain

REPS = 3


class NoopHook(Hook):
    """Subscribes to the event bus and does nothing: prices the bus."""

    def on_instruction(self, ev) -> None:
        pass


def _median_norm(clock, fn, *args, reps=REPS):
    """(median normalized seconds, result of the last repetition)."""
    times = []
    res = None
    for _ in range(reps):
        res = None  # hold no earlier result while the next one runs
        sample, res = clock.time(fn, *args)
        times.append(sample.norm)
    return statistics.median(times), res


def _sum_programs(clock, progs, fn):
    """Median normalized seconds of ``fn(p)``, summed over programs."""
    total = 0.0
    results = []
    for p in progs:
        t, res = _median_norm(clock, fn, p)
        total += t
        results.append(res)
    return total, results


def _hooked(p):
    m = _runner(p).machine()
    m.hooks.subscribe(NoopHook())
    return m.run(max_instructions=MAX_INSTRUCTIONS)


def _captured(p):
    m = _runner(p).machine()
    cap = RecordStreamCapture().attach(m)
    m.run(max_instructions=MAX_INSTRUCTIONS)
    return cap.finish()


def _propagate(cap):
    kernel = cap.prime(build_kernel("array", PCTaintPolicy()))
    for chunk in cap.chunks:
        kernel.propagate_batch(chunk)
    return kernel


def _parallel(p):
    m = _runner(p).machine()
    helper = ParallelHelperDIFT(PCTaintPolicy()).attach(m)
    m.run(max_instructions=MAX_INSTRUCTIONS)
    return helper.finish()


def _append_rows(rows):
    buf = PackedTraceBuffer()
    append = buf.append_row
    for row in rows:
        append(*row)
    return buf


def _interleaved(clock, progs, variants: dict, reps: int = 5):
    """Per variant, the median normalized seconds of each program,
    summed over programs, and the last result per program.  The variants
    of one program run back to back in every repetition, so a slow
    spell of the host hits all of them and drops out of differences."""
    totals = dict.fromkeys(variants, 0.0)
    last = {name: [] for name in variants}
    for p in progs:
        times = {name: [] for name in variants}
        for rep in range(reps):
            for name, fn in variants.items():
                sample, res = clock.time(fn, p)
                times[name].append(sample.norm)
                if rep == reps - 1:
                    last[name].append(res)
                res = None
        for name in variants:
            totals[name] += statistics.median(times[name])
    return totals, last


def vm_layers(progs, clock, spans) -> dict:
    """vm, vm.events, dift.*, multicore.parallel, ontrac.* prices."""
    t, last = _interleaved(clock, progs, {
        "plain": lambda p: run_plain(p, spans),
        "hook": _hooked,
        "capture": _captured,
        "dift": lambda p: run_dift(p, spans),
        "summaries": lambda p: run_dift(p, spans, summaries=True),
        "ontrac": lambda p: run_ontrac(p, spans),
    })
    instr = sum(r["instructions"] for r in last["plain"])
    caps = last["capture"]
    kern_t, _ = _sum_programs(clock, caps, _propagate)
    records = sum(sum(len(c) for c in cap.chunks) // RECORD_SIZE for cap in caps)
    hits = learned = 0
    for res in last["summaries"]:
        registry = MetricsRegistry(enabled=True)
        res["engine"].publish_telemetry(registry)
        flat = registry.flat()
        hits += flat.get("dift.summaries.hits", 0)
        learned += flat.get("dift.summaries.learned", 0)
    # The helper's shared-memory ring starts multiprocessing's resource
    # tracker: start it before the timed samples and stop it, waiting for
    # it to end, after them, so no process outlives this layer.
    resource_tracker.ensure_running()
    try:
        par_t, _ = _sum_programs(clock, progs, _parallel)
    finally:
        resource_tracker._resource_tracker._stop()
    onts = last.pop("ontrac")
    rows = sum(r["rows"] for r in onts)
    row_lists = [
        [
            (KIND_CODES[r.kind], r.consumer_seq, r.consumer_pc,
             r.producer_seq, r.producer_pc, r.tid)
            for r in res["tracer"].buffer
        ]
        for res in onts
    ]
    del onts
    app_t, _ = _sum_programs(clock, row_lists, _append_rows)
    return {
        "vm.ns_per_instr": (t["plain"] / instr * 1e9, "ns"),
        "vm.instructions": (instr, "count"),
        "vm.events.hook_ns_per_instr": ((t["hook"] - t["plain"]) / instr * 1e9, "ns"),
        "dift.engine.pack_ns_per_instr": ((t["capture"] - t["hook"]) / instr * 1e9, "ns"),
        "dift.kernel.ns_per_record": (kern_t / max(records, 1) * 1e9, "ns"),
        "dift.kernel.records": (records, "count"),
        "dift.shadow.tainted_peak": (sum(r["tainted_peak"] for r in last["dift"]), "count"),
        "dift.summaries.kips": (instr / t["summaries"] / 1e3, "kips"),
        "dift.summaries.hit_rate": (hits / max(hits + learned, 1), "ratio"),
        "dift.summaries.speedup": (t["dift"] / t["summaries"], "ratio"),
        "multicore.parallel.kips": (instr / par_t / 1e3, "kips"),
        "ontrac.tracer.emit_ns_per_instr": ((t["ontrac"] - t["hook"]) / instr * 1e9, "ns"),
        "ontrac.tracer.rows_per_instr": (rows / instr, "ratio"),
        "ontrac.packed.append_ns_per_row": (app_t / max(rows, 1) * 1e9, "ns"),
    }


def lake_layers(stored, corpus_lake, workdir, clock, spans) -> dict:
    """lake.format, lake.store, ontrac.packed decode and lake.query prices."""
    lake = TraceLake(os.path.join(workdir, "lake-layers"))
    spill_path = os.path.join(workdir, "layers.rlk")
    mem, spill = [], []
    for _ in range(2 * REPS):  # interleaved, so a slow spell hits both sides
        sample, res = clock.time(lambda: run_ontrac(stored, spans))
        mem.append(sample.norm)
        instr = res["instructions"]
        res = None
        sample, _ = clock.time(lambda: run_ontrac(stored, spans, spill_path=spill_path))
        spill.append(sample.norm)
    mem_t, spill_t = statistics.median(mem), statistics.median(spill)
    finish = []
    for _ in range(REPS):
        pending = lake.begin_run(program=stored.name)
        res = run_ontrac(stored, spans, spill_path=pending.spill_path)
        sample, _ = clock.time(
            lambda: pending.finish(tracer=res["tracer"], compiled=stored.compiled)
        )
        finish.append(sample.norm)
    del res
    path = pending.spill_path
    open_t, run = _median_norm(clock, open_spill, path)
    rows = run.rows
    run.close()

    def decode(run):
        """The whole-run decoding a first query pays: the flat edge
        view and the node tables, built from every stored row."""
        ddg = run.ddg()
        run.buffer.flat_edges()
        ddg.has_node(run.buffer.newest_seq)

    decode_times = []
    for _ in range(REPS):
        run = open_spill(path)
        sample, _ = clock.time(decode, run)
        decode_times.append(sample.norm)
        run.close()
    decode_t = statistics.median(decode_times)

    def signatures():
        for failing, passing, _ in corpus_lake.runs.values():
            for rid in (failing, *passing):
                with corpus_lake.lake.open(rid) as r:
                    edge_signatures(r, corpus_lake.lake.manifest(rid))

    sig_t, _ = _median_norm(clock, signatures)
    return {
        "lake.format.spill_ns_per_instr": ((spill_t - mem_t) / instr * 1e9, "ns"),
        "lake.format.open_ms": (open_t * 1e3, "ms"),
        "lake.format.bytes_per_row": (os.path.getsize(path) / max(rows, 1), "bytes"),
        "lake.store.finish_ms": (statistics.median(finish) * 1e3, "ms"),
        "ontrac.packed.decode_ms": (decode_t * 1e3, "ms"),
        "lake.query.edge_signatures_ms": (sig_t * 1e3, "ms"),
    }


def compile_layer(source: str, clock) -> dict:
    t, _ = _median_norm(clock, compile_source, source, reps=5)
    return {"lang.compile_ms": (t * 1e3, "ms")}


def protocol_layer(responses: list, clock) -> dict:
    """Frame encode + incremental decode of real service responses."""

    def frames():
        asm = FrameAssembler()
        for resp in responses:
            asm.feed(encode(resp))
            asm.next_frame()

    t, _ = _median_norm(clock, frames, reps=5)
    return {"service.protocol.frame_us": (t / max(len(responses), 1) * 1e6, "us")}
