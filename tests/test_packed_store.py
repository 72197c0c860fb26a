"""Unit tests for the packed columnar dependence store.

Everything here holds the packed store to the record-object oracle
:class:`TraceBuffer` record for record: same surviving
records under eviction, same :class:`BufferStats` accounting (including
the shared ``eviction_passes`` counter), same window arithmetic — plus
the packed-only invariants (sentinel overflow round-trips, the
monotone-order fallback, epoch-keyed cache invalidation, deterministic
resident-byte accounting).
"""

import pytest

from repro.ontrac import (
    DepKind,
    DepRecord,
    OntracConfig,
    PackedDDG,
    PackedTraceBuffer,
    ROW_PAYLOAD_BYTES,
    TraceBuffer,
    build_ddg,
)
from repro.ontrac.packed import _MAX_CHUNK_ROWS, _SEED_CHUNK_ROWS
from repro.slicing import DEFAULT_KINDS, backward_slice, forward_slice
from repro.workloads.spec_like import matmul


def record_tuple(r):
    return (r.kind, r.consumer_seq, r.consumer_pc, r.producer_seq,
            r.producer_pc, r.tid, r.bytes)


def stats_tuple(stats):
    return (stats.appended, stats.appended_bytes, stats.evicted,
            stats.evicted_bytes, stats.peak_bytes, stats.eviction_passes)


def make_records(n, pc_base=0, tid=0):
    """A monotone, tracer-shaped record stream: one INSTR row per seq
    plus a REG edge back to the previous seq."""
    records = []
    for seq in range(n):
        records.append(DepRecord(DepKind.INSTR, seq, pc_base + seq % 97, tid=tid))
        if seq:
            records.append(
                DepRecord(DepKind.REG, seq, pc_base + seq % 97,
                          producer_seq=seq - 1, producer_pc=pc_base + (seq - 1) % 97,
                          tid=tid)
            )
    return records


def fill_both(records, capacity=1 << 20):
    legacy = TraceBuffer(capacity_bytes=capacity)
    packed = PackedTraceBuffer(capacity_bytes=capacity)
    for r in records:
        legacy.append(r)
        packed.append(r)
    return legacy, packed


# --- record/stats parity with the legacy buffer -----------------------------
def test_roundtrip_matches_legacy():
    legacy, packed = fill_both(make_records(1000))
    assert len(packed) == len(legacy)
    assert [record_tuple(r) for r in packed] == [record_tuple(r) for r in legacy]
    assert stats_tuple(packed.stats) == stats_tuple(legacy.stats)
    assert packed.oldest_seq == legacy.oldest_seq
    assert packed.newest_seq == legacy.newest_seq
    assert packed.window_instructions() == legacy.window_instructions()


@pytest.mark.parametrize("capacity", [64, 512, 4096])
def test_eviction_matches_legacy(capacity):
    legacy, packed = fill_both(make_records(2000), capacity=capacity)
    assert [record_tuple(r) for r in packed] == [record_tuple(r) for r in legacy]
    assert stats_tuple(packed.stats) == stats_tuple(legacy.stats)
    assert packed.stats.evicted > 0
    assert packed.window_instructions() == legacy.window_instructions()
    for seq in (0, legacy.oldest_seq - 1, legacy.oldest_seq, legacy.newest_seq):
        assert packed.covers_seq(seq) == legacy.covers_seq(seq)


def test_records_view_indexing():
    _, packed = fill_both(make_records(700))
    view = packed.records
    assert record_tuple(view[0]) == record_tuple(next(iter(packed)))
    assert record_tuple(view[-1]) == record_tuple(list(packed)[-1])
    assert record_tuple(view[len(view) - 1]) == record_tuple(view[-1])
    with pytest.raises(IndexError):
        view[len(view)]


def test_chunk_growth_and_spans():
    _, packed = fill_both(make_records(3 * _MAX_CHUNK_ROWS))
    assert packed.chunk_count > 1
    caps = [c.cap for c in packed.live_chunks()]
    assert caps[0] == _SEED_CHUNK_ROWS and caps[-1] == _MAX_CHUNK_ROWS
    # Every seq's rows are found exactly once, even across chunk seams.
    for seq in (0, 1, _SEED_CHUNK_ROWS, _MAX_CHUNK_ROWS, packed.newest_seq):
        rows = [c.record_at(r)
                for c, lo, hi in packed.consumer_spans(seq)
                for r in range(lo, hi)]
        assert rows, seq
        assert all(r.consumer_seq == seq for r in rows)
        expected = 1 if seq == 0 else 2  # INSTR + REG back-edge
        assert len(rows) == expected


def test_sentinel_overflow_roundtrip():
    big_pc = 1 << 20      # exceeds the 16-bit pc column
    big_tid = 1 << 17     # exceeds the 16-bit tid column
    packed = PackedTraceBuffer()
    packed.append(DepRecord(DepKind.INSTR, 0, big_pc, tid=big_tid))
    packed.append(DepRecord(DepKind.INSTR, 1, 3, tid=1))
    # Negative delta (producer after consumer) must take the overflow slot.
    packed.append(DepRecord(DepKind.MEM, 2, big_pc + 1,
                            producer_seq=50, producer_pc=big_pc + 2, tid=big_tid))
    got = [record_tuple(r) for r in packed]
    assert got == [
        (DepKind.INSTR, 0, big_pc, -1, -1, big_tid, 4),
        (DepKind.INSTR, 1, 3, -1, -1, 1, 4),
        (DepKind.MEM, 2, big_pc + 1, 50, big_pc + 2, big_tid, 8),
    ]
    # The flat edge view decodes the same overflow values.
    ranges, kinds, pseqs, ppcs = packed.flat_edges()
    lo, hi = ranges[2]
    assert pseqs[lo] == 50 and ppcs[lo] == big_pc + 2


def test_monotone_fallback_still_answers_queries():
    records = make_records(300)
    legacy, _ = fill_both(records)
    packed = PackedTraceBuffer()
    shuffled = records[50:] + records[:50]  # out-of-order direct appends
    for r in shuffled:
        packed.append(r)
    assert not packed.monotone
    ddg = PackedDDG(packed)
    assert not ddg.indexable
    # Queries fall back to the materialized legacy graph and still work.
    ref = build_ddg(legacy)
    sl_ref = backward_slice(ref, 200)
    sl = backward_slice(ddg, 200)
    assert (sl.seqs, sl.pcs, sl.truncated) == (sl_ref.seqs, sl_ref.pcs, sl_ref.truncated)


def test_epoch_invalidates_ddg_caches_and_flat_view():
    _, packed = fill_both(make_records(100))
    ddg = PackedDDG(packed)
    flat1 = packed.flat_edges()
    assert packed.flat_edges() is flat1  # cached while quiescent
    before = backward_slice(ddg, 99)
    packed.append(DepRecord(DepKind.REG, 100, 7, producer_seq=40, producer_pc=40 % 97))
    assert packed.flat_edges() is not flat1
    after = backward_slice(ddg, 100)  # same DDG object follows the buffer
    assert 100 in after.seqs and 40 in after.seqs  # new edge is visible
    assert after.seqs == {100} | backward_slice(ddg, 40).seqs
    # Prior results are unaffected by the append.
    again = backward_slice(ddg, 99)
    assert (again.seqs, again.pcs) == (before.seqs, before.pcs)


def test_resident_bytes_is_deterministic_column_payload():
    _, packed = fill_both(make_records(1000))
    expected = sum(c.cap * ROW_PAYLOAD_BYTES for c in packed.live_chunks())
    assert packed.resident_bytes() == expected
    packed.release()
    assert packed.resident_bytes() == 0
    assert len(packed) == 0


def test_tracer_integration_matches_legacy_store():
    # The tracer's row stream replayed into the TraceBuffer oracle at a
    # window small enough to evict must leave exactly the rows the
    # tracer's packed buffer kept, and slice identically through
    # build_ddg + the BFS slicer.
    window = 2048
    _, full, _ = matmul(4).runner().run_traced(OntracConfig())
    _, tracer, _ = matmul(4).runner().run_traced(OntracConfig(buffer_bytes=window))
    legacy = TraceBuffer(capacity_bytes=window)
    for r in full.buffer:
        legacy.append(DepRecord(r.kind, r.consumer_seq, r.consumer_pc,
                                r.producer_seq, r.producer_pc, r.tid))
    assert isinstance(tracer.buffer, PackedTraceBuffer)
    assert legacy.stats.evicted > 0
    assert [record_tuple(r) for r in tracer.buffer] == \
        [record_tuple(r) for r in legacy]
    assert stats_tuple(tracer.buffer.stats) == stats_tuple(legacy.stats)
    ddg = tracer.dependence_graph()
    ref = build_ddg(legacy, complete=False)
    assert isinstance(ddg, PackedDDG) and ddg.indexable
    crit = max(ref.nodes)
    for slicer in (backward_slice, forward_slice):
        a, b = slicer(ddg, crit, DEFAULT_KINDS), slicer(ref, crit, DEFAULT_KINDS)
        assert (a.seqs, a.pcs, a.truncated) == (b.seqs, b.pcs, b.truncated)


# --- eviction-stats symmetry between the two overflow entry points ----------
def _overflow_stats(use_direct_path):
    """Same over-capacity stream through append() vs direct-append +
    evict_overflow(); the BufferStats must come out identical."""
    buf = TraceBuffer(capacity_bytes=64)
    for r in make_records(100):
        if use_direct_path:
            buf.records.append(r)
            buf.current_bytes += r.bytes
            stats = buf.stats
            stats.appended += 1
            stats.appended_bytes += r.bytes
            if buf.current_bytes > stats.peak_bytes:
                stats.peak_bytes = buf.current_bytes
            buf.evict_overflow()
        else:
            buf.append(r)
    return buf


def test_eviction_stats_symmetric_across_entry_points():
    via_append = _overflow_stats(use_direct_path=False)
    via_direct = _overflow_stats(use_direct_path=True)
    assert stats_tuple(via_append.stats) == stats_tuple(via_direct.stats)
    assert via_append.stats.eviction_passes > 0
    assert [record_tuple(r) for r in via_append] == \
        [record_tuple(r) for r in via_direct]
