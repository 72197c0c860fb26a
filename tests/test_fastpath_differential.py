"""Differential proof that every execution layer matches its oracle.

Each layer has one production implementation, and this suite checks it
against an independent one on every workload family in
:mod:`repro.workloads`:

* **VM** — a run with a hook subscribed (every step builds and
  publishes its ``InstrEvent``) must end in exactly the state of a
  plain run: the RunResult (status, instruction count, modeled cycles,
  failure info, schedule) and the final VM state (per-thread
  registers, memory cells, io streams).  Tracing may add overhead
  cycles and nothing else.
* **ONTRAC** — the dependence graph and every backward/forward slice
  must equal the offline two-phase tracer's
  (:mod:`repro.ontrac.offline`) under both the default and the naive
  config.  The packed store's rows and byte accounting must equal the
  record-object oracle (:class:`~repro.ontrac.buffer.TraceBuffer` fed
  the same rows), and windowed or WAR/WAW slices must equal the BFS
  slicer over :func:`~repro.ontrac.ddg.build_ddg` of that oracle.
* **DIFT** — the engine as shipped (the array kernel when numpy is
  importable) must match :class:`~repro.dift.kernel.ReferenceKernel`:
  taint state, alerts, stats and the run itself.
"""

from dataclasses import replace

import pytest

from repro.dift import BoolTaintPolicy, DIFTEngine, SinkRule
from repro.ontrac import (
    TRACE_FORMATION_BYTES,
    DepKind,
    DepRecord,
    OfflineTracer,
    OntracConfig,
    TraceBuffer,
    build_ddg,
)
from repro.tm import Resolution, TMConfig, TransactionalMonitor
from repro.vm import Hook
from repro.workloads import (
    GeneratorConfig,
    build_server,
    call_heavy,
    corpus,
    generate,
    lineage_suite,
    race_kernels,
    suite,
)
from repro.workloads.splash_like import tm_kernels

SPEC = suite()
# Small call-heavy trio: the DIFT side runs through the function-summary
# kernel (learn / hit / variant / fallback paths).
CALLS = [
    call_heavy(0, iterations=12, stmts=8, name="calls-p0"),
    call_heavy(10, iterations=12, stmts=8, name="calls-p10"),
    call_heavy(2, iterations=12, stmts=8, name="calls-p50"),
]
BUGGY = corpus()
RACES = race_kernels()
LINEAGE = lineage_suite()
GEN_SEEDS = list(range(10))

_name = lambda w: w.name  # noqa: E731


# --- canonical observable state --------------------------------------------
def _vm_state(m, res, overhead=True):
    """Everything observable about one finished run, as comparable data."""
    failure = res.failure
    return (
        res.status,
        res.instructions,
        res.cycles.base,
        res.cycles.overhead if overhead else None,
        tuple(res.schedule),
        None
        if failure is None
        else (failure.kind, failure.tid, failure.pc, failure.seq, failure.message),
        tuple(
            (t.tid, t.pc, tuple(t.regs), t.status, t.result, t.instructions)
            for t in m.threads
        ),
        tuple(sorted(m.memory.cells.items())),
        tuple(sorted((ch, tuple(vals)) for ch, vals in m.io.outputs.items())),
    )


# --- VM: hooked run vs plain run ---------------------------------------------
class _EventLog(Hook):
    """Forces every step to build and publish its InstrEvent."""

    def __init__(self):
        self.seqs = []

    def on_instruction(self, ev):
        self.seqs.append(ev.seq)


def assert_hooks_invisible(make_runner):
    """A hooked run ends in the plain run's state, and its event stream
    numbers the executed instructions densely from 0."""
    log = _EventLog()
    hooked = _vm_state(*make_runner().run(hooks=(log,)))
    assert hooked == _vm_state(*make_runner().run())
    assert log.seqs == list(range(len(log.seqs)))
    assert len(log.seqs) >= hooked[1]


# --- ONTRAC: packed tracer vs offline tracer and the record oracle -----------
#: the offline tracer stores no inference kinds: its REG/MEM edges are
#: the ones ONTRAC keeps as zero-byte IREG/IMEM.
_AS_OFFLINE = {DepKind.IREG: DepKind.REG, DepKind.IMEM: DepKind.MEM}


def _edges(ddg):
    """Edge set in offline kinds (WAR/WAW are an ONTRAC-only extension)."""
    return {
        (consumer, producer, _AS_OFFLINE.get(kind, kind))
        for consumer, deps in ddg.backward.items()
        for producer, kind in deps
        if kind not in (DepKind.WAR, DepKind.WAW)
    }


def _offline_ddg(runner):
    m = runner.machine()
    offline = OfflineTracer(runner.program).attach(m)
    m.run(max_instructions=runner.max_instructions)
    return offline.postprocess()


def _record_oracle(rows, capacity):
    """``rows`` replayed into the TraceBuffer oracle (oldest-first
    eviction by modeled bytes)."""
    buf = TraceBuffer(capacity)
    for r in rows:
        buf.append(
            DepRecord(r.kind, r.consumer_seq, r.consumer_pc,
                      r.producer_seq, r.producer_pc, r.tid)
        )
    return buf


def _buffer_state(buf):
    s = buf.stats
    return (
        [
            (r.kind, r.consumer_seq, r.consumer_pc, r.producer_seq,
             r.producer_pc, r.tid, r.bytes)
            for r in buf.records
        ],
        (s.appended, s.appended_bytes, s.evicted, s.evicted_bytes, s.peak_bytes),
        buf.window_instructions(),
    )


def assert_traced_matches_oracles(make_runner, config=None):
    config = config or OntracConfig()
    m, tracer, res = make_runner().run_traced(config)
    stats = tracer.stats
    # Tracing changes the run only by the overhead it charges.
    plain = _vm_state(*make_runner().run(), overhead=False)
    assert _vm_state(m, res, overhead=False) == plain
    assert res.cycles.overhead == (
        stats.instructions * config.stub_cycles
        + stats.stored_bytes * config.cycles_per_byte
    )
    # Stored rows and byte accounting: packed buffer == record oracle.
    oracle = _record_oracle(tracer.buffer.records, config.buffer_bytes)
    assert _buffer_state(tracer.buffer) == _buffer_state(oracle)
    assert stats.stored_bytes == (
        oracle.stats.appended_bytes + stats.hot_traces * TRACE_FORMATION_BYTES
    )
    per_kind = {}
    for r in oracle.records:
        per_kind[r.kind.value] = per_kind.get(r.kind.value, 0) + 1
    assert per_kind == stats.stored
    # The graph equals the offline two-phase tracer's, edge for edge.
    ddg = tracer.dependence_graph()
    offline = _offline_ddg(make_runner())
    assert ddg.complete
    assert _edges(ddg) == _edges(offline)
    assert all(offline.pc_of(seq) == pc for seq, pc in ddg.node_items())
    if config.naive:  # one INSTR record per instruction: same node set
        assert sorted(ddg.node_items()) == sorted(offline.node_items())


# --- DIFT: engine as shipped vs the reference kernel --------------------------
def _dift_state(runner, **engine_kw):
    m = runner.machine()
    engine = DIFTEngine(
        BoolTaintPolicy(), sinks=[SinkRule(kind="out", action="record")], **engine_kw
    ).attach(m)
    res = m.run(max_instructions=runner.max_instructions)
    shadow = engine.shadow
    return (
        _vm_state(m, res),
        tuple(sorted(shadow.mem_items().items())),
        tuple(sorted(shadow.regs.items())),
        tuple(str(alert) for alert in engine.alerts),
        (engine.stats.instructions, engine.stats.tainted_instructions,
         engine.stats.sources, engine.stats.sink_checks),
    )


def assert_dift_matches_reference(make_runner, summaries=None):
    shipped = _dift_state(make_runner(), summaries=summaries)
    reference = _dift_state(make_runner(), kernel="reference", summaries=False)
    assert shipped == reference


# --- SPEC-like suite --------------------------------------------------------
@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_plain(w):
    assert_hooks_invisible(w.runner)


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_traced(w):
    assert_traced_matches_oracles(w.runner)


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_traced_naive(w):
    # Naive mode exercises the INSTR-record path the optimized config skips.
    assert_traced_matches_oracles(w.runner, OntracConfig.unoptimized())


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_dift(w):
    assert_dift_matches_reference(w.runner)


# --- call-heavy trio (function-summary coverage) ----------------------------
@pytest.mark.parametrize("w", CALLS, ids=_name)
def test_calls_plain(w):
    assert_hooks_invisible(w.runner)


@pytest.mark.parametrize("w", CALLS, ids=_name)
def test_calls_dift(w):
    assert_dift_matches_reference(w.runner, summaries=True)


# --- seeded-bug corpus ------------------------------------------------------
@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_failing(b):
    assert_hooks_invisible(lambda: b.runner(failing=True))


@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_passing(b):
    assert_hooks_invisible(lambda: b.runner(failing=False))


@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_failing_traced(b):
    assert_traced_matches_oracles(lambda: b.runner(failing=True))


# --- SPLASH-like race kernels ----------------------------------------------
@pytest.mark.parametrize("k", RACES, ids=_name)
def test_race_kernel_plain(k):
    assert_hooks_invisible(k.runner)


@pytest.mark.parametrize("k", RACES, ids=_name)
def test_race_kernel_traced(k):
    # WAR/WAW records are the multithreaded-slicing extension's path.
    assert_traced_matches_oracles(k.runner, OntracConfig(record_war_waw=True))


# --- scientific lineage workloads ------------------------------------------
@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_plain(w):
    assert_hooks_invisible(w.runner)


@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_dift(w):
    assert_dift_matches_reference(w.runner)


# --- server scenario --------------------------------------------------------
def _server_runner():
    scenario = build_server(workers=2, requests=60, seed=7)
    return scenario.runner()


def test_server_plain():
    assert_hooks_invisible(_server_runner)


def test_server_traced():
    assert_traced_matches_oracles(_server_runner)


def test_server_dift():
    assert_dift_matches_reference(_server_runner)


# --- generated programs -----------------------------------------------------
@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_plain(seed):
    g = generate(seed, GeneratorConfig(use_inputs=True))
    assert_hooks_invisible(g.runner)


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_traced(seed):
    g = generate(seed, GeneratorConfig(use_inputs=True))
    assert_traced_matches_oracles(g.runner)


# --- TM kernels -------------------------------------------------------------
# ParallelWorkloads are thread-op models driven by the TM monitor, not
# MiniC programs, so no VM, tracer or shadow code runs under them; the
# check is that the monitor itself is deterministic run to run.
@pytest.mark.parametrize("k", tm_kernels(), ids=_name)
def test_tm_kernel(k):
    def state():
        res = TransactionalMonitor(
            k, TMConfig(resolution=Resolution.SYNC_AWARE)
        ).run()
        return (res.completed, res.livelock, res.commits, res.aborts,
                res.monitored_cycles)

    assert state() == state()


# --- out-of-process parallel helper -----------------------------------------
# Three-way equivalence: the inline engine, the simulated helper core
# (HelperCoreDIFT), and the real worker process (ParallelHelperDIFT)
# must produce identical taint observables on every run.  Guest-side
# cycle accounting is excluded on purpose — the simulated helper bills
# channel costs to the machine while the real worker bills nothing —
# but everything DIFT *detects* has to match bit for bit.
from repro.multicore import HelperCoreDIFT, ParallelHelperDIFT  # noqa: E402


def _guest_obs(m, res):
    return (
        res.status,
        res.instructions,
        tuple(res.schedule),
        tuple(
            (t.tid, t.pc, tuple(t.regs), t.status, t.result, t.instructions)
            for t in m.threads
        ),
        tuple(sorted(m.memory.cells.items())),
        tuple(sorted((ch, tuple(vals)) for ch, vals in m.io.outputs.items())),
    )


def _taint_obs(tool):
    shadow = tool.shadow
    stats = tool.stats if hasattr(tool, "stats") else tool.engine.stats
    return (
        tuple(sorted(shadow.mem_items().items())),
        tuple(sorted(shadow.regs.items())),
        tuple(str(alert) for alert in tool.alerts),
        (stats.instructions, stats.tainted_instructions,
         stats.sources, stats.sink_checks),
    )


def _record_sinks():
    return [SinkRule(kind="out", action="record")]


def _three_way_states(make_runner):
    states = []
    for make_tool in (
        lambda m: DIFTEngine(BoolTaintPolicy(), sinks=_record_sinks()).attach(m),
        lambda m: HelperCoreDIFT(BoolTaintPolicy(), sinks=_record_sinks()).attach(m),
        lambda m: ParallelHelperDIFT(
            BoolTaintPolicy(), sinks=_record_sinks(), batch_size=64
        ).attach(m),
    ):
        runner = make_runner()
        m = runner.machine()
        tool = make_tool(m)
        res = m.run(max_instructions=runner.max_instructions)
        if isinstance(tool, ParallelHelperDIFT):
            tool.finish()
        states.append((_guest_obs(m, res), _taint_obs(tool)))
    return states


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_dift_three_way(w):
    inline, simulated, parallel = _three_way_states(w.runner)
    assert inline == simulated
    assert inline == parallel


def test_server_dift_three_way():
    inline, simulated, parallel = _three_way_states(_server_runner)
    assert inline == simulated
    assert inline == parallel


# --- slice equality: packed indexed engine vs the oracles --------------------
# The tests above prove the record stream and the graph; these prove the
# *query layer*: every backward and forward slice the indexed engine
# answers off the packed columns must equal the dict-walking BFS slicer's
# over the offline tracer's graph (full window) or over build_ddg of the
# record oracle (evicting window, WAR/WAW kinds the offline tracer lacks).
from repro.slicing import (  # noqa: E402
    backward_slice,
    forward_slice,
    multithreaded_backward_slice,
)


def _criteria(ddg, n_criteria=8):
    seqs = sorted(seq for seq, _ in ddg.node_items())
    return seqs[:: max(1, len(seqs) // n_criteria)][:n_criteria]


def _slice_states(ddg, crits, multithreaded=False):
    states = []
    for crit in crits + crits:  # repeats drive the packed closure memo
        bs = (multithreaded_backward_slice if multithreaded else backward_slice)(
            ddg, crit
        )
        fs = forward_slice(ddg, crit)
        states.append(
            (crit, tuple(sorted(bs.seqs)), tuple(sorted(bs.pcs)), bs.truncated,
             tuple(sorted(fs.seqs)), tuple(sorted(fs.pcs)))
        )
    return tuple(states)


def assert_slices_match_offline(make_runner):
    _, tracer, _ = make_runner().run_traced(OntracConfig())
    ddg = tracer.dependence_graph()
    assert ddg.indexable
    crits = _criteria(ddg)
    assert _slice_states(ddg, crits) == _slice_states(_offline_ddg(make_runner()), crits)


def assert_slices_match_record_oracle(make_runner, config, multithreaded=False):
    _, tracer, _ = make_runner().run_traced(config)
    # The emitted rows never depend on the window, so a run that keeps
    # them all feeds the oracle the stream the windowed buffer saw.
    _, full, _ = make_runner().run_traced(replace(config, buffer_bytes=1 << 40))
    oracle = _record_oracle(full.buffer.records, config.buffer_bytes)
    assert _buffer_state(tracer.buffer) == _buffer_state(oracle)
    ref = build_ddg(oracle, complete=oracle.stats.evicted == 0)
    ddg = tracer.dependence_graph()
    crits = _criteria(ddg)
    assert _slice_states(ddg, crits, multithreaded) == _slice_states(
        ref, crits, multithreaded
    )


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_slices(w):
    assert_slices_match_offline(w.runner)


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_slices_evicting_window(w):
    # A window small enough to evict exercises the truncation rule and
    # the packed store's head-offset eviction path.
    assert_slices_match_record_oracle(w.runner, OntracConfig(buffer_bytes=4096))


@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_failing_slices(b):
    assert_slices_match_offline(lambda: b.runner(failing=True))


@pytest.mark.parametrize("k", RACES, ids=_name)
def test_race_kernel_multithreaded_slices(k):
    assert_slices_match_record_oracle(
        k.runner, OntracConfig(record_war_waw=True), multithreaded=True
    )


@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_slices(w):
    assert_slices_match_offline(w.runner)


def test_server_slices():
    assert_slices_match_offline(_server_runner)


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_slices(seed):
    g = generate(seed, GeneratorConfig(use_inputs=True))
    assert_slices_match_offline(g.runner)
