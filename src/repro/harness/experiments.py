"""Experiment runners: one function per paper claim (E1..E12).

Each ``run_eN`` executes the experiment at a configurable scale and
returns an :class:`ExperimentResult` with the table the paper's claim
corresponds to, plus a ``headline`` dict of the scalar numbers
EXPERIMENTS.md quotes against the paper.  The pytest-benchmark files in
``benchmarks/`` call these same functions, so the printed tables and
the recorded numbers can never drift apart.

See DESIGN.md §4 for the claim -> experiment mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.faultavoid import FaultAvoidanceFramework, PatchFile
from ..apps.faultloc import SliceBasedFaultLocator, ValueReplacementRanker
from ..apps.lineage import LineageTracer, verify_against_reference
from ..apps.security import AttackMonitor, attack_corpus
from ..dift.engine import DIFTEngine
from ..dift.policy import BoolTaintPolicy
from ..multicore import HelperCoreDIFT, hardware_interconnect, shared_memory_channel
from ..ontrac import OfflineTracer, OnlineTracer, OntracConfig
from ..races import RaceDetector, SyncAwareRaceDetector, SyncHistory, SyncRecognizer
from ..reduction import CheckpointingLogger, ExecutionReducer
from ..runner import ProgramRunner
from ..slicing import backward_slice, find_implicit_dependences, relevant_slice
from ..telemetry import MetricsRegistry
from ..tm import Resolution, TMConfig, TransactionalMonitor
from ..util.tables import format_table
from ..workloads import (
    build_server,
    by_category,
    lineage_suite,
    race_kernels,
    suite,
    tm_kernels,
)
from ..isa.instructions import Opcode


@dataclass
class ExperimentResult:
    experiment: str
    claim: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    headline: dict[str, float] = field(default_factory=dict)
    #: flat counter/gauge snapshot from the experiment's subsystems.
    metrics: dict[str, float] = field(default_factory=dict)
    notes: str = ""
    #: host wall-clock seconds for the whole experiment (stamped by
    #: :func:`run_experiment`; 0.0 when the runner was called directly).
    #: Reported next to the modeled-cycle tables so the two currencies
    #: stay side by side and never get conflated.
    wall_time_s: float = 0.0

    def table(self) -> str:
        return format_table(self.headers, self.rows, title=f"{self.experiment}: {self.claim}")


# ---------------------------------------------------------------------------
# E1 — ONTRAC slowdown: online ~19x vs offline post-processing ~540x
# ---------------------------------------------------------------------------
def run_e1(scale: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E1",
        claim="online tracing ~19x avg vs ~540x offline post-processing (§2.1)",
        headers=["workload", "native cyc/instr", "online x", "offline x"],
    )
    online_xs, offline_xs = [], []
    for w in suite(scale):
        runner = w.runner()
        _, base = runner.run()
        base_cycles = base.cycles.base

        _, tracer, online = runner.run_traced(OntracConfig(hot_trace_threshold=20))
        online_x = online.cycles.total / base_cycles

        m = runner.machine()
        off = OfflineTracer(runner.program).attach(m)
        off_res = m.run()
        off.postprocess()
        offline_x = (off_res.cycles.base + off.stats.total_overhead_cycles) / base_cycles

        online_xs.append(online_x)
        offline_xs.append(offline_x)
        result.rows.append(
            [w.name, base_cycles / max(1, base.instructions), online_x, offline_x]
        )
    result.rows.append(
        ["average", "", sum(online_xs) / len(online_xs), sum(offline_xs) / len(offline_xs)]
    )
    result.headline = {
        "online_slowdown_avg": sum(online_xs) / len(online_xs),
        "offline_slowdown_avg": sum(offline_xs) / len(offline_xs),
        "paper_online": 19.0,
        "paper_offline": 540.0,
    }
    registry = MetricsRegistry()
    tracer.publish_telemetry(registry)  # last workload's online tracer
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E2 — bytes/instruction: 16 unoptimized -> 0.8 optimized, with ablation
# ---------------------------------------------------------------------------
def run_e2(scale: int = 1) -> ExperimentResult:
    configs = [
        ("naive", OntracConfig.unoptimized()),
        ("+intra-block", OntracConfig(infer_traces=False, elide_redundant_loads=False)),
        ("+traces", OntracConfig(elide_redundant_loads=False, hot_trace_threshold=20)),
        ("+redundant-loads", OntracConfig(hot_trace_threshold=20)),
        ("+input-filter", OntracConfig(hot_trace_threshold=20, input_forward_slice=True)),
    ]
    result = ExperimentResult(
        experiment="E2",
        claim="trace rate 16 B/instr naive -> 0.8 B/instr optimized (§2.1)",
        headers=["configuration"] + [w.name for w in suite(scale)] + ["average"],
    )
    averages = {}
    for label, config in configs:
        rates = []
        for w in suite(scale):
            _, tracer, _ = w.runner().run_traced(config)
            rates.append(tracer.stats.bytes_per_instruction)
        averages[label] = sum(rates) / len(rates)
        result.rows.append([label] + rates + [averages[label]])
    result.headline = {
        "naive_bytes_per_instr": averages["naive"],
        "optimized_bytes_per_instr": averages["+input-filter"],
        "paper_naive": 16.0,
        "paper_optimized": 0.8,
    }
    registry = MetricsRegistry()
    tracer.publish_telemetry(registry)  # fully-optimized config, last workload
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E3 — history window vs buffer size (paper: 20M instructions in 16MB)
# ---------------------------------------------------------------------------
def run_e3(buffer_sizes: tuple[int, ...] = (4096, 16384, 65536), scale: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E3",
        claim="a 16MB buffer holds ~20M instructions of history (§2.1)",
        headers=["buffer bytes", "window (instr)", "instr per KB", "extrapolated @16MB"],
    )
    # A long-running loop so every buffer size overflows and the window
    # is buffer-limited (as in the paper's long executions).
    from ..workloads.spec_like import hashloop

    w = hashloop(3000 * scale)
    per_kb = 0.0
    for cap in buffer_sizes:
        _, tracer, _ = w.runner().run_traced(
            OntracConfig(buffer_bytes=cap, hot_trace_threshold=20, input_forward_slice=True)
        )
        window = tracer.buffer.window_instructions()
        per_kb = window / (cap / 1024)
        result.rows.append([cap, window, per_kb, per_kb * 16 * 1024])
    result.headline = {
        "instr_per_kb": per_kb,
        "extrapolated_window_at_16mb": per_kb * 16 * 1024,
        "paper_window_at_16mb": 20_000_000.0,
    }
    registry = MetricsRegistry()
    tracer.publish_telemetry(registry)  # largest buffer size
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E4 — multicore DIFT overhead ~48% (hw interconnect) vs software channel
# ---------------------------------------------------------------------------
def run_e4(scale: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E4",
        claim="helper-core DIFT overhead ~48% for SPEC int (§2.1)",
        headers=["workload", "inline %", "hw channel %", "sw channel %", "hw stalls"],
    )
    hw_overheads, sw_overheads, inline_overheads = [], [], []
    for w in suite(scale):
        runner = w.runner()
        m_inline = runner.machine()
        DIFTEngine(BoolTaintPolicy(), sinks=[]).attach(m_inline)
        inline = m_inline.run()
        inline_pct = (inline.cycles.slowdown - 1.0) * 100

        reports = {}
        for name, channel in (("hw", hardware_interconnect()), ("sw", shared_memory_channel())):
            m = runner.machine()
            helper = HelperCoreDIFT(BoolTaintPolicy(), channel=channel).attach(m)
            m.run()
            reports[name] = helper.report()
        hw_pct = reports["hw"].overhead * 100
        sw_pct = reports["sw"].overhead * 100
        inline_overheads.append(inline_pct)
        hw_overheads.append(hw_pct)
        sw_overheads.append(sw_pct)
        result.rows.append([w.name, inline_pct, hw_pct, sw_pct, reports["hw"].stall_cycles])
    result.rows.append(
        [
            "average",
            sum(inline_overheads) / len(inline_overheads),
            sum(hw_overheads) / len(hw_overheads),
            sum(sw_overheads) / len(sw_overheads),
            "",
        ]
    )
    result.headline = {
        "hw_overhead_pct": sum(hw_overheads) / len(hw_overheads),
        "sw_overhead_pct": sum(sw_overheads) / len(sw_overheads),
        "inline_overhead_pct": sum(inline_overheads) / len(inline_overheads),
        "paper_overhead_pct": 48.0,
    }
    registry = MetricsRegistry()
    helper.publish_telemetry(registry)  # sw channel, last workload
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E5 — execution reduction (the MySQL case study's shape)
# ---------------------------------------------------------------------------
def run_e5(workers: int = 3, requests: int = 150, checkpoint_interval: int = 8000) -> ExperimentResult:
    scenario = build_server(workers=workers, requests=requests, busywork=10)
    runner = scenario.runner()

    _, base = runner.run()
    base_cycles = base.cycles.base

    m_log = runner.machine()
    logger = CheckpointingLogger(checkpoint_interval=checkpoint_interval).attach(m_log)
    log_res = m_log.run()
    log = logger.finalize()
    logging_x = log_res.cycles.slowdown

    m_trace = runner.machine()
    full_tracer = OnlineTracer(
        runner.program, OntracConfig.unoptimized(buffer_bytes=1 << 26)
    ).attach(m_trace)
    trace_res = m_trace.run()
    tracing_x = trace_res.cycles.slowdown
    full_deps = full_tracer.dependence_graph().edge_count

    reducer = ExecutionReducer(runner.program, log)
    outcome = reducer.reduce_and_trace(OntracConfig.unoptimized(buffer_bytes=1 << 26))
    replay_cycles = outcome.replay.result.cycles.total - (
        outcome.replay.result.cycles.base - outcome.replay.machine.cycles.base
    )
    reduced_deps = outcome.traced_dependences

    result = ExperimentResult(
        experiment="E5",
        claim="MySQL case study: 14.8s/16.8s/3736s/0.67s; 976M -> 3175 deps (§2.2)",
        headers=["quantity", "this repro", "paper"],
        rows=[
            ["original (cycles / s)", base_cycles, "14.8 s"],
            ["with logging (x)", logging_x, "1.14x (16.8 s)"],
            ["fully traced (x)", tracing_x, "252x (3736 s)"],
            ["reduced traced replay (fraction)", outcome.replayed_fraction, "4.5% (0.67 s)"],
            ["dependences full", full_deps, "976,000,000"],
            ["dependences reduced", reduced_deps, "3,175"],
            ["dep reduction factor", full_deps / max(1, reduced_deps), "307,000x"],
            ["relevant threads", len(outcome.plan.include_tids), "-"],
            ["failure reproduced", int(outcome.replay.reproduced_failure), "yes"],
        ],
    )
    result.headline = {
        "logging_slowdown": logging_x,
        "tracing_slowdown": tracing_x,
        "replayed_fraction": outcome.replayed_fraction,
        "dep_reduction": full_deps / max(1, reduced_deps),
        "reproduced": float(outcome.replay.reproduced_failure),
    }
    result.notes = (
        f"thread reduction kept {sorted(outcome.plan.include_tids)} of "
        f"{workers + 1} threads; fallback={outcome.fell_back_to_all_threads}"
    )
    registry = MetricsRegistry()
    logger.publish_telemetry(registry)
    outcome.publish_telemetry(registry)
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E6 — TM monitoring: naive livelocks, sync-aware doesn't (§2.2)
# ---------------------------------------------------------------------------
def run_e6() -> ExperimentResult:
    result = ExperimentResult(
        experiment="E6",
        claim="sync-aware conflict resolution avoids livelock, cuts overhead (§2.2)",
        headers=["kernel", "policy", "completed", "livelock", "aborts", "overhead x"],
    )
    livelocks = {"naive": 0, "sync_aware": 0}
    overheads = {"naive": [], "sync_aware": []}
    registry = MetricsRegistry()
    for kernel in tm_kernels():
        for policy in (Resolution.NAIVE, Resolution.SYNC_AWARE):
            res = TransactionalMonitor(kernel, TMConfig(resolution=policy)).run()
            if policy is Resolution.SYNC_AWARE:
                res.publish_telemetry(registry)
            livelocks[policy.value] += int(res.livelock)
            if res.completed:
                overheads[policy.value].append(res.overhead)
            result.rows.append(
                [
                    kernel.name,
                    policy.value,
                    int(res.completed),
                    int(res.livelock),
                    res.aborts,
                    res.overhead,
                ]
            )
    result.headline = {
        "naive_livelocks": float(livelocks["naive"]),
        "sync_aware_livelocks": float(livelocks["sync_aware"]),
        "sync_aware_overhead_avg": (
            sum(overheads["sync_aware"]) / max(1, len(overheads["sync_aware"]))
        ),
    }
    result.metrics = registry.flat()  # sync-aware runs, summed over kernels
    return result


# ---------------------------------------------------------------------------
# E7 — execution omission: relevant slices vs predicate switching (§3.1)
# ---------------------------------------------------------------------------
def run_e7() -> ExperimentResult:
    result = ExperimentResult(
        experiment="E7",
        claim="predicate switching exposes omission errors with few verifications (§3.1)",
        headers=[
            "bug", "plain slice has bug", "relevant size", "implicit size",
            "verifications", "implicit has bug",
        ],
    )
    found, total_verifications = 0, 0
    registry = MetricsRegistry()
    for bug in by_category("omission"):
        runner = bug.runner()
        machine, tracer, _ = runner.run_traced(OntracConfig(buffer_bytes=1 << 22))
        ddg = tracer.dependence_graph()
        out_pc = max(
            pc
            for pc in range(len(bug.compiled.program.code))
            if bug.compiled.program.code[pc].opcode is Opcode.OUT
        )
        criterion = ddg.last_instance_of_pc(out_pc)
        plain = backward_slice(ddg, criterion)
        plain_has = bool(plain.statement_lines(bug.compiled) & bug.bug_lines)
        rel = relevant_slice(ddg, runner.program, criterion)
        search = find_implicit_dependences(runner, ddg, out_pc)
        implicit_lines = {
            bug.compiled.line_of(pc) for pc in search.candidate_pcs if bug.compiled.line_of(pc)
        }
        has_bug = bool(implicit_lines & bug.bug_lines)
        found += int(has_bug)
        total_verifications += search.verifications
        registry.counter("slicing.verification_runs").inc(search.verifications)
        registry.counter("slicing.implicit_candidates").inc(len(search.candidate_seqs))
        registry.counter("slicing.relevant_slice_instances").inc(len(rel))
        result.rows.append(
            [
                bug.name,
                int(plain_has),
                len(rel),
                len(search.candidate_seqs),
                search.verifications,
                int(has_bug),
            ]
        )
    n = len(by_category("omission"))
    result.headline = {
        "omission_bugs_located": float(found),
        "omission_bugs_total": float(n),
        "avg_verifications": total_verifications / n,
    }
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E8 — value-replacement ranking (§3.1)
# ---------------------------------------------------------------------------
def run_e8(max_replacements: int = 300) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E8",
        claim="value replacement ranks faulty statements near the top (§3.1)",
        headers=["bug", "category", "ivmps", "tried", "bug line rank", "slice has bug"],
    )
    ranked_top2 = 0
    registry = MetricsRegistry()
    bugs = by_category("value") + by_category("omission")
    for bug in bugs:
        ranker = ValueReplacementRanker(
            bug.runner(),
            bug.compiled,
            bug.expected_output(),
            passing_runner=bug.runner(failing=False),
            max_replacements=max_replacements,
        )
        report = ranker.rank()
        rank = min((report.rank_of_line(line) or 99) for line in bug.bug_lines)
        try:
            locator = SliceBasedFaultLocator(bug.runner(), bug.compiled, bug.expected_output())
            slice_has = locator.locate().contains_bug(bug.bug_lines)
        except ValueError:
            slice_has = False
        ranked_top2 += int(rank <= 2)
        registry.counter("faultloc.ivmps").inc(len(report.ivmps))
        registry.counter("faultloc.replacements_tried").inc(report.replacements_tried)
        result.rows.append(
            [bug.name, bug.category, len(report.ivmps), report.replacements_tried,
             rank if rank < 99 else "-", int(slice_has)]
        )
    result.headline = {
        "bugs_ranked_top2": float(ranked_top2),
        "bugs_total": float(len(bugs)),
    }
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E9 — sync-aware race detection filters benign races (§3.1)
# ---------------------------------------------------------------------------
def run_e9() -> ExperimentResult:
    result = ExperimentResult(
        experiment="E9",
        claim="sync-aware filtering removes benign synchronization races (§3.1)",
        headers=["kernel", "candidates", "baseline reported", "sync-aware reported",
                 "filtered", "true races found"],
    )
    total_filtered = 0
    registry = MetricsRegistry()
    for kernel in race_kernels():
        runner = kernel.runner()
        machine = runner.machine()
        tracer = OnlineTracer(
            runner.program, OntracConfig(buffer_bytes=1 << 23, record_war_waw=True)
        ).attach(machine)
        logger = CheckpointingLogger(checkpoint_interval=1 << 30).attach(machine)
        recognizer = SyncRecognizer()
        machine.hooks.subscribe(recognizer)
        machine.run(max_instructions=runner.max_instructions)
        log = logger.finalize()

        ddg = tracer.dependence_graph()
        history = SyncHistory.from_event_log(log)
        detector = RaceDetector(ddg, history)
        baseline = detector.races()
        aware = SyncAwareRaceDetector(detector, recognizer.flag_syncs).detect()
        aware.publish_telemetry(registry)

        reported_lines = {
            kernel.compiled.line_of(pc)
            for r in aware.reported
            for pc in (r.dependence.consumer_pc, r.dependence.producer_pc)
            if kernel.compiled.line_of(pc)
        }
        true_found = bool(reported_lines & kernel.racy_lines) if kernel.racy_lines else (
            not aware.reported
        )
        filtered = len(baseline) - len(aware.reported)
        total_filtered += max(0, filtered)
        result.rows.append(
            [
                kernel.name,
                aware.baseline_count,
                len(baseline),
                len(aware.reported),
                filtered,
                int(true_found),
            ]
        )
    result.headline = {"benign_races_filtered": float(total_filtered)}
    result.metrics = registry.flat()  # summed over kernels
    return result


# ---------------------------------------------------------------------------
# E10 — fault avoidance for the three environment-fault classes (§3.2)
# ---------------------------------------------------------------------------
def run_e10() -> ExperimentResult:
    result = ExperimentResult(
        experiment="E10",
        claim="atomicity / heap-overflow / malformed-request faults avoided (§3.2)",
        headers=["bug", "class", "avoided", "strategy", "attempts", "future run clean"],
    )
    avoided = 0
    registry = MetricsRegistry()
    patch_file = PatchFile()
    framework = FaultAvoidanceFramework(patch_file)
    bugs = by_category("atomicity") + by_category("overflow") + by_category("malformed")
    for bug in bugs:
        runner = bug.runner()
        outcome = framework.avoid(runner)
        clean = False
        if outcome.avoided:
            _, protected, _ = patch_file.protected_run(
                runner, outcome.failure_kind, outcome.failure_pc
            )
            clean = not protected.failed
        avoided += int(outcome.avoided and clean)
        registry.counter("faultavoid.attempts").inc(len(outcome.attempts))
        registry.counter("faultavoid.avoided").inc(int(outcome.avoided))
        registry.counter("faultavoid.clean_reruns").inc(int(clean))
        result.rows.append(
            [
                bug.name,
                bug.category,
                int(outcome.avoided),
                outcome.patch.strategy if outcome.patch else "-",
                len(outcome.attempts),
                int(clean),
            ]
        )
    result.headline = {"faults_avoided": float(avoided), "faults_total": float(len(bugs))}
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E11 — attack detection + PC-taint root cause (§3.3)
# ---------------------------------------------------------------------------
def run_e11() -> ExperimentResult:
    result = ExperimentResult(
        experiment="E11",
        claim="attacks detected; PC taint names the root-cause statement (§3.3)",
        headers=["scenario", "benign clean", "detected", "stopped", "culprit line",
                 "root cause named"],
    )
    detected_count, named_count = 0, 0
    registry = MetricsRegistry()
    for scenario in attack_corpus():
        benign = AttackMonitor.for_scenario(scenario).monitor(
            scenario.runner(attack=False), scenario.compiled, scenario.name
        )
        attack = AttackMonitor.for_scenario(scenario).monitor(
            scenario.runner(attack=True), scenario.compiled, scenario.name
        )
        named = attack.culprit_line in scenario.root_cause_lines
        detected_count += int(attack.detected)
        named_count += int(named)
        registry.counter("security.scenarios").inc()
        registry.counter("security.attacks_detected").inc(int(attack.detected))
        registry.counter("security.stopped_by_dift").inc(int(attack.stopped_by_dift))
        registry.counter("security.root_causes_named").inc(int(named))
        result.rows.append(
            [
                scenario.name,
                int(not benign.detected),
                int(attack.detected),
                int(attack.stopped_by_dift),
                attack.culprit_line,
                int(named),
            ]
        )
    n = len(attack_corpus())
    result.headline = {
        "attacks_detected": float(detected_count),
        "root_causes_named": float(named_count),
        "scenarios": float(n),
    }
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# E12 — lineage: slowdown <40x, memory ~300%, roBDD vs naive (§3.4)
# ---------------------------------------------------------------------------
def run_e12(scale: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E12",
        claim="lineage tracing <40x slowdown, ~300% memory; roBDD beats naive sets (§3.4)",
        headers=["workload", "repr", "exact lineage", "slowdown x", "mem overhead x",
                 "set bytes", "union cycles"],
    )
    from ..workloads.scientific import cumulative_sum

    workloads = lineage_suite()
    if scale > 1:
        workloads.append(cumulative_sum(n=200 * scale))
    slowdowns = []
    mem_ratio_on_overlapping = 1.0
    registry = MetricsRegistry()
    for w in workloads:
        per_repr = {}
        for representation in ("naive", "robdd"):
            tracer = LineageTracer(representation=representation)
            trace = tracer.trace(w.runner())
            matches, _ = verify_against_reference(trace, w.expected_lineage)
            # charge modeled union cycles into the slowdown figure
            slow = (
                trace.result.cycles.total + trace.union_cycles
            ) / trace.result.cycles.base
            per_repr[representation] = trace
            if representation == "robdd":
                slowdowns.append(slow)
                registry.counter("lineage.union_cycles").inc(trace.union_cycles)
                registry.gauge("lineage.shadow_set_bytes.peak").set_max(
                    trace.shadow_set_bytes
                )
                registry.gauge("lineage.memory_overhead.peak").set_max(
                    trace.memory_overhead
                )
            result.rows.append(
                [
                    w.name,
                    representation,
                    f"{matches}/{w.n_outputs}",
                    slow,
                    trace.memory_overhead,
                    trace.shadow_set_bytes,
                    trace.union_cycles,
                ]
            )
        if w.name == "cumulative-sum":
            mem_ratio_on_overlapping = per_repr["naive"].shadow_set_bytes / max(
                1, per_repr["robdd"].shadow_set_bytes
            )
    result.headline = {
        "robdd_slowdown_max": max(slowdowns),
        "paper_slowdown_bound": 40.0,
        "naive_over_robdd_memory_on_overlapping_sets": mem_ratio_on_overlapping,
    }
    result.metrics = registry.flat()  # roBDD representation, all workloads
    return result


# ---------------------------------------------------------------------------
# Batch propagation kernel — array vs reference throughput, bit-identical
# ---------------------------------------------------------------------------
def run_kernel(scale: int = 2, repeats: int = 5) -> ExperimentResult:
    """Propagation throughput of the vectorized
    :class:`~repro.dift.kernel.ArrayKernel` vs the pure-python
    :class:`~repro.dift.kernel.ReferenceKernel` over identical captured
    record streams.

    Each workload's packed record stream (the ring wire format) is
    captured once; both kernels then consume the very same chunks, so
    the comparison isolates propagation itself from VM execution.
    Alerts, stats, shadow taint sets and the peak-location high-water
    mark are asserted identical per workload; the headline speedup is
    aggregate propagation throughput (records/s over the whole suite,
    min-over-``repeats`` per side).  Without numpy the array side runs
    the reference kernel (``numpy_available`` records which case ran)
    and the speedup degenerates to ~1.
    """
    import time

    from .. import fastpath
    from ..dift.engine import SinkRule
    from ..dift.kernel import RECORD_SIZE, RecordStreamCapture, build_kernel
    from ..dift.policy import BoolTaintPolicy as _Bool

    result = ExperimentResult(
        experiment="kernel",
        claim=(
            "vectorized batch propagation >=3x reference throughput on the "
            "DIFT-heavy suite, observables bit-identical"
        ),
        headers=["workload", "records", "ref s", "array s", "speedup", "identical"],
    )
    workloads = suite(scale)
    numpy_ok = fastpath.numpy_available()
    array_name = "array" if numpy_ok else "reference"

    captures = []
    for w in workloads:
        runner = w.runner()
        m = runner.machine()
        cap = RecordStreamCapture().attach(m)
        m.run(max_instructions=runner.max_instructions)
        cap.finish()
        captures.append(cap)

    def one_pass(name, cap):
        kern = build_kernel(
            name, _Bool(), sinks=[SinkRule(kind="out", action="record")]
        )
        cap.prime(kern)
        t0 = time.perf_counter()
        for chunk in cap.chunks:
            kern.propagate_batch(chunk)
        elapsed = time.perf_counter() - t0
        cap.patch_alerts(kern.alerts)
        return kern, elapsed

    all_identical = True
    ref_total = arr_total = 0.0
    total_records = 0
    arr_kernels = []
    for w, cap in zip(workloads, captures):
        best_ref = best_arr = float("inf")
        for _ in range(repeats):
            ref_kern, ref_s = one_pass("reference", cap)
            arr_kern, arr_s = one_pass(array_name, cap)
            best_ref = min(best_ref, ref_s)
            best_arr = min(best_arr, arr_s)
        identical = (
            str(ref_kern.alerts) == str(arr_kern.alerts)
            and ref_kern.stats == arr_kern.stats
            and ref_kern.shadow.regs == arr_kern.shadow.regs
            and ref_kern.shadow.mem_items() == arr_kern.shadow.mem_items()
            and ref_kern.shadow.peak_locations == arr_kern.shadow.peak_locations
        )
        all_identical = all_identical and identical
        arr_kernels.append(arr_kern)
        n_rec = sum(len(c) for c in cap.chunks) // RECORD_SIZE
        total_records += n_rec
        ref_total += best_ref
        arr_total += best_arr
        result.rows.append(
            [w.name, n_rec, best_ref, best_arr, best_ref / best_arr, identical]
        )
    result.rows.append(
        ["suite", total_records, ref_total, arr_total, ref_total / arr_total, ""]
    )
    if not all_identical:
        result.notes = "BIT-IDENTITY VIOLATED — array kernel changed observables"

    result.headline = {
        "propagation_speedup": ref_total / arr_total,
        "target_speedup": 3.0,
        "identical": float(all_identical),
        "numpy_available": float(numpy_ok),
        "reference_records_per_s": total_records / max(ref_total, 1e-9),
        "array_records_per_s": total_records / max(arr_total, 1e-9),
    }
    result.metrics = {
        "dift.kernel.batches": float(sum(k.batches for k in arr_kernels)),
        "dift.kernel.records": float(sum(k.records_consumed for k in arr_kernels)),
        "dift.kernel.replayed": float(sum(k.records_replayed for k in arr_kernels)),
        "dift.kernel.fixpoint_fallbacks": float(
            sum(getattr(k, "fixpoint_fallbacks", 0) for k in arr_kernels)
        ),
    }
    return result


# ---------------------------------------------------------------------------
# Function-summary DIFT — call-region replay vs instruction-level propagation
# ---------------------------------------------------------------------------
def run_summaries(scale: int = 1, repeats: int = 3) -> ExperimentResult:
    """Propagation wall clock with and without function summaries
    (:class:`~repro.dift.summaries.SummaryKernel`) over identical
    marked record streams.

    Each workload's stream is captured once with CALL/RET markers cut
    in (zero-weight records base kernels ignore, so both sides consume
    the very same bytes).  The base side is the session's batch kernel
    alone; the summary side wraps a fresh kernel + fresh cache per
    pass, so every timed pass pays its own learning — the speedup is
    the realistic single-run number, not a warm-cache best case.  The
    suite is the six call-free spec workloads (summaries must not
    slow them) plus the call-heavy trio at 0%/10%/50% polymorphism;
    alerts, stats, shadow taint and peak residency are asserted
    identical per workload, and the record ledger must reconcile:
    consumed == markers + elided + records reaching the inner kernel.
    """
    import time

    from .. import fastpath
    from ..dift.engine import SinkRule
    from ..dift.kernel import RECORD_SIZE, RecordStreamCapture, build_kernel
    from ..dift.policy import BoolTaintPolicy as _Bool
    from ..dift.summaries import SummaryKernel
    from ..workloads.generators import call_heavy

    result = ExperimentResult(
        experiment="summaries",
        claim=(
            "learned call summaries replay taint transfer in O(footprint): "
            ">=5x propagation on call-heavy code, >=2x suite aggregate, "
            "observables bit-identical"
        ),
        headers=[
            "workload", "records", "base s", "summary s", "speedup",
            "hits", "inval", "elided", "identical",
        ],
    )
    iters = 128 * scale
    workloads = list(suite(scale)) + [
        call_heavy(0, iterations=iters, stmts=64, name="calls-p0"),
        call_heavy(10, iterations=iters, stmts=64, name="calls-p10"),
        call_heavy(2, iterations=iters, stmts=64, name="calls-p50"),
    ]
    numpy_ok = fastpath.numpy_available()
    kernel_name = "array" if numpy_ok else "reference"

    captures = []
    for w in workloads:
        runner = w.runner()
        m = runner.machine()
        cap = RecordStreamCapture(markers=True).attach(m)
        m.run(max_instructions=runner.max_instructions)
        cap.finish()
        captures.append(cap)

    def base_pass(cap):
        kern = build_kernel(
            kernel_name, _Bool(), sinks=[SinkRule(kind="out", action="record")]
        )
        cap.prime(kern)
        t0 = time.perf_counter()
        for chunk in cap.chunks:
            kern.propagate_batch(chunk)
        elapsed = time.perf_counter() - t0
        cap.patch_alerts(kern.alerts)
        return kern, elapsed

    def summary_pass(cap):
        inner = build_kernel(
            kernel_name, _Bool(), sinks=[SinkRule(kind="out", action="record")]
        )
        kern = SummaryKernel(inner)
        cap.prime(kern)
        t0 = time.perf_counter()
        for chunk in cap.chunks:
            kern.propagate_batch(chunk)
        kern.settle()
        elapsed = time.perf_counter() - t0
        cap.patch_alerts(kern.alerts)
        return kern, elapsed

    all_identical = True
    all_reconciled = True
    base_total = summ_total = 0.0
    total_records = 0
    per_name: dict[str, float] = {}
    counter_totals = {"learned": 0, "hits": 0, "invalidations": 0, "records_elided": 0}
    p50_invalidations = 0
    for w, cap in zip(workloads, captures):
        best_base = best_summ = float("inf")
        for _ in range(repeats):
            base_kern, base_s = base_pass(cap)
            summ_kern, summ_s = summary_pass(cap)
            best_base = min(best_base, base_s)
            best_summ = min(best_summ, summ_s)
        identical = (
            str(base_kern.alerts) == str(summ_kern.alerts)
            and base_kern.stats == summ_kern.stats
            and base_kern.shadow.regs == summ_kern.shadow.regs
            and base_kern.shadow.mem_items() == summ_kern.shadow.mem_items()
            and base_kern.shadow.peak_locations == summ_kern.shadow.peak_locations
        )
        all_identical = all_identical and identical
        reconciled = summ_kern.records_consumed == (
            summ_kern.markers
            + summ_kern.records_elided
            + summ_kern.inner.records_consumed
        )
        all_reconciled = all_reconciled and reconciled
        counters = summ_kern.counters()
        for key in counter_totals:
            counter_totals[key] += counters[key]
        if w.name == "calls-p50":
            p50_invalidations = counters["invalidations"]
        n_rec = sum(len(c) for c in cap.chunks) // RECORD_SIZE
        total_records += n_rec
        base_total += best_base
        summ_total += best_summ
        per_name[w.name] = best_base / best_summ
        result.rows.append(
            [
                w.name, n_rec, best_base, best_summ, best_base / best_summ,
                counters["hits"], counters["invalidations"],
                counters["records_elided"], identical and reconciled,
            ]
        )
    result.rows.append(
        ["suite", total_records, base_total, summ_total,
         base_total / summ_total, "", "", "", ""]
    )
    if not all_identical:
        result.notes = "BIT-IDENTITY VIOLATED — summary replay changed observables"
    elif not all_reconciled:
        result.notes = "RECORD LEDGER MISMATCH — elision double-counted records"

    attempts = counter_totals["hits"] + counter_totals["learned"] + (
        counter_totals["invalidations"]
    )
    result.headline = {
        "callheavy_speedup": per_name.get("calls-p0", 0.0),
        "aggregate_speedup": base_total / summ_total,
        "target_callheavy_speedup": 5.0,
        "target_aggregate_speedup": 2.0,
        "identical": float(all_identical),
        "reconciled": float(all_reconciled),
        "polymorphic_invalidations": float(p50_invalidations),
        "summary_hit_rate": (
            counter_totals["hits"] / attempts if attempts else 0.0
        ),
        "numpy_available": float(numpy_ok),
    }
    result.metrics = {
        f"dift.summaries.{key}": float(value)
        for key, value in counter_totals.items()
    }
    result.metrics["dift.summaries.records_total"] = float(total_records)
    return result


# ---------------------------------------------------------------------------
# Packed store + indexed slicing — query wall clock and real residency
# ---------------------------------------------------------------------------
def run_slicing(scale: int = 1, repeats: int = 3) -> ExperimentResult:
    """Backward-slicing wall clock and trace-store residency with the
    packed columnar store + indexed engine vs the record-object oracle
    (:class:`~repro.ontrac.buffer.TraceBuffer` +
    :func:`~repro.ontrac.ddg.build_ddg` + the BFS slicer).

    Each suite workload is traced once; the oracle side is a
    ``TraceBuffer`` of :class:`~repro.ontrac.records.DepRecord` objects
    built from the very same packed rows.  Both sides answer the same
    deterministic criterion batch — a spread of dynamic instances, each
    queried twice, the fault-localization access pattern the closure
    memo exists for.  Every slice's (seqs, pcs, truncated) triple is
    asserted equal between the sides, so the speedup column can never
    hide a semantic difference.  The timed region is graph construction
    plus the query batch: that is what `slice`/fault-localization
    callers actually pay, and it is where the record-object pipeline
    loses (one DDGNode + edge-list entry per record before the first
    query).

    Residency is measured, not modeled: tracemalloc's traced delta from
    freeing each store (record objects on the oracle side, column
    chunks on the packed side) at equal window — the
    implementation-metric counterpart to the paper's modeled
    ``bytes_per_instruction`` (see EXPERIMENTS.md).
    """
    import gc
    import time
    import tracemalloc

    from ..ontrac import DepRecord, TraceBuffer, build_ddg

    result = ExperimentResult(
        experiment="slicing",
        claim=(
            "packed columnar store: >=3x backward slicing and >=4x lower "
            "measured trace-store residency, slices bit-identical"
        ),
        headers=["workload", "legacy s", "packed s", "speedup", "identical"],
    )
    workloads = suite(scale)
    n_criteria = 24

    def traced(w):
        runner = w.runner()
        _, tracer, _ = runner.run_traced(OntracConfig())
        return tracer

    def legacy_store(tracer):
        """The tracer's packed rows as a TraceBuffer of DepRecords."""
        buf = TraceBuffer(tracer.buffer.capacity_bytes)
        for r in tracer.buffer.records:
            buf.append(
                DepRecord(r.kind, r.consumer_seq, r.consumer_pc,
                          r.producer_seq, r.producer_pc, r.tid)
            )
        return buf

    def criteria_of(ddg):
        seqs = sorted(s for s, _ in ddg.node_items())
        if len(seqs) > n_criteria:
            step = len(seqs) // n_criteria
            picked = seqs[::step][:n_criteria]
        else:
            picked = list(seqs)
        return picked + picked  # repeated criteria exercise the memo

    def slice_pass(make_ddg, crits):
        """One timed graph-construction + query batch; returns the
        elapsed time, the comparable slice states, and the DDG."""
        t0 = time.perf_counter()
        ddg = make_ddg()
        slices = [backward_slice(ddg, c) for c in crits]
        elapsed = time.perf_counter() - t0
        states = [
            (c, tuple(sorted(s.seqs)), tuple(sorted(s.pcs)), s.truncated)
            for c, s in zip(crits, slices)
        ]
        return elapsed, states, ddg

    def measured(build, free):
        """tracemalloc delta from freeing what ``build()`` allocated."""
        gc.collect()
        tracemalloc.start()
        store = build()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        free(store)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return max(before - after, 1), store

    registry = MetricsRegistry()
    legacy_total = packed_total = 0.0
    legacy_resident = packed_resident = 0
    instructions_total = 0
    modeled_bytes = 0
    all_identical = True
    for w in workloads:
        packed_tracer = traced(w)
        legacy = legacy_store(packed_tracer)
        complete = packed_tracer.buffer.stats.evicted == 0
        # The criterion batch is picked outside the timed region (it is
        # workload state, not slicing work) and must agree across sides.
        crits = criteria_of(build_ddg(legacy, complete=complete))
        assert crits == criteria_of(packed_tracer.dependence_graph())
        best_legacy = best_packed = float("inf")
        legacy_states = packed_states = None
        packed_ddg = None
        for _ in range(repeats):
            elapsed, states, _ = slice_pass(
                lambda: build_ddg(legacy, complete=complete), crits
            )
            if elapsed < best_legacy:
                best_legacy, legacy_states = elapsed, states
            elapsed, states, ddg = slice_pass(packed_tracer.dependence_graph, crits)
            if elapsed < best_packed:
                best_packed, packed_states = elapsed, states
                packed_ddg = ddg
        identical = legacy_states == packed_states
        all_identical = all_identical and identical
        legacy_total += best_legacy
        packed_total += best_packed
        result.rows.append(
            [w.name, best_legacy, best_packed, best_legacy / best_packed, identical]
        )
        packed_ddg.publish_telemetry(registry)
        packed_tracer.publish_telemetry(registry)
        modeled_bytes += packed_tracer.stats.stored_bytes
        del legacy
        lb, _ = measured(
            lambda: legacy_store(packed_tracer), lambda b: b.records.clear()
        )
        pb, _ = measured(lambda: traced(w), lambda t: t.buffer.release())
        legacy_resident += lb
        packed_resident += pb
        instructions_total += max(packed_tracer.stats.instructions, 1)
    result.rows.append(
        ["suite pass", legacy_total, packed_total, legacy_total / packed_total, ""]
    )
    result.rows.append(
        [
            "resident B/instr",
            legacy_resident / instructions_total,
            packed_resident / instructions_total,
            legacy_resident / packed_resident,
            "",
        ]
    )
    if not all_identical:
        result.notes = "SLICE MISMATCH — packed store diverged from the record-object oracle"
    result.headline = {
        "slice_speedup": legacy_total / packed_total,
        "target_speedup": 3.0,
        "residency_reduction": legacy_resident / packed_resident,
        "target_residency_reduction": 4.0,
        "identical": float(all_identical),
        # paper metric (modeled wire bytes) vs implementation metric
        # (measured resident store bytes) at the same window.
        "modeled_bytes_per_instr": modeled_bytes / instructions_total,
        "measured_packed_bytes_per_instr": packed_resident / instructions_total,
        "measured_legacy_bytes_per_instr": legacy_resident / instructions_total,
    }
    result.metrics = registry.flat()
    return result


# ---------------------------------------------------------------------------
# Trace lake — stored-run query fidelity and cross-run diff localization
# ---------------------------------------------------------------------------
def run_lake(scale: int = 1) -> ExperimentResult:
    """Persist every suite workload's trace into a throwaway lake and
    prove the stored runs answer queries **without re-execution** and
    **bit-identically** to the live in-memory buffer.

    Three checks per workload: (1) backward and forward slices over a
    spread of criteria, queried on the live packed DDG and on the
    mmap'd stored run, must match exactly (seqs, pcs, truncated); (2)
    the stored node set itself must match; (3) the spill-enabled trace
    must not slow tracing beyond a small constant factor (sealed chunks
    are written once, off the hot append path).

    Then the cross-run story: for each diffable buggy-corpus family the
    failing *buggy* run is diffed — in source-line space, via the
    manifests' pc→line maps — against passing *fixed* runs, and the
    suspect edge set must implicate a known bug line.  Families whose
    injected bug does not change the dependence-edge set (e.g. a wrong
    operator on the same operands) are reported but not required to
    localize.
    """
    import shutil
    import tempfile
    import time

    from ..lake import (
        TraceLake,
        diff_runs,
        input_hash,
        postmortem,
        program_hash,
        slice_stored,
        suspect_lines,
    )
    from ..slicing import forward_slice
    from ..workloads import corpus

    result = ExperimentResult(
        experiment="lake",
        claim=(
            "stored runs answer slice/lineage/postmortem re-execution-free "
            "and bit-identical; cross-run diff localizes injected bugs"
        ),
        headers=["case", "rows", "identical", "spill ratio", "detail"],
    )
    import os

    root = tempfile.mkdtemp(prefix="repro-lake-exp-")
    lake = TraceLake(root)
    n_criteria = 12
    repeats = 3
    all_identical = True
    plain_total = spill_total = 0.0
    try:
        for w in suite(scale):
            plain_s = spill_s = float("inf")
            scratch = os.path.join(root, "scratch.rlk")
            tracer = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                w.runner().run_traced(OntracConfig())
                plain_s = min(plain_s, time.perf_counter() - t0)
                t0 = time.perf_counter()
                _, tracer, _ = w.runner().run_traced(
                    OntracConfig(spill_path=scratch)
                )
                spill_s = min(spill_s, time.perf_counter() - t0)
            pending = lake.begin_run(
                program=w.name, input_hash=input_hash(w.inputs),
            )
            # finish() seals the scratch spill and copies it into the
            # reserved run directory.
            run_id = pending.finish(tracer=tracer, compiled=w.compiled)
            os.remove(scratch)
            ratio = spill_s / max(plain_s, 1e-9)
            plain_total += plain_s
            spill_total += spill_s

            live = tracer.dependence_graph()
            live_nodes = sorted(live.node_items())
            seqs = [s for s, _ in live_nodes]
            step = max(1, len(seqs) // n_criteria)
            crits = seqs[::step][:n_criteria]
            identical = True
            with lake.open(run_id) as stored:
                identical &= sorted(stored.ddg().node_items()) == live_nodes
                for crit in crits:
                    for direction, ref in (
                        ("backward", backward_slice(live, crit)),
                        ("forward", forward_slice(live, crit)),
                    ):
                        got = slice_stored(stored, crit, direction=direction)
                        identical &= (
                            got.seqs == ref.seqs
                            and got.pcs == ref.pcs
                            and got.truncated == ref.truncated
                        )
                report = postmortem(stored, lake.manifest(run_id))
                identical &= not report["recovered"]
                identical &= report["rows"] == len(tracer.buffer)
            all_identical &= identical
            result.rows.append(
                [w.name, len(tracer.buffer), identical, ratio,
                 f"{len(crits)}x2 slices"]
            )

        # Cross-run diff: failing buggy build vs passing fixed builds.
        # These families' injected bugs change the dependence-edge set,
        # so the line-space diff must implicate a recorded bug line
        # (wrong-operator/wrong-constant compute the same dependences
        # with different values; heap-overflow's suspect edge is the
        # corrupting store, one line below the faulty loop bound).
        diffable = {
            "wrong-variable", "omission-predicate", "omission-init",
            "malformed-request",
        }
        localized = 0
        attempted = 0
        for b in corpus():
            if not b.failing_inputs or not b.passing_inputs:
                continue
            attempted += 1
            _, tr, _ = b.runner(failing=True).run_traced(
                OntracConfig()
            )
            failing_id = lake.put(
                tr.buffer,
                program=program_hash(b.source),
                input_hash=input_hash(b.failing_inputs),
                compiled=b.compiled,
                notes=f"{b.name} failing",
            )
            passing_ids = []
            for inputs in (b.failing_inputs, b.passing_inputs):
                runner = ProgramRunner(
                    b.fixed_compiled.program,
                    inputs={k: list(v) for k, v in inputs.items()},
                    scheduler_factory=b.scheduler_factory,
                    max_instructions=2_000_000,
                )
                _, tr, _ = runner.run_traced(OntracConfig())
                passing_ids.append(lake.put(
                    tr.buffer,
                    program=program_hash(b.fixed_source),
                    input_hash=input_hash(inputs),
                    compiled=b.fixed_compiled,
                    notes=f"{b.name} fixed",
                ))
            diff = diff_runs(lake, failing_id, passing_ids)
            hit = bool(suspect_lines(diff) & b.bug_lines)
            localized += hit
            if b.name in diffable and not hit:
                all_identical = False
            result.rows.append(
                [f"diff:{b.name}", diff["failing_edges"],
                 diff["space"] == "line", "",
                 f"{len(diff['suspects'])} suspects, "
                 f"{len(diff['missing'])} missing"
                 + (", bug line hit" if hit else "")]
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if not all_identical:
        result.notes = (
            "LAKE MISMATCH — stored-run queries diverged from live buffers "
            "or a diffable bug family failed to localize"
        )
    result.headline = {
        "identical": float(all_identical),
        "spill_overhead": spill_total / max(plain_total, 1e-9),
        "target_spill_overhead": 1.15,
        "diff_localized_families": float(localized),
        "diff_attempted_families": float(attempted),
        "target_localized_families": 2.0,
    }
    return result


# ---------------------------------------------------------------------------
# Parallel helper — wall-clock cost of the *real* out-of-process worker
# ---------------------------------------------------------------------------
def run_parallel(scale: int = 2, repeats: int = 2, batch_size: int = 256) -> ExperimentResult:
    """Wall-clock cost of a DIFT-heavy pass over the workload suite with
    the inline engine vs :class:`~repro.multicore.parallel.ParallelHelperDIFT`.

    Where :func:`run_e4` *models* the helper core in cycles, this
    experiment *runs* it: a real worker process consumes the
    shared-memory ring and executes the unmodified engine.  Every
    workload's alerts, taint sets and stats are asserted equal between
    the two runs, so the speedup column can never hide a semantic
    difference.  Per-side times are the min over ``repeats`` passes.

    Three timelines are reported.  *Wall clock* (the per-workload rows)
    is host-dependent: with a single usable CPU the parent and worker
    time-share one core, so parity is the ceiling.  *Application-core
    CPU* (``time.process_time``, which never counts the worker's cycles)
    measures what the paper actually claims — how much of the main
    core's time DIFT still consumes once propagation is offloaded — and
    is host-independent.  ``projected_multicore_speedup`` extrapolates
    the >=2-CPU end-to-end case from the measured split (app-core CPU
    vs worker busy time overlap there instead of serializing), and
    ``usable_cpus`` records which regime produced the wall numbers.

    The inline comparator runs the per-event reference kernel: the
    offload claim is about where per-record propagation happens, so its
    baseline does that work inline.  Two kernel A/B views accompany it:
    ``app_core_speedup_vs_array_inline`` re-times the inline side with
    the default (array) batch kernel — near-parity there means on-core
    batched propagation rivals offloading, which is the PR 8 kernel
    working as intended — and ``worker_kernel_lift`` re-times the
    *worker* pinned to the reference kernel, isolating what the array
    kernel buys the offloaded pipeline end to end.
    """
    import os
    import time

    from ..dift.policy import BoolTaintPolicy as _Bool
    from ..dift.engine import SinkRule
    from ..multicore.parallel import ParallelHelperDIFT

    result = ExperimentResult(
        experiment="parallel",
        claim=(
            "out-of-process DIFT helper cuts application-core overhead >=1.5x "
            "with identical observables; end-to-end wall clock is worker-bound"
        ),
        headers=["workload", "inline s", "parallel s", "speedup", "identical"],
    )
    workloads = suite(scale)
    sinks = lambda: [SinkRule(kind="out", action="record")]  # noqa: E731

    INF = float("inf")
    best_bare = {w.name: INF for w in workloads}
    best_inline = {w.name: INF for w in workloads}
    best_inline_cpu = {w.name: INF for w in workloads}
    best_array_cpu = {w.name: INF for w in workloads}
    best_parallel = {w.name: INF for w in workloads}
    best_parent_cpu = {w.name: INF for w in workloads}
    engines, helpers = {}, {}
    for _ in range(repeats):
        for w in workloads:
            # Uninstrumented baseline: application-core CPU with no DIFT.
            runner = w.runner()
            m = runner.machine()
            c0 = time.process_time()
            m.run(max_instructions=runner.max_instructions)
            best_bare[w.name] = min(best_bare[w.name], time.process_time() - c0)

            # Offload comparator: per-event inline propagation.  The
            # offload claim is about *where* per-record propagation
            # runs, so its baseline does that work inline (the paper's
            # main-core software DIFT); the batched array kernel's own
            # inline cost is measured separately below and reported
            # ungated.
            runner = w.runner()
            m = runner.machine()
            engine = DIFTEngine(_Bool(), sinks=sinks(), kernel="reference").attach(m)
            t0 = time.perf_counter()
            c0 = time.process_time()
            m.run(max_instructions=runner.max_instructions)
            elapsed = time.perf_counter() - t0
            best_inline_cpu[w.name] = min(
                best_inline_cpu[w.name], time.process_time() - c0
            )
            if elapsed < best_inline[w.name]:
                best_inline[w.name] = elapsed
                engines[w.name] = engine

            runner = w.runner()
            m = runner.machine()
            DIFTEngine(_Bool(), sinks=sinks()).attach(m)
            c0 = time.process_time()
            m.run(max_instructions=runner.max_instructions)
            best_array_cpu[w.name] = min(
                best_array_cpu[w.name], time.process_time() - c0
            )

            m = runner.machine()
            helper = ParallelHelperDIFT(_Bool(), sinks=sinks(), batch_size=batch_size)
            helper.attach(m)
            t0 = time.perf_counter()
            c0 = time.process_time()
            m.run(max_instructions=runner.max_instructions)
            helper.finish()
            elapsed = time.perf_counter() - t0
            # process_time excludes the worker's CPU, so this is the
            # application core's true cost even when both time-share one
            # CPU (the wall clock above cannot make that distinction).
            best_parent_cpu[w.name] = min(
                best_parent_cpu[w.name], time.process_time() - c0
            )
            if elapsed < best_parallel[w.name]:
                best_parallel[w.name] = elapsed
                helpers[w.name] = helper

    all_identical = True
    worker_busy_total = 0.0
    for w in workloads:
        engine, helper = engines[w.name], helpers[w.name]
        identical = (
            engine.alerts == helper.alerts
            and engine.stats == helper.stats
            and engine.shadow.regs == helper.shadow.regs
            and engine.shadow.mem_items() == helper.shadow.mem_items()
        )
        all_identical = all_identical and identical
        worker_busy_total += helper.report().worker_busy_s
        result.rows.append(
            [
                w.name,
                best_inline[w.name],
                best_parallel[w.name],
                best_inline[w.name] / best_parallel[w.name],
                identical,
            ]
        )
    bare_total = sum(best_bare.values())
    inline_total = sum(best_inline.values())
    inline_cpu_total = sum(best_inline_cpu.values())
    parallel_total = sum(best_parallel.values())
    parent_cpu_total = sum(best_parent_cpu.values())
    result.rows.append(
        ["suite pass", inline_total, parallel_total, inline_total / parallel_total, ""]
    )
    array_cpu_total = sum(best_array_cpu.values())
    result.rows.append(
        [
            "app-core CPU",
            inline_cpu_total,
            parent_cpu_total,
            inline_cpu_total / parent_cpu_total,
            "",
        ]
    )
    # Informational, ungated: the PR 8 array kernel makes *inline* DIFT
    # cheap enough that on-core batched propagation rivals offloading —
    # a ratio near (or below) 1.0 here is the kernel working, not the
    # helper failing.
    result.rows.append(
        [
            "app-core CPU vs array-inline",
            array_cpu_total,
            parent_cpu_total,
            array_cpu_total / parent_cpu_total,
            "",
        ]
    )
    if not all_identical:
        result.notes = "OBSERVABLE MISMATCH — parallel helper diverged from inline"

    # Kernel A/B: the same offloaded pass with the worker pinned to the
    # reference kernel — what the vectorized batch kernel buys the
    # worker end-to-end (wall clock is worker-bound, so a faster
    # propagation loop shows up directly).
    ref_kernel_total = 0.0
    for w in workloads:
        runner = w.runner()
        m = runner.machine()
        helper = ParallelHelperDIFT(
            _Bool(), sinks=sinks(), batch_size=batch_size, kernel="reference"
        )
        helper.attach(m)
        t0 = time.perf_counter()
        m.run(max_instructions=runner.max_instructions)
        helper.finish()
        ref_kernel_total += time.perf_counter() - t0
    worker_kernel_lift = ref_kernel_total / max(parallel_total, 1e-9)
    result.rows.append(
        [
            "worker kernel A/B",
            ref_kernel_total,
            parallel_total,
            worker_kernel_lift,
            "",
        ]
    )

    # Extrapolate the >=2-CPU end-to-end speedup from the measured work
    # split: parent CPU and worker busy time overlap on a multicore host,
    # so the wall clock there is their max rather than their sum.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cpus = os.cpu_count() or 1
    projected = inline_cpu_total / max(parent_cpu_total, worker_busy_total, 1e-9)

    result.headline = {
        "suite_speedup": inline_total / parallel_total,
        "app_core_speedup": inline_cpu_total / parent_cpu_total,
        "app_core_slowdown_inline": inline_cpu_total / bare_total,
        "app_core_slowdown_parallel": parent_cpu_total / bare_total,
        "app_core_speedup_vs_array_inline": array_cpu_total / parent_cpu_total,
        "projected_multicore_speedup": projected,
        "worker_kernel_lift": worker_kernel_lift,
        "usable_cpus": float(cpus),
        "identical": float(all_identical),
        "batch_size": float(batch_size),
    }
    registry = MetricsRegistry()
    for w in workloads:
        helpers[w.name].publish_telemetry(registry)
    result.metrics = registry.flat()
    return result


def run_service(
    jobs: int = 8, scale: int = 1, scaled_workers: int = 4, burst: int = 10
) -> ExperimentResult:
    """Throughput, overload shedding and cache idempotency of the
    analysis service (:mod:`repro.service`).

    Three live measurements against real daemons on Unix sockets:

    * **Worker scaling** — ``jobs`` cache-defeating jobs of interleaved
      kinds against a 1-worker and a ``scaled_workers``-worker daemon;
      the ratio of job throughputs is the pool's process-level scaling.
      Meaningful only with >=2 usable CPUs (``usable_cpus`` records the
      regime; on one CPU the workers time-share a core).
    * **Overload burst** — ``burst`` concurrent jobs against a 1-worker,
      capacity-4 daemon.  Every response must arrive (zero hangs); the
      split across ok / degraded / rejected shows admission shedding
      fidelity first and jobs only at the capacity wall.
    * **Cache idempotency** — the same slice job twice; the repeat must
      be served from cache, bit-identical, and much faster.
    """
    import json
    import os
    import tempfile
    import threading
    import time

    from ..service import AnalysisServer, ServiceClient, ServiceConfig
    from ..telemetry.obs import latency_summary

    result = ExperimentResult(
        experiment="service",
        claim=(
            "DIFT-as-a-service: worker processes scale throughput, overload "
            "sheds fidelity then jobs (never hangs), cached repeats are "
            "bit-identical"
        ),
        headers=["measurement", "value", "detail"],
    )
    tmp = tempfile.mkdtemp(prefix="repro-service-exp-")
    kinds = ("trace", "attack", "slice", "lineage")

    def submit_burst(address, n, tag, cache=False, deadline_s=120.0):
        """n concurrent one-job clients; returns (statuses, elapsed_s, hangs)."""
        statuses: list[str] = []
        lock = threading.Lock()

        def one(i):
            with ServiceClient(address) as client:
                response = client.submit(
                    kinds[i % len(kinds)],
                    workload="hashloop",
                    scale=scale,
                    cache=cache,
                    params={"tag": f"{tag}-{i}"},
                    deadline_s=deadline_s,
                )
            with lock:
                statuses.append(response.get("status", "no-response"))

        threads = [threading.Thread(target=one, args=(i,), daemon=True) for i in range(n)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        elapsed = time.perf_counter() - t0
        hangs = sum(1 for t in threads if t.is_alive())
        return statuses, elapsed, hangs

    # -- worker scaling -------------------------------------------------------
    throughput = {}
    for workers in (1, scaled_workers):
        config = ServiceConfig(
            socket_path=os.path.join(tmp, f"scale-{workers}.sock"),
            workers=workers,
            queue_capacity=max(16, 2 * jobs),
            degrade=False,  # uniform full-fidelity work for a fair ratio
        )
        with AnalysisServer(config):
            statuses, elapsed, hangs = submit_burst(
                config.address(), jobs, tag=f"w{workers}"
            )
        ok = sum(1 for s in statuses if s == "ok")
        throughput[workers] = ok / elapsed if elapsed > 0 else 0.0
        result.rows.append(
            [f"throughput {workers}w", f"{throughput[workers]:.2f} jobs/s",
             f"{ok}/{jobs} ok in {elapsed:.2f}s, {hangs} hangs"]
        )
    scaling = throughput[scaled_workers] / max(throughput[1], 1e-9)
    result.rows.append(
        [f"scaling 1w->{scaled_workers}w", f"{scaling:.2f}x", ""]
    )

    # -- overload burst -------------------------------------------------------
    config = ServiceConfig(
        socket_path=os.path.join(tmp, "overload.sock"),
        workers=1,
        queue_capacity=4,
    )
    with AnalysisServer(config) as server:
        statuses, elapsed, hangs = submit_burst(config.address(), burst, tag="burst")
        slo = latency_summary(server.registry)
    from collections import Counter

    counts = Counter(statuses)
    result.rows.append(
        ["overload burst",
         f"{counts.get('ok', 0)} ok / {counts.get('degraded', 0)} degraded / "
         f"{counts.get('rejected', 0)} rejected",
         f"{burst} jobs at capacity 4, {hangs} hangs"]
    )
    p50 = slo.get("p50_ms") or 0.0
    p95 = slo.get("p95_ms") or 0.0
    p99 = slo.get("p99_ms") or 0.0
    result.rows.append(
        ["overload SLO",
         f"p50 {p50:.0f} ms / p95 {p95:.0f} ms / p99 {p99:.0f} ms",
         f"shed rate {slo.get('shed_rate', 0.0):.2f} "
         f"({int(slo.get('jobs_received', 0))} received)"]
    )

    # -- cache idempotency ----------------------------------------------------
    config = ServiceConfig(
        socket_path=os.path.join(tmp, "cache.sock"), workers=1, queue_capacity=8
    )
    with AnalysisServer(config):
        with ServiceClient(config.address()) as client:
            t0 = time.perf_counter()
            cold = client.submit("slice", workload="sort", scale=scale)
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = client.submit("slice", workload="sort", scale=scale)
            warm_s = time.perf_counter() - t0
    canonical = lambda r: json.dumps(r.get("result"), sort_keys=True)  # noqa: E731
    cache_identical = (
        cold.get("status") == "ok"
        and warm.get("status") == "ok"
        and warm.get("cached") is True
        and canonical(cold) == canonical(warm)
    )
    cache_speedup = cold_s / max(warm_s, 1e-9)
    result.rows.append(
        ["cache repeat", f"{cache_speedup:.0f}x faster",
         f"cold {cold_s*1e3:.1f} ms -> warm {warm_s*1e3:.1f} ms, "
         f"identical={cache_identical}"]
    )
    if hangs or not cache_identical:
        result.notes = "SERVICE MISBEHAVED — hang or cache divergence (see rows)"

    # -- propagation-kernel A/B ----------------------------------------------
    # The same DIFT-heavy attack jobs against daemons whose workers run
    # the array vs the reference propagation kernel (workers fork under
    # the active fastpath override, so the whole pool inherits it).
    # Job results never carry the kernel name — only wall clock moves.
    from dataclasses import replace as _replace

    from .. import fastpath as _fastpath

    def attack_burst(sock_name: str, n: int = 6) -> float:
        config = ServiceConfig(
            socket_path=os.path.join(tmp, sock_name),
            workers=1,
            queue_capacity=max(16, 2 * n),
            degrade=False,
        )
        with AnalysisServer(config):
            with ServiceClient(config.address()) as client:
                t0 = time.perf_counter()
                for i in range(n):
                    client.submit(
                        "attack",
                        workload="matmul",
                        scale=scale,
                        cache=False,
                        params={"tag": f"{sock_name}-{i}", "out_sink": True},
                        deadline_s=120.0,
                    )
                return time.perf_counter() - t0

    arr_burst_s = attack_burst("kernel-array.sock")
    with _fastpath.overridden(
        _replace(_fastpath.current(), array_kernel=False)
    ):
        ref_burst_s = attack_burst("kernel-reference.sock")
    service_kernel_lift = ref_burst_s / max(arr_burst_s, 1e-9)
    result.rows.append(
        ["kernel A/B (attack jobs)", f"{service_kernel_lift:.2f}x lift",
         f"reference {ref_burst_s:.2f}s -> array {arr_burst_s:.2f}s, 6 jobs"]
    )

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cpus = os.cpu_count() or 1
    result.headline = {
        "worker_scaling": scaling,
        "scaled_workers": float(scaled_workers),
        "usable_cpus": float(cpus),
        "overload_ok": float(counts.get("ok", 0)),
        "overload_degraded": float(counts.get("degraded", 0)),
        "overload_rejected": float(counts.get("rejected", 0)),
        "overload_hangs": float(hangs),
        "slo_p50_ms": p50,
        "slo_p95_ms": p95,
        "slo_p99_ms": p99,
        "shed_rate": float(slo.get("shed_rate", 0.0)),
        "cache_speedup": cache_speedup,
        "cache_identical": float(cache_identical),
        "service_kernel_lift": service_kernel_lift,
    }
    return result


def run_router(
    clients: int = 200, backends: int = 3, workers: int = 2, scale: int = 1
) -> ExperimentResult:
    """Load + correctness of the consistent-hash router tier
    (:mod:`repro.service.router`) fronting ``backends`` real daemons.

    Three live measurements:

    * **Concurrent load** — ``clients`` simultaneous one-job clients
      against 1 router + ``backends`` daemons.  The hard contract is
      *zero hangs*: every client gets a terminal frame, with overload
      answered by degraded/rejected statuses (the backends' admission
      ladder republished through the router), never silence.  The
      router's own ``router.latency.total_s`` histogram yields the
      p50/p95/p99 SLO, and the placement spread across backends shows
      consistent hashing actually fanning out.
    * **Streaming identity** — one job submitted twice: streamed through
      the router and blocking against its backend directly.  The
      reassembled partial ops and the terminal result must be
      byte-identical to the direct response.
    * **Router cache** — a cached job repeated at the router must be
      answered from the router's own cache (no backend round trip).
    """
    import json
    import os
    import tempfile
    import threading
    import time
    from collections import Counter

    from ..service import (
        AnalysisServer,
        RouterConfig,
        RouterServer,
        ServiceClient,
        ServiceConfig,
        reassemble,
    )
    from ..telemetry.obs import latency_summary

    result = ExperimentResult(
        experiment="router",
        claim=(
            "router tier: consistent-hash fan-out over N daemons sustains "
            f"{clients} concurrent clients with zero hangs, streamed relays "
            "stay bit-identical, and the router cache absorbs repeats"
        ),
        headers=["measurement", "value", "detail"],
    )
    tmp = tempfile.mkdtemp(prefix="repro-router-exp-")
    kinds = ("trace", "attack", "slice", "lineage")
    workloads = ("matmul", "sort", "hashloop", "rle", "bfs", "fsm")

    servers = [
        AnalysisServer(
            ServiceConfig(
                socket_path=os.path.join(tmp, f"backend-{i}.sock"),
                workers=workers,
                # Consistent hashing is intentionally unequal (programs,
                # not requests, are the unit); size each queue for the
                # skewed share so capacity rejects stay a small minority
                # even when one backend owns most of the hot keys.
                queue_capacity=max(32, (2 * clients) // backends),
            )
        ).start()
        for i in range(backends)
    ]
    router = RouterServer(
        RouterConfig(
            backends=[s.config.socket_path for s in servers],
            socket_path=os.path.join(tmp, "router.sock"),
            health_interval_s=0.2,
        )
    ).start()
    address = router.config.socket_path
    try:
        # -- concurrent load --------------------------------------------------
        statuses: list[str] = []
        lock = threading.Lock()

        def one(i):
            with ServiceClient(address, timeout_s=300.0) as client:
                response = client.submit(
                    kinds[i % len(kinds)],
                    workload=workloads[i % len(workloads)],
                    scale=scale,
                    fidelity="log",
                    cache=False,
                    params={"tag": f"load-{i}"},
                )
            with lock:
                statuses.append(response.get("status", "no-response"))

        threads = [
            threading.Thread(target=one, args=(i,), daemon=True)
            for i in range(clients)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600.0)
        elapsed = time.perf_counter() - t0
        hangs = sum(1 for t in threads if t.is_alive())
        counts = Counter(statuses)
        throughput = len(statuses) / elapsed if elapsed > 0 else 0.0
        spread = [b["jobs_relayed"] for b in router.health()["backends"].values()]
        result.rows.append(
            ["concurrent load",
             f"{len(statuses)}/{clients} answered in {elapsed:.2f}s",
             f"{counts.get('ok', 0)} ok / {counts.get('degraded', 0)} degraded / "
             f"{counts.get('rejected', 0)} rejected, {hangs} hangs"]
        )
        result.rows.append(
            ["placement spread", "/".join(str(n) for n in sorted(spread)),
             f"jobs relayed per backend ({backends} backends)"]
        )
        slo = latency_summary(router.registry, prefix="router")
        p50 = slo.get("p50_ms") or 0.0
        p95 = slo.get("p95_ms") or 0.0
        p99 = slo.get("p99_ms") or 0.0
        result.rows.append(
            ["router SLO", f"p50 {p50:.0f} ms / p95 {p95:.0f} ms / p99 {p99:.0f} ms",
             f"shed rate {slo.get('shed_rate', 0.0):.2f}, "
             f"reject rate {slo.get('reject_rate', 0.0):.2f}"]
        )

        # -- streaming identity -----------------------------------------------
        canonical = lambda obj: json.dumps(obj, sort_keys=True)  # noqa: E731
        with ServiceClient(servers[0].config.socket_path) as direct_client:
            # route the probe job to backend 0 by asking it directly for
            # the reference result; the router may place it anywhere
            direct = direct_client.submit("slice", workload="matmul",
                                          scale=scale, cache=False)
        with ServiceClient(address) as client:
            streamed, ops = client.submit_stream("slice", workload="matmul",
                                                 scale=scale, cache=False)
        stream_identical = (
            direct.get("status") == "ok"
            and streamed.get("status") == "ok"
            and canonical(streamed["result"]) == canonical(direct["result"])
            and canonical(reassemble(ops)) == canonical(streamed["result"])
        )
        result.rows.append(
            ["streamed relay", f"{len(ops)} partial frames",
             f"identical={stream_identical}"]
        )

        # -- router cache -----------------------------------------------------
        with ServiceClient(address) as client:
            client.submit("attack", workload="fsm", scale=scale)
            before = {a: b["jobs_relayed"]
                      for a, b in client.health()["backends"].items()}
            warm = client.submit("attack", workload="fsm", scale=scale)
            after = {a: b["jobs_relayed"]
                     for a, b in client.health()["backends"].items()}
        cache_hit = warm.get("cached") is True and before == after
        result.rows.append(
            ["router cache repeat", f"hit={cache_hit}",
             "served without a backend round trip"]
        )
    finally:
        router.stop()
        for server in servers:
            server.stop()

    if hangs:
        result.notes = "ROUTER MISBEHAVED — hung clients (see rows)"
    answered = sum(counts.get(s, 0) for s in ("ok", "degraded", "rejected"))
    result.headline = {
        "clients": float(clients),
        "backends": float(backends),
        "answered": float(answered),
        "hangs": float(hangs),
        "throughput_jobs_s": throughput,
        "load_ok": float(counts.get("ok", 0)),
        "load_degraded": float(counts.get("degraded", 0)),
        "load_rejected": float(counts.get("rejected", 0)),
        "slo_p50_ms": p50,
        "slo_p95_ms": p95,
        "slo_p99_ms": p99,
        "shed_rate": float(slo.get("shed_rate", 0.0)),
        "reject_rate": float(slo.get("reject_rate", 0.0)),
        "placement_min": float(min(spread)),
        "placement_max": float(max(spread)),
        "stream_identical": float(stream_identical),
        "stream_frames": float(len(ops)),
        "router_cache_hit": float(cache_hit),
    }
    return result


ALL_EXPERIMENTS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
}

#: named experiments outside the E1..E12 paper-claim set (selectable by
#: id through the CLI and run_experiment, excluded from the default sweep).
EXTRA_EXPERIMENTS = {
    "kernel": run_kernel,
    "slicing": run_slicing,
    "summaries": run_summaries,
    "lake": run_lake,
    "parallel": run_parallel,
    "service": run_service,
    "router": run_router,
}


def run_experiment(name: str) -> ExperimentResult:
    """Run one experiment by id and stamp its host wall-clock time."""
    import time

    runner = ALL_EXPERIMENTS.get(name) or EXTRA_EXPERIMENTS[name]
    t0 = time.perf_counter()
    result = runner()
    result.wall_time_s = time.perf_counter() - t0
    return result


def _default_selection() -> list[str]:
    return sorted(ALL_EXPERIMENTS, key=lambda n: int(n[1:]))


def run_all(
    names: list[str] | None = None,
    workers: int | None = None,
    timeout_s: float | None = None,
) -> list[ExperimentResult]:
    """Run experiments, optionally fanned out over worker processes.

    ``workers > 1`` dispatches each experiment to a
    ``concurrent.futures.ProcessPoolExecutor``; results always come back
    in selection order regardless of completion order.  ``timeout_s``
    bounds each experiment's wait.  Any pool-level failure (a worker
    dying, a timeout, an unpicklable result) falls back to running the
    remaining selection sequentially in-process, so a broken pool can
    slow the sweep down but never change its results.
    """
    selected = names or _default_selection()
    if workers and workers > 1 and len(selected) > 1:
        results = _run_all_parallel(selected, workers, timeout_s)
        if results is not None:
            return results
    return [run_experiment(name) for name in selected]


def _run_all_parallel(
    selected: list[str], workers: int, timeout_s: float | None
) -> list[ExperimentResult] | None:
    """Fan experiments out over processes; None means "fall back"."""
    import concurrent.futures as cf
    import sys

    pool = cf.ProcessPoolExecutor(max_workers=min(workers, len(selected)))
    try:
        futures = [pool.submit(run_experiment, name) for name in selected]
        results = [f.result(timeout=timeout_s) for f in futures]
    except Exception as exc:  # timeout, broken pool, worker crash
        print(
            f"experiment fan-out failed ({type(exc).__name__}: {exc}); "
            "falling back to sequential",
            file=sys.stderr,
        )
        pool.shutdown(wait=False, cancel_futures=True)
        return None
    pool.shutdown()
    return results
