"""Regenerate EXPERIMENTS.md by running every experiment (E1..E12 plus
the extra `slicing`, `parallel`, `service`, `router`, `kernel` and
`summaries` wall-clock experiments).

Usage: python tools/generate_experiments_md.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment  # noqa: E402

COMMENTARY = {
    "E1": (
        "Online tracing lands in the paper's ~19x band and the offline "
        "collect-then-post-process baseline is an order of magnitude beyond "
        "it, dominated by the post-processing pass — the gap that motivated "
        "ONTRAC. Absolute values depend on the cost model's constants; the "
        "ratio structure (who wins, by what order) is the reproduced claim."
    ),
    "E2": (
        "The ablation ladder is strictly monotone: intra-block static "
        "inference removes most register dependences, hot traces and "
        "redundant-load elision shave memory dependences, and the "
        "forward-slice-of-input filter delivers the final large cut. Naive "
        "vs fully-optimized spans roughly an order of magnitude "
        "(paper: 16 -> 0.8 B/instr, a 20x cut; ours is workload-mix "
        "dependent but the same shape)."
    ),
    "E3": (
        "The window grows linearly in buffer bytes at a size-invariant "
        "instructions-per-KB rate, so the 16 MB point is extrapolated "
        "(running >10M interpreted instructions per configuration is "
        "wasteful). The extrapolated window is within ~2-3x of the paper's "
        "20M instructions; the exact constant tracks bytes/instruction, "
        "i.e. E2."
    ),
    "E4": (
        "With the hardware-interconnect channel the end-to-end overhead "
        "averages in the paper's ~48% band, the shared-memory software "
        "channel is several times worse (enqueue cost on the main core "
        "dominates), and both beat inline DIFT on the main core — the "
        "paper's motivation for the helper-core design."
    ),
    "E5": (
        "The case-study shape holds at our (thousandsfold smaller) scale: "
        "logging is near-free, full tracing is orders beyond it, the "
        "traced replay covers a few percent of the execution, thread "
        "reduction drops the non-interacting workers, the failure still "
        "reproduces, and the dependence count collapses. The paper's "
        "976M->3175 is a 307,000x cut on a 14.8 s run; our cut scales "
        "with run length by construction (window size is fixed by the "
        "checkpoint interval while total dependences grow with the run)."
    ),
    "E6": (
        "Every naive-policy kernel livelocks (flag spin and barrier both "
        "reproduce [9]'s scenarios; the lock kernel wedges on a lock held "
        "inside an abortable transaction), while the sync-aware policy "
        "completes all kernels with zero livelocks and single-digit "
        "monitoring overhead."
    ),
    "E7": (
        "Plain dynamic slices never contain the omission bugs (column 2 is "
        "all zeros) — the defining property of execution-omission errors. "
        "Predicate switching verifies the implicit dependence with about "
        "one re-execution per bug, matching the paper's 'small number of "
        "verifications'; relevant slicing also catches them but "
        "conservatively (sizes shown for comparison)."
    ),
    "E8": (
        "Value replacement ranks the bug line at the top for the "
        "wrong-constant, wrong-variable and both omission bugs — including "
        "the omission bugs slicing misses (column 'slice has bug' = 0), "
        "reproducing the paper's 'uniformly handles all errors' claim. "
        "wrong-operator is an honest miss: the correct value (a*b) never "
        "occurs anywhere in the run's value profile, so no observed-value "
        "replacement can produce the correct output."
    ),
    "E9": (
        "The lockset+happens-before baseline already suppresses "
        "lock-protected accesses; dynamic synchronization recognition then "
        "filters every benign flag-synchronization race and every access "
        "ordered through a recognized flag — while still reporting each "
        "seeded true race (final column)."
    ),
    "E10": (
        "All three of §3.2's environment-fault classes are captured, "
        "avoided by the class-appropriate environment change, recorded as "
        "an environment patch, and the patched 'future run' completes "
        "cleanly with only patch-lookup overhead."
    ),
    "E11": (
        "All attacks are detected at the sink and stopped before the "
        "hijacked action executes; benign runs are never flagged. The "
        "PC-taint label names the root-cause statement in 3/3 scenarios "
        "(the bool-vs-PC ablation in bench_e11 shows boolean taint detects "
        "but cannot explain)."
    ),
    "E12": (
        "Lineage is exact against ground truth on every workload and both "
        "representations; the modeled slowdown stays far below the paper's "
        "40x bound (our interpreter already absorbs what valgrind "
        "infrastructure cost them). The memory story is regime-dependent "
        "exactly as [12] describes: on overlapping/clustered resident sets "
        "(cumulative-sum) roBDDs beat naive sets by the naive/robdd ratio "
        "in the headline, while on scattered singleton lineage "
        "(scatter-pick) naive sets win — see the clustering ablation in "
        "bench_e12."
    ),
    "slicing": (
        "Another wall-clock experiment: the packed columnar store answers "
        "the same criterion batch >=3x faster than the record-object "
        "oracle built from the very same rows (a TraceBuffer of DepRecords "
        "+ build_ddg + the BFS slicer, which must build one DDGNode + "
        "edge-list entry per record before its first query) with every "
        "slice's (seqs, pcs, truncated) asserted identical. The residency "
        "rows separate the paper's *modeled* bytes/instruction (the wire "
        "format ONTRAC accounts, ~3.7 B/instr here) from the *measured* "
        "tracemalloc bytes a store actually occupies: the deque of plain "
        "record objects runs >100x over the modeled figure, the packed "
        "15-byte column rows land within ~12x (allocator-granular chunks, "
        "consumer index included) — a >=4x real-memory cut at an equal "
        "window, which is the resource E3 trades for history."
    ),
    "parallel": (
        "The one experiment whose currency *is* wall-clock: a real worker "
        "process consumes the shared-memory ring and runs the unmodified "
        "DIFT engine, with every workload's alerts, taint sets and stats "
        "asserted identical to the inline run. The host-independent claim "
        "is the app-core CPU row — `time.process_time` never counts the "
        "worker, so offloading cuts the application core's DIFT cost "
        ">=1.5x regardless of CPU count. The per-workload wall rows are "
        "host-dependent: on a single usable CPU the parent and worker "
        "time-share one core and parity is the ceiling, which "
        "`usable_cpus` records and `projected_multicore_speedup` "
        "extrapolates past. Batching is the lever (batch_size=1 is ~2x "
        "slower than inline; >=256 amortizes the ring publishes) — see "
        "README 'Parallel helper' and benchmarks/bench_parallel.py."
    ),
    "service": (
        "The deployment shape, measured live: real daemons on Unix "
        "sockets with worker processes, admission control and a result "
        "cache. The scaling row is host-dependent (recorded by "
        "`usable_cpus`; on one CPU four workers time-share a core, and "
        "benchmarks/bench_service.py gates its >=1.5x assertion on >=2 "
        "CPUs). The overload row is host-independent policy: at 2.5x "
        "admission capacity every request is answered — fidelity sheds "
        "first (full -> dift -> log, §2.2's cheap-logging/"
        "expensive-replay split as a live ladder), REJECTED only at the "
        "capacity wall, zero hangs. The SLO row reads the overload "
        "daemon's own `service.latency.total_s` histogram back through "
        "`histogram_quantile` — the same p50/p95/p99 and shed rate "
        "`repro stats` exposes as Prometheus text on a production "
        "daemon — so the overload policy is characterized in latency "
        "terms, not just response counts. The cache row is the "
        "determinism argument operationalized: execution is a pure "
        "function of the job spec, so the repeat is served from "
        "canonical JSON bit-identical to the cold result, orders of "
        "magnitude faster. Every job in this table is traceable end to "
        "end: `submit --trace` merges client/server/admission/"
        "queue/exec/worker spans (wall-epoch-µs, plus the engine's "
        "modeled-cycle spans re-based inside the worker span) into one "
        "Chrome trace, e.g.\n\n"
        "```\n"
        "client.request          |==============================|\n"
        "  server.handle           |==========================|\n"
        "    server.admission      |=|\n"
        "    pool.queue              |====|\n"
        "    pool.exec                    |=================|\n"
        "      worker.execute              |===============|\n"
        "        engine spans               |... modeled-cycles ...|\n"
        "```\n\n"
        "and worker crashes / deadline cancels dump the flight "
        "recorder's last-N structured events to a JSON artifact for "
        "post-mortem."
    ),
    "router": (
        "The scale-out tier, measured live: 1 router + 3 daemons, hit by "
        "hundreds of simultaneous clients. The load row is the zero-hang "
        "contract at fan-out scale — every client gets a terminal frame, "
        "with overload answered by degraded/rejected (the backends' "
        "admission ladder republished through the router as "
        "back-pressure), never silence. The SLO row reads the *router's "
        "own* `router.latency.total_s` histogram — the same "
        "`histogram_quantile` rollup as the service's, one tier up, with "
        "`router.*` shed/reject rates beside it (gated in "
        "benchmarks/bench_router.py). The placement row shows consistent "
        "hashing doing its job: programs (not requests) are the sharding "
        "unit, so repeat analyses of one program land on one backend's "
        "warm cache, and the spread across backends is intentionally "
        "unequal but never degenerate. The streamed-relay row is the "
        "tier-transparency argument: a `stream: true` job relayed "
        "through the router reassembles byte-identical to the same job "
        "answered blocking by a backend directly — partial frames are "
        "forwarded with a monotone seq cursor, so even a backend crash "
        "mid-stream (rerouted, replayed, deduplicated) leaves the "
        "client's op stream gap-free and exactly-once "
        "(tests/test_router.py proves the crash case; this experiment "
        "measures the healthy path). The cache row closes the loop: "
        "repeats are absorbed at the router without a backend round "
        "trip."
    ),
    "kernel": (
        "Pure propagation throughput, with execution factored out: each "
        "workload's packed record stream (the same 24-byte wire format "
        "the ring ships) is captured once, then replayed through both "
        "propagation kernels. The reference kernel is the per-record "
        "engine loop, verbatim; the array kernel decodes each batch into "
        "numpy columns, screens taint-free batches in O(1), probes a "
        "taint-reachability fixpoint to select the records that can "
        "touch taint, and replays only those through a tightened scalar "
        "loop — falling back to whole-batch replay when a probe shows "
        "selection won't pay (dense register taint). The >=3x gate "
        "(benchmarks/bench_kernel.py) is on the suite aggregate; "
        "per-workload rows vary with taint density. The identity column "
        "is the contract: alerts, stats, shadow taint sets and the "
        "peak-location high-water mark must be bit-identical per "
        "workload, and `REPRO_FASTPATH_KERNEL=reference` in CI re-runs "
        "every equivalence suite on the pure-python side of the seam."
    ),
    "summaries": (
        "Call-granular elision on top of the batch kernel: the first "
        "execution of a CALL-delimited region is distilled into a taint "
        "transfer function (input footprint, output labels, stats deltas, "
        "sink trips), and later calls whose pre-state matches apply it in "
        "O(footprint) instead of replaying the region record by record. "
        "Validity is a two-part guard — footprint labels at entry plus "
        "exact byte equality of the region's records — so an aliased "
        "store, divergent branch or changed sink payload falls back to "
        "full propagation and re-learns; sites alternating between "
        "stable taint patterns keep one summary per footprint (variants) "
        "instead of thrashing. The base side of every row is the *array* "
        "kernel, not the reference loop — the >=5x call-heavy and >=2x "
        "aggregate gates (benchmarks/bench_summaries.py) are on top of "
        "the vectorized fast path, and each timed pass pays its own "
        "learning (fresh cache). The call-free spec workloads ride along "
        "to show the marker machinery costs them nothing, the "
        "50%-polymorphic member must show invalidations with identity "
        "held, and the record ledger must reconcile exactly: every "
        "consumed record is a marker, an elided region record, or a "
        "record the inner kernel actually propagated."
    ),
    "lake": (
        "The trace lake's whole value is that none of these answers "
        "re-executed anything: every per-workload row queries an mmap'd "
        "spill file (sealed packed chunks + footer index) and must match "
        "the live in-memory buffer bit for bit — same seqs, pcs and "
        "truncation under eviction — while spill-enabled tracing stays "
        "within 1.15x of no-spill tracing (sections are written once, at "
        "chunk-seal time, off the hot append path). The diff rows then "
        "use stored runs from *different builds* (buggy vs fixed) in "
        "source-line space via each manifest's pc→line map: edges only "
        "the failing run has, plus edges every passing run has that it "
        "lacks, must implicate a recorded bug line on the families whose "
        "injected defect changes the dependence-edge set."
    ),
}

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `python tools/generate_experiments_md.py` (every table below
is produced by the same `repro.harness.experiments` runners the
`benchmarks/` suite wraps; regenerate after any change).

The paper's evaluation is a set of in-text quantitative claims rather
than numbered tables/figures; DESIGN.md §4 maps each claim to an
experiment id. Our substrate is a deterministic interpreter with a
cycle cost model, not the authors' 2008 testbed, so **absolute numbers
are not comparable; shapes, orderings and ratio structure are** — each
experiment's assertions (see `benchmarks/`) encode exactly the shape
that must hold.

Each section also quotes a **Telemetry** line: counters/gauges from the
unified metrics registry (`repro.telemetry`), the same snapshot
`python -m repro experiments <id> --report out.json` serializes.

**Wall-clock vs modeled cycles.** Every number in E1–E12 is in *modeled
cycles* from the deterministic cost model — the currency in which the
paper's slowdowns and ratios are reproduced. Host wall-clock time is
*not* part of those claims: how fast the simulator itself runs (its
precompiled VM dispatch, packed dependence store and array propagation
kernel) never moves a modeled number, and the differential suite holds
each layer to its independent oracle in cycle counts, dependence
graphs, slices and taint sets. Each section's **Wall-clock** line
reports how long the host took to run that experiment (also serialized
as `wall_time_s` in `--report` output) so the modeled and host costs
sit side by side. Six benchmarks deal in wall-clock (and real bytes)
on purpose: the `slicing` experiment below (packed columnar dependence
store: >=3x faster queries and >=4x lower *measured* store residency
than the record-object oracle — tracemalloc bytes, not the modeled
`bytes_per_instruction`, which a deque of record objects exceeds over
100x), the `parallel` experiment, where a
real worker process is the claim, the `service` experiment, where
the claims are a live daemon's (throughput scaling across worker
processes, overload shedding with zero hangs, bit-identical cache
hits), the `router` experiment, where a consistent-hash router
tier fronts three live daemons under hundreds of concurrent clients,
the `kernel` experiment, where the vectorized batch-propagation
kernel must beat the per-record reference >=3x on captured record
streams while staying bit-identical in every observable, and the
`summaries` experiment, where learned per-call taint transfer
functions must beat the bare batch kernel >=5x on call-heavy code
(>=2x suite aggregate) with the record ledger reconciled exactly, and
the `lake` experiment, where persisted spill files must answer
slice/lineage/postmortem queries re-execution-free and bit-identically
to the live buffer, with cross-run dependence-edge diffs localizing
injected bugs across stored runs of different builds.

"""


def main() -> None:
    sections = [HEADER]
    names = sorted(ALL_EXPERIMENTS, key=lambda n: int(n[1:])) + [
        "slicing", "parallel", "service", "router", "kernel", "summaries",
        "lake",
    ]
    for name in names:
        result = run_experiment(name)
        sections.append(f"## {result.experiment} — {result.claim}\n")
        sections.append("```")
        sections.append(result.table())
        sections.append("```")
        if result.notes:
            sections.append(f"\n*{result.notes}*")
        headline = ", ".join(f"{k} = {v:.3g}" for k, v in result.headline.items())
        sections.append(f"\n**Headline:** {headline}")
        if result.metrics:
            shown = list(result.metrics.items())[:10]
            metrics = ", ".join(f"`{k}` = {v:.6g}" for k, v in shown)
            more = len(result.metrics) - len(shown)
            suffix = f" (+{more} more via `experiments {name} --report`)" if more else ""
            sections.append(f"\n**Telemetry:** {metrics}{suffix}")
        sections.append(f"\n{COMMENTARY[name]}")
        sections.append(f"\n**Wall-clock:** {result.wall_time_s:.1f} s on this host\n")
        print(f"{name} done in {result.wall_time_s:.1f}s")
    out = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    out.write_text("\n".join(sections))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
