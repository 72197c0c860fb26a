#!/usr/bin/env python3
"""End-to-end cost ledger: what a DIFT/ONTRAC run, a stored-trace query
and a service request cost, in host-normalized units.

Usage (from the repository root)::

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 28 --trace 0

Each workload is a program family (``monitor``: the SPEC-like suite;
``calls``: the call-heavy family) and runs four stages in order: set-up
(repeated, median reported as ``setup_s``), the service stage (daemon
and router alive only here), the VM-mode stage and the postmortem stage.
After the timed window every answer is checked against an independent
oracle.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: share of ``--seconds`` the service stage measures; the interleaved
#: VM-mode and postmortem rounds take the rest.
SERVICE_SHARE = 0.35
#: fewest VM-mode and postmortem rounds a run makes, however short.
MIN_ROUNDS = 3
WORKLOADS = ("monitor", "calls")


def bootstrap() -> None:
    """Put the repository's sources and this directory on the path, or
    exit 2 when the sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        sys.exit(2)
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


#: Linux ``prctl`` option that makes orphaned descendants this process's.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so a process whose parent died is
    still this run's to end and reap."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


@dataclass
class Setup:
    progs: list
    stored: object
    source: str
    line: int
    corpus: object
    stack: object
    dir: str


def do_setup(family: str, seed: int, workdir: str, spans) -> Setup:
    """Everything a run needs before timing: compiled programs with
    generated inputs, the stored buggy corpus, and a warm service stack."""
    import gen
    from phases import ServiceStack, record_corpus, warm_up
    from repro.lang import compile_source

    os.makedirs(workdir, exist_ok=True)
    with spans.span("lang"):
        progs = gen.vm_programs(family, seed)
        stored = gen.stored_program(family, seed)
        source = gen.service_source(family, seed)
        compile_source(source)
    corpus = record_corpus(os.path.join(workdir, "corpus"), spans)
    stack = ServiceStack(os.path.relpath(os.path.join(workdir, "svc")), SRC)
    with spans.span("service"):
        try:
            stack.start()
            warm_up(stack, family, source, gen.checksum_line(source), seed)
        except BaseException:
            stack.stop()
            raise
    return Setup(progs, stored, source, gen.checksum_line(source), corpus, stack, workdir)


def _ms(series_median_s: float) -> float:
    return series_median_s * 1e3


def end_to_end(st, vm, pm, sv, which: str) -> dict:
    """The 14 end-to-end metrics, normalized (``which="norm"``) or raw."""
    from phases import mean_of_medians, percentile

    lat = sv.lat
    all_lat = [x for s in lat.values() for x in s.values(which)]
    miss = lat[("direct", "miss")].values(which)
    return {
        "setup_s": (st.median(which), "s"),
        "plain_kips": (vm.kips("plain", which), "kips"),
        "dift_kips": (vm.kips("dift", which), "kips"),
        "ontrac_kips": (vm.kips("ontrac", which), "kips"),
        "record_kips": (pm.instructions / pm.write.median(which) / 1e3, "kips"),
        "cold_query_ms": (_ms(pm.cold.median(which)), "ms"),
        "warm_slice_ms": (_ms(mean_of_medians(pm.warm, which)), "ms"),
        "diff_ms": (_ms(mean_of_medians(list(pm.diff.values()), which)), "ms"),
        "req_per_s": (len(all_lat) / sum(all_lat), "1/s"),
        "miss_p50_ms": (_ms(statistics.median(miss)), "ms"),
        "miss_p90_ms": (_ms(percentile(miss, 0.9)), "ms"),
        "hit_p50_ms": (_ms(lat[("direct", "hit")].median(which)), "ms"),
        "routed_miss_p50_ms": (_ms(lat[("routed", "miss")].median(which)), "ms"),
        "routed_hit_p50_ms": (_ms(lat[("routed", "hit")].median(which)), "ms"),
    }


def service_layers(sv, paired) -> dict:
    """Service per-layer metrics; ``paired`` is :func:`check_service`'s
    (connection, request s, in-process execute s) per miss."""
    ticks_ms = 1e3 / os.sysconf("SC_CLK_TCK")
    routed = len(sv.lat[("routed", "miss")]) + len(sv.lat[("routed", "hit")])

    def median_ms(values):
        return statistics.median(values) * 1e3 if values else 0.0

    daemon = [lat - ex for conn, lat, ex in paired if conn == "direct"]
    via_router = [lat - ex for conn, lat, ex in paired if conn == "routed"]
    return {
        "service.jobs.execute_ms": (median_ms([ex for _, _, ex in paired]), "ms"),
        "service.protocol.response_bytes": (
            sum(sv.response_bytes) / max(len(sv.response_bytes), 1), "bytes",
        ),
        "service.daemon.overhead_ms": (median_ms(daemon), "ms"),
        "service.daemon.cpu_ms_per_req": (
            sv.cpu_ticks["daemon"] * ticks_ms / max(sv.requests, 1), "ms",
        ),
        "service.pool.worker_cpu_ms_per_miss": (
            sv.cpu_ticks["workers"] * ticks_ms / max(sv.misses, 1), "ms",
        ),
        "service.admission.degraded": (sv.degraded, "count"),
        "service.admission.rejected": (sv.rejected, "count"),
        "service.router.relay_miss_ms": (median_ms(via_router) - median_ms(daemon), "ms"),
        "service.router.relay_hit_ms": (
            (sv.lat[("routed", "hit")].median() - sv.lat[("direct", "hit")].median()) * 1e3,
            "ms",
        ),
        "service.router.cpu_ms_per_req": (
            sv.cpu_ticks["router"] * ticks_ms / max(routed, 1), "ms",
        ),
        "service.cache.hit_ratio": (
            sum(sv.stats_delta.values()) / max(sv.requests, 1), "ratio",
        ),
        "service.miss_samples": (len(sv.lat[("direct", "miss")]), "count"),
    }


def trace_shares(spans) -> dict:
    from spans import LAYERS

    layers, residual, root = spans.self_times()
    out = {
        f"trace.self_share.{name}": (layers.get(name, 0) / max(root, 1), "ratio")
        for name in LAYERS
    }
    out["trace.unattributed_share"] = (residual / max(root, 1), "ratio")
    return out


def trace_overhead(progs, clock, rounds: int = 5) -> float:
    """Traced over untraced time of the same VM-mode round, minus one."""
    from phases import MODES, RUNNERS
    from spans import NULL_SPANS, SpanRecorder

    def one_round(spans):
        for p in progs:
            for mode in MODES:
                RUNNERS[mode](p, spans)

    traced, untraced = [], []
    for _ in range(rounds):
        untraced.append(clock.time(one_round, NULL_SPANS)[0])
        traced.append(clock.time(one_round, SpanRecorder())[0])
    untraced = [s.norm for s in untraced]
    traced = [s.norm for s in traced]
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def run_workload(
    family: str, seed: int, seconds: float, trace: bool,
    setup_reps: int = SETUP_REPS, workdir: str | None = None,
) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    from hostref import HostClock, quiet_heap
    from phases import (
        Ledger,
        PostmortemResult,
        Series,
        VMResult,
        check_postmortem,
        check_service,
        check_vm,
        postmortem_round,
        service_phase,
        vm_round,
    )
    from spans import NULL_SPANS, SpanRecorder

    base = workdir or os.path.join(ROOT, ".perfbench", f"{family}-s{seed}-p{os.getpid()}")
    spans = SpanRecorder() if trace else NULL_SPANS
    clock = HostClock(spans=spans if trace else None)
    ledger = Ledger()
    setups: list[Setup] = []
    stage_s: dict[str, float] = {}
    t_stage = [time.perf_counter()]

    def stage(name: str) -> None:
        now = time.perf_counter()
        stage_s[name] = round(now - t_stage[0], 3)
        t_stage[0] = now

    try:
        setup_t = Series()
        for r in range(setup_reps):
            if setups:
                setups[-1].stack.stop()
                shutil.rmtree(setups[-1].dir, ignore_errors=True)
            with spans.span("phase:setup"):
                sample, st = clock.time(
                    do_setup, family, seed, os.path.join(base, f"setup{r}"), spans,
                )
            setup_t.add(sample)
            setups.append(st)
        st = setups[-1]
        stage("setup")

        with quiet_heap(), spans.span("phase:service"):
            sv = service_phase(
                st.stack, family, st.source, st.line, seed,
                clock, seconds * SERVICE_SHARE, spans, ledger,
            )
        st.stack.stop()
        stage("service")
        # VM-mode and postmortem rounds alternate, so each metric's
        # samples spread over the whole window and average over more of
        # the host's slow and fast spells.
        vm, pm = VMResult(st.progs), PostmortemResult()
        rounds_root = os.path.join(base, "lake-rounds")
        deadline = time.perf_counter() + seconds * (1 - SERVICE_SHARE)
        while min(vm.rounds, pm.rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            with quiet_heap(), spans.span("phase:vm"):
                vm_round(vm, clock, spans, ledger)
            with quiet_heap(), spans.span("phase:postmortem"):
                postmortem_round(
                    pm, st.stored, seed, st.corpus, rounds_root, clock, spans, ledger,
                )
        stage("vm+postmortem")
        with spans.span("phase:check"):
            check_vm(st.progs, vm, spans, ledger)
            check_postmortem(pm, spans, ledger)
            paired = check_service(sv, clock, spans, ledger)

        stage("check")
        raw = end_to_end(setup_t, vm, pm, sv, "raw")
        if trace:
            import layers

            shares = trace_shares(spans)
            metrics = {f"raw.{k}": v for k, v in raw.items()}
            metrics["host.calib_ms"] = (clock.calib_ms(), "ms")
            metrics.update(service_layers(sv, paired))
            metrics.update(shares)
            warm_s = sum(s.median() for s in pm.warm)
            nodes = sum(len(pm.first_slices[c].seqs) for c in pm.criteria)
            metrics["slicing.engine.us_per_node"] = (warm_s / max(nodes, 1) * 1e6, "us")
            with quiet_heap():
                metrics.update(layers.protocol_layer(sv.responses, clock))
                metrics.update(layers.compile_layer(st.source, clock))
                metrics.update(layers.vm_layers(st.progs, clock, NULL_SPANS))
            with quiet_heap():
                metrics.update(
                    layers.lake_layers(st.stored, st.corpus, base, clock, NULL_SPANS)
                )
            with quiet_heap():
                metrics["trace.overhead"] = (trace_overhead(st.progs, clock), "ratio")
            dump_dir = os.path.join(ROOT, ".perfbench")
            os.makedirs(dump_dir, exist_ok=True)
            spans.dump(os.path.join(dump_dir, f"spans-{family}-s{seed}.json"))
        else:
            metrics = end_to_end(setup_t, vm, pm, sv, "norm")
            diag = {k: v[0] for k, v in raw.items()}
            diag["host.calib_ms"] = clock.calib_ms()
            diag["stage_s"] = stage_s
            diag["samples"] = {
                "vm_rounds": vm.rounds, "postmortem_rounds": pm.rounds,
                "direct_miss": len(sv.lat[("direct", "miss")]),
                "direct_hit": len(sv.lat[("direct", "hit")]),
                "routed_miss": len(sv.lat[("routed", "miss")]),
                "routed_hit": len(sv.lat[("routed", "hit")]),
            }
            print("perfbench-raw " + json.dumps(diag, sort_keys=True), file=sys.stderr)
    finally:
        for s in setups:
            s.stack.stop()
        shutil.rmtree(base, ignore_errors=True)
    return {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A launcher that starts this in the background leaves SIGINT
    # ignored, and an ignored signal stays ignored in children: restore
    # it so the router shuts down cleanly on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Terminated runs still stop the service stack and remove their files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bootstrap()
    from phases import end_children

    become_subreaper()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        end_children()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
